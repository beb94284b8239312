"""Stochastic-block-model correlation models and the Monte Carlo harness.

The graph model is a two-community stochastic block model on p nodes
(p even, communities of size p/2): within-community edges are
Bernoulli(p_intra), between-community edges Bernoulli(p_inter).  The
correlation model is Gamma = I + rho * A, positive definite exactly when
|rho| < 1 / |lambda_min(A)|.

The experiment harness samples Gaussian data from the model, applies a grid
of (statistic, procedure) combinations and aggregates FWER (fraction of
replicates with at least one false rejection), power (mean true discovery
proportion) and mean false discovery proportion.  All randomness derives
from named substreams of the master seed (see :mod:`corrgraph.rng`), so
results are bit-identical for a fixed seed regardless of thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import CorrelationMatrix, SampleMatrix, empirical_correlation, pair_indices
from .errors import ConfigError, DegenerateInputError, ModelError
from .procedures import (
    DEFAULT_BOOTSTRAP_DRAWS,
    DEFAULT_MAXT_DRAWS,
    Method,
    ProcedureKind,
    _gauss_draw_matrix,
    run_procedure,
)
from .quantiles import _MIN_BOOTSTRAP_DRAWS, _MIN_GAUSS_DRAWS, bootstrap_draw_matrix
from .rng import make_rng
from .stats import StatKind, omega_gaussian, statistic

__all__ = [
    "AdjacencyMatrix",
    "CorrelationModel",
    "ExperimentConfig",
    "MetricsRow",
    "sbm_adjacency",
    "correlation_model",
    "sample_gaussian",
    "replicate_metrics",
    "run_experiment",
]

# Substream tags for the master seed.
_STREAM_ADJACENCY = 1
_STREAM_REPLICATE = 2
_STREAM_QUANTILE = 3

_MAX_RETRIES = 10


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Symmetric binary p x p matrix with zero diagonal."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if not np.array_equal(values, values.T):
            raise ValueError("adjacency matrix must be symmetric")
        if not np.all((values == 0) | (values == 1)):
            raise ValueError("adjacency entries must be 0 or 1")
        if np.any(np.diag(values) != 0):
            raise ValueError("adjacency diagonal must be zero")
        values = values.astype(np.int8)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    def edge_mask(self) -> np.ndarray:
        """Boolean length-m vector: True where the pair is an edge (H1)."""
        i, j = pair_indices(self.p)
        return self.values[i, j] == 1


@dataclass(frozen=True)
class CorrelationModel:
    """Gamma = I + rho * A with its PD certificate and true H0/H1 split."""

    gamma: CorrelationMatrix
    rho: float
    adjacency: AdjacencyMatrix
    min_eigenvalue: float

    @property
    def p(self) -> int:
        return self.gamma.p

    @property
    def m(self) -> int:
        return self.gamma.m

    def h1_mask(self) -> np.ndarray:
        return self.adjacency.edge_mask()

    @property
    def rho_bound(self) -> float:
        """Admissible effect-size bound 1 / |lambda_min| (inf for empty graphs)."""
        lam = abs(self.min_eigenvalue)
        return math.inf if lam == 0.0 else 1.0 / lam


def sbm_adjacency(
    p: int,
    p_intra: float,
    p_inter: float,
    seed: int | None = 0,
    rng: np.random.Generator | None = None,
) -> AdjacencyMatrix:
    """Two-community SBM adjacency draw; each unordered pair drawn once."""
    if p % 2 != 0 or p < 2:
        raise ConfigError(f"SBM requires an even node count p >= 2, got p={p}")
    for name, value in (("p_intra", p_intra), ("p_inter", p_inter)):
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{name} must be in [0, 1], got {value}")
    if rng is None:
        rng = make_rng(seed if seed is not None else 0)
    i, j = pair_indices(p)
    half = p // 2
    same_block = (i < half) == (j < half)
    prob = np.where(same_block, p_intra, p_inter)
    edges = rng.random(i.size) < prob
    a = np.zeros((p, p), dtype=np.int8)
    a[i[edges], j[edges]] = 1
    a[j[edges], i[edges]] = 1
    return AdjacencyMatrix(a)


def correlation_model(adjacency: AdjacencyMatrix, rho: float) -> CorrelationModel:
    """Build Gamma = I + rho * A, verifying positive definiteness.

    Fails with ModelError (reporting the bound 1/|lambda_min|) when
    |rho| >= 1/|lambda_min|, and as a belt-and-braces check when the
    Cholesky factorization of Gamma fails numerically.
    """
    a = adjacency.values.astype(float)
    lam_min = float(np.linalg.eigvalsh(a)[0])
    bound = math.inf if lam_min == 0.0 else 1.0 / abs(lam_min)
    if abs(rho) >= 1.0 or abs(rho) >= bound:
        raise ModelError(
            f"rho={rho} violates positive definiteness: need |rho| < {min(bound, 1.0):.6g}",
            rho_bound=bound,
        )
    gamma_values = np.eye(adjacency.p) + rho * a
    try:
        np.linalg.cholesky(gamma_values)
    except np.linalg.LinAlgError as exc:
        raise ModelError(
            f"Gamma = I + rho A is numerically not positive definite at rho={rho}",
            rho_bound=bound,
        ) from exc
    return CorrelationModel(
        gamma=CorrelationMatrix(gamma_values),
        rho=rho,
        adjacency=adjacency,
        min_eigenvalue=lam_min,
    )


def sample_gaussian(
    model: CorrelationModel | CorrelationMatrix,
    n: int,
    seed: int | None = 0,
    rng: np.random.Generator | None = None,
) -> SampleMatrix:
    """n i.i.d. N(0, Gamma) rows via the Cholesky factor of Gamma."""
    gamma = model.gamma if isinstance(model, CorrelationModel) else model
    factor = np.linalg.cholesky(gamma.values)
    if rng is None:
        rng = make_rng(seed if seed is not None else 0)
    return SampleMatrix(rng.standard_normal((n, gamma.p)) @ factor.T)


def replicate_metrics(rejected_mask: np.ndarray, h1_mask: np.ndarray) -> tuple[float, float, float]:
    """(false-rejection indicator, TDP, FDP) for one replicate.

    TDP is NaN when there are no true alternatives; FDP uses the
    max(|R|, 1) denominator.
    """
    rejected_mask = np.asarray(rejected_mask, dtype=bool)
    h1_mask = np.asarray(h1_mask, dtype=bool)
    false_rej = int(np.count_nonzero(rejected_mask & ~h1_mask))
    n_h1 = int(np.count_nonzero(h1_mask))
    n_rej = int(np.count_nonzero(rejected_mask))
    tdp = float(np.count_nonzero(rejected_mask & h1_mask)) / n_h1 if n_h1 else math.nan
    fdp = false_rej / max(n_rej, 1)
    return float(false_rej > 0), tdp, float(fdp)


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition for the Monte Carlo study."""

    p: int = 26
    p_intra: float = 0.6
    p_inter: tuple[float, ...] = (0.01, 0.05, 0.15, 0.4)
    rho: tuple[float, ...] = (0.1, 0.2)
    n: tuple[int, ...] = (100, 300, 500)
    stats: tuple[StatKind, ...] = tuple(StatKind)
    procedures: tuple[ProcedureKind, ...] = (
        ProcedureKind(Method.BONFERRONI),
        ProcedureKind(Method.SIDAK),
    )
    alpha: float = 0.05
    replicates: int = 1000
    bootrw_draws: int = DEFAULT_BOOTSTRAP_DRAWS
    maxt_draws: int = DEFAULT_MAXT_DRAWS
    seed: int = 0
    threads: int = 1
    adjacency_per_replicate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "p_inter", tuple(float(v) for v in self.p_inter))
        object.__setattr__(self, "rho", tuple(float(v) for v in self.rho))
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        object.__setattr__(self, "stats", tuple(StatKind(s) for s in self.stats))
        object.__setattr__(
            self,
            "procedures",
            tuple(
                pk if isinstance(pk, ProcedureKind) else ProcedureKind(*pk)
                for pk in self.procedures
            ),
        )
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must be in (0, 1)")
        if not 0.0 <= self.p_intra <= 1.0:
            raise ConfigError("p_intra must be in [0, 1]")
        for v in self.p_inter:
            if not 0.0 <= v <= 1.0:
                raise ConfigError("p_inter values must be in [0, 1]")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if any(pk.method is Method.BH for pk in self.procedures):
            raise ConfigError("procedures: bh is not an FWER procedure")
        if self.bootrw_draws < _MIN_BOOTSTRAP_DRAWS:
            raise ConfigError(f"bootrw_draws must be >= {_MIN_BOOTSTRAP_DRAWS}")
        if self.maxt_draws < _MIN_GAUSS_DRAWS:
            raise ConfigError(f"maxt_draws must be >= {_MIN_GAUSS_DRAWS}")


@dataclass(frozen=True)
class MetricsRow:
    """Aggregated metrics for one (stat, procedure, n, p_inter, rho) cell."""

    stat: StatKind
    method: Method
    stepdown: bool
    n: int
    p_inter: float
    rho: float
    replicates: int
    fwer: float
    fwer_se: float
    power: float  # NaN under the full null
    power_se: float
    fdp: float
    fdp_se: float
    failed_replicates: int = 0


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    values = values[np.isfinite(values)]
    if values.size == 0:
        return math.nan, math.nan
    mean = float(values.mean())
    if values.size == 1:
        return mean, math.nan
    return mean, float(values.std(ddof=1) / math.sqrt(values.size))


def _replicate_work(config, model_cache, pi_idx, rho_idx, n_idx, r):
    """Metrics for a single replicate: one sample, all stats and procedures.

    Returns an array of shape (n_stats, n_procs, 3) or None if every retry
    produced degenerate data.
    """
    p_inter = config.p_inter[pi_idx]
    rho = config.rho[rho_idx]
    n = config.n[n_idx]
    need_boot = any(pk.method is Method.BOOT_RW for pk in config.procedures)
    need_maxt = any(pk.method is Method.MAX_T for pk in config.procedures)
    need_oracle = any(pk.method is Method.ORACLE_MAX_T for pk in config.procedures)

    for attempt in range(_MAX_RETRIES):
        rng = make_rng(config.seed, _STREAM_REPLICATE, pi_idx, rho_idx, n_idx, r, attempt)
        try:
            if config.adjacency_per_replicate:
                adjacency = sbm_adjacency(config.p, config.p_intra, p_inter, rng=rng)
                model = correlation_model(adjacency, rho)
            else:
                model = model_cache[(pi_idx, rho_idx)]
            data = sample_gaussian(model, n, rng=rng)
            h1 = model.h1_mask()
            out = np.empty((len(config.stats), len(config.procedures), 3))
            for s_idx, kind in enumerate(config.stats):
                sv = statistic(data, kind)
                qrng = make_rng(
                    config.seed, _STREAM_QUANTILE, pi_idx, rho_idx, n_idx, r, attempt, s_idx
                )
                dm_boot = (
                    bootstrap_draw_matrix(data, kind, config.bootrw_draws, rng=qrng)
                    if need_boot
                    else None
                )
                dm_maxt = None
                if need_maxt:
                    sigma_hat = omega_gaussian(empirical_correlation(data), kind)
                    dm_maxt = _gauss_draw_matrix(sigma_hat, config.maxt_draws, qrng)
                dm_oracle = None
                if need_oracle:
                    sigma_true = omega_gaussian(model.gamma, kind)
                    dm_oracle = _gauss_draw_matrix(sigma_true, config.maxt_draws, qrng)
                for k_idx, pk in enumerate(config.procedures):
                    dm = {
                        Method.BOOT_RW: dm_boot,
                        Method.MAX_T: dm_maxt,
                        Method.ORACLE_MAX_T: dm_oracle,
                    }.get(pk.method)
                    rs = run_procedure(sv, config.alpha, pk, draw_matrix=dm)
                    out[s_idx, k_idx] = replicate_metrics(rs.mask(), h1)
            return out
        except (DegenerateInputError, ModelError):
            continue
    return None


def run_experiment(config: ExperimentConfig) -> list[MetricsRow]:
    """Run the full Monte Carlo grid and aggregate one row per cell.

    Deterministic for a fixed master seed independent of thread count:
    every replicate's randomness is a pure function of its grid coordinates
    and the aggregation happens in fixed replicate order.
    """
    # With the fixed-adjacency default, the graph depends only on p_inter
    # (matching captioned sparsity values); drawn from a dedicated stream.
    model_cache: dict[tuple[int, int], CorrelationModel] = {}
    if not config.adjacency_per_replicate:
        for pi_idx, p_inter in enumerate(config.p_inter):
            adjacency = sbm_adjacency(
                config.p,
                config.p_intra,
                p_inter,
                rng=make_rng(config.seed, _STREAM_ADJACENCY, pi_idx),
            )
            for rho_idx, rho in enumerate(config.rho):
                model_cache[(pi_idx, rho_idx)] = correlation_model(adjacency, rho)

    rows: list[MetricsRow] = []
    for pi_idx, p_inter in enumerate(config.p_inter):
        for rho_idx, rho in enumerate(config.rho):
            for n_idx, n in enumerate(config.n):
                shape = (config.replicates, len(config.stats), len(config.procedures), 3)
                results = np.full(shape, np.nan)
                failed = np.zeros(config.replicates, dtype=bool)

                def work(r):
                    out = _replicate_work(config, model_cache, pi_idx, rho_idx, n_idx, r)
                    if out is None:
                        failed[r] = True
                    else:
                        results[r] = out

                if config.threads > 1:
                    with ThreadPoolExecutor(max_workers=config.threads) as pool:
                        list(pool.map(work, range(config.replicates)))
                else:
                    for r in range(config.replicates):
                        work(r)

                ok = ~failed
                n_failed = int(failed.sum())
                for s_idx, kind in enumerate(config.stats):
                    for k_idx, pk in enumerate(config.procedures):
                        cell = results[ok, s_idx, k_idx, :]
                        fwer, fwer_se = _mean_se(cell[:, 0])
                        power, power_se = _mean_se(cell[:, 1])
                        fdp, fdp_se = _mean_se(cell[:, 2])
                        rows.append(
                            MetricsRow(
                                stat=kind,
                                method=pk.method,
                                stepdown=pk.stepdown,
                                n=n,
                                p_inter=p_inter,
                                rho=rho,
                                replicates=int(ok.sum()),
                                fwer=fwer,
                                fwer_se=fwer_se,
                                power=power,
                                power_se=power_se,
                                fdp=fdp,
                                fdp_se=fdp_se,
                                failed_replicates=n_failed,
                            )
                        )
    return rows
