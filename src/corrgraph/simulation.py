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
results are bit-identical for a fixed seed at any ``threads``; the BLAS
thread count can change the draws' last bits (see :mod:`corrgraph.rng`).

Every replicate goes from its sample to its rejection sets through
:func:`corrgraph.procedures._decisions`, fed by one quantile stream per
(replicate, attempt); its docstring gives the order in which the methods
draw from that stream and how every statistic kind shares their draws.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from .core import CorrelationMatrix, SampleMatrix, pair_indices
from .errors import ConfigError, DegenerateInputError, ModelError
from .procedures import Method, ProcedureKind, _decisions
from .quantiles import (
    _MIN_BOOTSTRAP_DRAWS,
    _MIN_GAUSS_DRAWS,
    DEFAULT_BOOTSTRAP_DRAWS,
    DEFAULT_MAXT_DRAWS,
    _check_memory,
)
from .rng import make_rng
from .stats import StatKind, _product_pairs, statistic

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

# Replicates submitted to the pool at a time: ``ThreadPoolExecutor.map``
# submits all it is given at once and holds a task for each, about ten
# times a replicate's own results, until the caller reads it.
_IN_FLIGHT = 1024


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class CorrelationModel:
    """Gamma = I + rho * A with its PD certificate and true H0/H1 split."""

    gamma: CorrelationMatrix
    rho: float
    adjacency: AdjacencyMatrix
    min_eigenvalue: float

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
    rng: np.random.Generator,
) -> AdjacencyMatrix:
    """Two-community SBM adjacency draw; each unordered pair drawn once from ``rng``.

    A p that would not fit in physical memory is refused (ValueError) before
    anything is allocated: the pair indexes, the edge probabilities and
    uniforms and the p x p matrix peak at about 18 bytes per p^2 entry
    (17.9 measured as peak RSS at p=4000).
    """
    if p % 2 != 0 or p < 2:
        raise ConfigError(f"SBM requires an even node count p >= 2, got p={p}")
    for name, value in (("p_intra", p_intra), ("p_inter", p_inter)):
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{name} must be in [0, 1], got {value}")
    _check_memory("SBM adjacency", 2.25 * p * p, f"at p={p}", "use a smaller p")
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
    Cholesky factorization of Gamma fails numerically.  A NaN rho is a
    ConfigError, and a p whose four p x p float arrays (33 bytes per entry
    measured as peak RSS at p=4000) exceed physical memory a ValueError,
    both raised before Gamma is built.
    """
    if math.isnan(rho):
        raise ConfigError(f"rho must be finite, got {rho}")
    _check_memory("correlation model", 4 * adjacency.p ** 2, f"at p={adjacency.p}",
                  "use a smaller p")
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


def sample_gaussian(gamma: CorrelationMatrix, n: int, rng: np.random.Generator) -> SampleMatrix:
    """n i.i.d. N(0, Gamma) rows from ``rng`` via the Cholesky factor of Gamma."""
    factor = np.linalg.cholesky(gamma.values)
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


def _number(name: str, value, kind: type = int):
    """``value`` as ``kind``, int or float; ConfigError for a bool, a string or None.

    numpy scalars count; a float such as 26.0 is not an integer.
    """
    number = numbers.Integral if kind is int else numbers.Real
    if not isinstance(value, number) or isinstance(value, bool):
        raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}")
    return kind(value)


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
        for name in ("p", "replicates", "bootrw_draws", "maxt_draws", "seed", "threads"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        for name in ("p_intra", "alpha"):
            object.__setattr__(self, name, _number(name, getattr(self, name), float))
        for name, kind in (("p_inter", float), ("rho", float), ("n", int)):
            values = tuple(_number(name, v, kind) for v in getattr(self, name))
            object.__setattr__(self, name, values)
        object.__setattr__(self, "stats", tuple(StatKind(s) for s in self.stats))
        object.__setattr__(
            self,
            "procedures",
            tuple(
                pk if isinstance(pk, ProcedureKind) else ProcedureKind(*pk)
                for pk in self.procedures
            ),
        )
        for name in ("p_inter", "rho", "n", "stats", "procedures"):
            if not getattr(self, name):
                raise ConfigError(f"{name} needs at least one entry")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must be in (0, 1)")
        if not 0.0 <= self.p_intra <= 1.0:
            raise ConfigError("p_intra must be in [0, 1]")
        for v in self.p_inter:
            if not 0.0 <= v <= 1.0:
                raise ConfigError("p_inter values must be in [0, 1]")
        if any(v < 4 for v in self.n):
            raise ConfigError("n values must be >= 4")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not isinstance(self.adjacency_per_replicate, (bool, np.bool_)):
            raise ConfigError("adjacency_per_replicate must be true or false")
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
    for attempt in range(_MAX_RETRIES):
        rng = make_rng(config.seed, _STREAM_REPLICATE, pi_idx, rho_idx, n_idx, r, attempt)
        try:
            if config.adjacency_per_replicate:
                adjacency = sbm_adjacency(config.p, config.p_intra, p_inter, rng)
                model = correlation_model(adjacency, rho)
            else:
                model = model_cache[(pi_idx, rho_idx)]
            data = sample_gaussian(model.gamma, n, rng)
            h1 = model.h1_mask()
            svs = tuple(statistic(data, kind) for kind in config.stats)
            qrng = make_rng(config.seed, _STREAM_QUANTILE, pi_idx, rho_idx, n_idx, r, attempt, 0)
            out = np.empty((len(config.stats), len(config.procedures), 3))
            for s_idx, k_idx, rs in _decisions(data, svs, config.procedures, config.alpha, qrng,
                                               config.bootrw_draws, config.maxt_draws,
                                               oracle=model.gamma):
                out[s_idx, k_idx] = replicate_metrics(rs.mask, h1)
            return out
        except (DegenerateInputError, ModelError):
            continue
    return None


def run_experiment(config: ExperimentConfig) -> list[MetricsRow]:
    """Run the full Monte Carlo grid and aggregate one row per cell.

    Deterministic for a fixed master seed and BLAS thread count at any
    ``config.threads``: every replicate's randomness is a pure function of its
    grid coordinates and the aggregation happens in fixed replicate order.
    The replicates run in the calling thread at ``threads=1``, else on one
    pool for the whole call, at most ``_IN_FLIGHT`` of them submitted at a
    time.  Each cell keeps the results of the replicates that sampled, in
    order, and counts the others as failed; it holds no failure mask.

    Before anything is drawn it refuses (ValueError) a grid whose cell results
    (replicates x kinds x procedures x 3 floats) and the sample arrays of the
    ``threads`` replicates running at once exceed physical memory.  Peak RSS
    of one replicate at n=10^6, p=8 and n=2x10^5, p=40 measured about 2.25
    floats per sample entry; the second-order statistic adds 2 more (its
    standardized copy) and, by tracemalloc, 4 n-vectors per pair of a
    pair-product chunk.
    """
    n, m = max(config.n), config.p * (config.p - 1) // 2
    per_row = 2.25 * config.p
    if StatKind.SECOND_ORDER in config.stats:
        per_row += 2 * config.p + 4 * min(m, _product_pairs(n))
    _check_memory("simulation",
                  config.replicates * 3 * len(config.stats) * len(config.procedures)
                  + config.threads * n * per_row,
                  f"for {config.replicates} replicates at n={n}, p={config.p}",
                  "use fewer replicates or a smaller n")
    # With the fixed-adjacency default, the graph depends only on p_inter
    # (matching captioned sparsity values); drawn from a dedicated stream.
    model_cache: dict[tuple[int, int], CorrelationModel] = {}
    if not config.adjacency_per_replicate:
        for pi_idx, p_inter in enumerate(config.p_inter):
            adjacency = sbm_adjacency(config.p, config.p_intra, p_inter,
                                      make_rng(config.seed, _STREAM_ADJACENCY, pi_idx))
            for rho_idx, rho in enumerate(config.rho):
                model_cache[(pi_idx, rho_idx)] = correlation_model(adjacency, rho)

    rows: list[MetricsRow] = []
    shape = (config.replicates, len(config.stats), len(config.procedures), 3)
    replicates = range(config.replicates)
    with ThreadPoolExecutor(config.threads) if config.threads > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        for (pi_idx, p_inter), (rho_idx, rho), (n_idx, n) in product(
                enumerate(config.p_inter), enumerate(config.rho), enumerate(config.n)):
            work = partial(_replicate_work, config, model_cache, pi_idx, rho_idx, n_idx)
            results = np.empty(shape)
            kept = 0
            for start in range(0, config.replicates, _IN_FLIGHT):
                for out in run(work, replicates[start:start + _IN_FLIGHT]):
                    if out is not None:
                        results[kept] = out
                        kept += 1
            for s_idx, kind in enumerate(config.stats):
                for k_idx, pk in enumerate(config.procedures):
                    cell = results[:kept, s_idx, k_idx, :]
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
                            replicates=kept,
                            fwer=fwer,
                            fwer_se=fwer_se,
                            power=power,
                            power_se=power_se,
                            fdp=fdp,
                            fdp_se=fdp_se,
                            failed_replicates=config.replicates - kept,
                        )
                    )
    return rows
