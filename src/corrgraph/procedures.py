"""Multiple testing procedures: single-step, step-down, BH/FDR, MTP2 check.

Five FWER-controlling rules are supported, each with a step-down variant:

- ``bonferroni``: reject p_i <= alpha / |C|
- ``sidak``: reject |T_i| > Phi^-1((1 - alpha)^(1/|C|) / 2 + 1/2)
- ``bootrw``: reject |T_i| > bootstrap quantile of the max centered
  statistic over C (Romano-Wolf nonparametric bootstrap)
- ``maxt``: reject |T_i| > Monte Carlo quantile of ||N(0, Sigma_hat)|_C||_inf
  with the plug-in pair covariance
- ``oracle-maxt``: maxt with the true (simulation-known) covariance

Ties follow the printed rules: non-strict for the p-value rule
(p <= alpha/m), strict for statistic rules (|T| > t).

:func:`run_procedure` is the one entry point for all five.  The resampled
rules read their threshold from a ``DrawMatrix`` the caller builds first
(:func:`~corrgraph.quantiles.bootstrap_draw_matrix` or
:func:`_gauss_draw_matrix`).  The step-down loop re-applies the rule to the
surviving index set until a fixpoint; resampled quantiles are re-read on the
surviving subset from that one DrawMatrix, so the per-iteration thresholds
are exactly decreasing and the loop is deterministic.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError
from .quantiles import DrawMatrix, _gauss_draws, cholesky_psd, quantile_from_draws, sidak_threshold
from .stats import PairCovariance, PValueVector, StatVector, p_values

__all__ = [
    "Method",
    "ProcedureKind",
    "RejectionSet",
    "run_procedure",
    "bh_fdr",
    "is_mtp2_gaussian_abs",
    "random_correlation_matrix",
]

DEFAULT_BOOTSTRAP_DRAWS = 100
DEFAULT_MAXT_DRAWS = 1000


class Method(str, enum.Enum):
    BONFERRONI = "bonferroni"
    SIDAK = "sidak"
    BOOT_RW = "bootrw"
    MAX_T = "maxt"
    ORACLE_MAX_T = "oracle-maxt"
    BH = "bh"  # FDR control; only valid for bh_fdr, not run_procedure


@dataclass(frozen=True)
class ProcedureKind:
    method: Method
    stepdown: bool = False

    def __post_init__(self):
        object.__setattr__(self, "method", Method(self.method))

    @property
    def label(self) -> str:
        return self.method.value + (" (step-down)" if self.stepdown else "")


@dataclass(frozen=True)
class RejectionSet:
    """Outcome of a multiple testing procedure on m pairwise tests."""

    rejected: frozenset
    m: int
    alpha: float
    procedure: ProcedureKind
    iterations: int
    thresholds: tuple
    pvalues: PValueVector | None = None
    # Per-pair threshold in force when the pair was decided: the threshold of
    # the iteration that rejected it, or the final one for survivors.  For
    # Bonferroni these are p-value thresholds, otherwise |T| thresholds.
    pair_thresholds: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "rejected", frozenset(int(v) for v in self.rejected))
        if self.rejected and (min(self.rejected) < 0 or max(self.rejected) >= self.m):
            raise ValueError("rejected indexes out of range")

    def mask(self) -> np.ndarray:
        out = np.zeros(self.m, dtype=bool)
        if self.rejected:
            out[sorted(self.rejected)] = True
        return out


def _gauss_draw_matrix(sigma, draws: int, rng: np.random.Generator) -> DrawMatrix:
    """``draws`` rows from N(0, sigma), sigma an m x m pair covariance."""
    values = sigma.values if isinstance(sigma, PairCovariance) else sigma
    factor, _ = cholesky_psd(values)
    return DrawMatrix(np.concatenate(list(_gauss_draws(factor, draws, rng))),
                      provenance="parametric-gaussian")


def run_procedure(
    stats: StatVector,
    alpha: float,
    procedure: ProcedureKind,
    draw_matrix: DrawMatrix | None = None,
) -> RejectionSet:
    """Apply a procedure (single-step or step-down) to a statistic vector.

    ``bootrw``, ``maxt`` and ``oracle-maxt`` read their threshold from
    ``draw_matrix``, B resampled statistic vectors of width m; Bonferroni and
    Sidak need none.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    method = procedure.method
    if method is Method.BH:
        raise ValueError("use bh_fdr for the Benjamini-Hochberg procedure")
    t_abs = np.abs(stats.values)
    m = t_abs.size
    pvals = p_values(stats)
    if draw_matrix is None and method not in (Method.BONFERRONI, Method.SIDAK):
        raise ValueError(f"{method.value} requires a draw matrix")
    if draw_matrix is not None and draw_matrix.m != m:
        raise ValueError("draw matrix width does not match statistic vector")

    alive = np.ones(m, dtype=bool)
    thresholds = []
    pair_thr = np.empty(m)
    iterations = 0
    while True:
        iterations += 1
        subset = np.flatnonzero(alive)
        if method is Method.BONFERRONI:
            thr = alpha / subset.size
            newly = subset[pvals.values[subset] <= thr]
        elif method is Method.SIDAK:
            thr = sidak_threshold(alpha, subset.size)
            newly = subset[t_abs[subset] > thr]
        else:
            thr = quantile_from_draws(draw_matrix, alpha, subset)
            newly = subset[t_abs[subset] > thr]
        thresholds.append(float(thr))
        pair_thr[subset] = thr
        if newly.size == 0 or not procedure.stepdown:
            break
        alive[newly] = False
        if not alive.any():
            break
    rejected = frozenset(np.flatnonzero(~alive).tolist())
    if not procedure.stepdown:
        rejected = frozenset(newly.tolist())
    return RejectionSet(
        rejected=rejected,
        m=m,
        alpha=alpha,
        procedure=procedure,
        iterations=iterations,
        thresholds=tuple(thresholds),
        pvalues=pvals,
        pair_thresholds=pair_thr,
    )


def bh_fdr(pvalues: PValueVector, alpha: float) -> RejectionSet:
    """Benjamini-Hochberg procedure at level alpha.

    Rejects the indexes with p_i <= alpha k_hat / m where
    k_hat = max {k : p_(k) <= alpha k / m} (convention p_(0) = 0).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    p = pvalues.values
    m = p.size
    order = np.sort(p)
    ks = np.flatnonzero(order <= alpha * np.arange(1, m + 1) / m)
    k_hat = int(ks[-1]) + 1 if ks.size else 0
    thr = alpha * k_hat / m
    rejected = frozenset(np.flatnonzero(p <= thr).tolist()) if k_hat else frozenset()
    return RejectionSet(
        rejected=rejected,
        m=m,
        alpha=alpha,
        procedure=ProcedureKind(Method.BH, False),
        iterations=1,
        thresholds=(float(thr),),
        pvalues=pvalues,
    )


# ---------------------------------------------------------------------------
# MTP2 check for |Gaussian| vectors
# ---------------------------------------------------------------------------

def is_mtp2_gaussian_abs(sigma: np.ndarray, tol: float = 1e-10):
    """Whether |X|, X ~ N(0, sigma), has an MTP2 distribution.

    Criterion: there exists a diagonal sign matrix D with entries +-1 such
    that every off-diagonal entry of -D sigma^-1 D is >= -tol.  Brute-forced
    over the 2^(d-1) sign patterns (the first sign is fixed by symmetry);
    d is capped at 20.

    Returns (True, D) with a witness sign vector, or (False, None).
    """
    sigma = np.asarray(sigma, dtype=float)
    d = sigma.shape[0]
    if d > 20:
        raise ValueError("MTP2 brute force limited to dimension <= 20")
    try:
        precision = np.linalg.inv(sigma)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("covariance matrix is singular") from exc
    off = ~np.eye(d, dtype=bool)
    for bits in itertools.product((1.0, -1.0), repeat=d - 1):
        signs = np.array((1.0,) + bits)
        flipped = signs[:, None] * signs[None, :] * precision
        if np.all(flipped[off] <= tol):
            return True, signs
    return False, None


def random_correlation_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random d x d correlation matrix: normalized Wishart draw.

    G is (d+2) x d standard normal; the result is the correlation matrix of
    G^T G.  Used by the MTP2 occurrence study.
    """
    g = rng.standard_normal((d + 2, d))
    w = g.T @ g
    scale = np.sqrt(np.diag(w))
    corr = w / np.outer(scale, scale)
    np.fill_diagonal(corr, 1.0)
    return corr
