"""Multiple testing procedures: single-step, step-down, BH/FDR, MTP2 check.

Five FWER-controlling rules are supported, each with a step-down variant:

- ``bonferroni``: reject p_i <= alpha / |C|
- ``sidak``: reject |T_i| > Phi^-1((1 - alpha)^(1/|C|) / 2 + 1/2)
- ``bootrw``: reject |T_i| > bootstrap quantile of the max centered
  statistic over C (Romano-Wolf nonparametric bootstrap)
- ``maxt``: reject |T_i| > Monte Carlo quantile of ||N(0, Omega_hat)|_C||_inf,
  the Gaussian limit of the statistics at the plug-in correlation matrix (or
  the fourth-moment plug-in)
- ``oracle-maxt``: maxt at the true (simulation-known) correlation matrix

Ties follow the printed rules: non-strict for the p-value rule
(p <= alpha/m), strict for statistic rules (|T| > t).

:func:`run_procedure` is the one entry point for all five.  The resampled
rules read their threshold from draws built first with
:func:`~corrgraph.quantiles.bootstrap_draw_matrix` or
:func:`~corrgraph.quantiles.gauss_draw_matrix` (:mod:`corrgraph.quantiles`
makes every draw): a ``DrawMatrix``, or, given the statistic vectors, their
``MaxRecords``: the prefix maxima for a step-down, or each row's maximum
over all pairs for a single-step rule.  ``corrgraph test`` and every
simulation replicate go from a sample to its rejection sets through
:func:`_decisions`, the one place that builds those draws.  The step-down
loop re-applies the rule to the surviving index set until a fixpoint and
keeps one mask, of the surviving pairs, whose complement is the rejection
mask.  The survivors are always the pairs with |T| at most the last
threshold, so MaxRecords give each resampled quantile from the prefix maxima
of the draws, with no B x m matrix; a DrawMatrix is re-read on the surviving
subset by ``quantile_from_draws``.  Either way every quantile comes from one
set of draws, so the thresholds are exactly decreasing.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .core import _correlation
from .errors import NotPositiveDefiniteError
from .quantiles import DEFAULT_BOOTSTRAP_DRAWS, DEFAULT_MAXT_DRAWS, DrawMatrix, MaxRecords
from .quantiles import _check_alpha, bootstrap_draw_matrix, gauss_draw_matrix
from .quantiles import quantile_from_draws, sidak_threshold
from .stats import PValueVector, StatVector, p_values

__all__ = [
    "Method",
    "ProcedureKind",
    "RejectionSet",
    "run_procedure",
    "bh_fdr",
    "gauss_draw_matrix",
    "is_mtp2_gaussian_abs",
    "random_correlation_matrix",
]

# The name that bench/spans.py resolves.
_gauss_draw_matrix = gauss_draw_matrix


class Method(str, enum.Enum):
    """A rejection rule; the declaration order is the order :func:`_decisions` draws in."""

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
        if not isinstance(self.stepdown, (bool, np.bool_)):
            raise ValueError(f"stepdown must be true or false, got {self.stepdown!r}")

    @property
    def label(self) -> str:
        return self.method.value + (" (step-down)" if self.stepdown else "")


@dataclass(frozen=True, eq=False)
class RejectionSet:
    """Outcome of a multiple testing procedure on m pairwise tests."""

    mask: np.ndarray  # read-only copy, in flat pair order: True where a pair is rejected
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
        mask = np.array(self.mask, dtype=bool)
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @property
    def m(self) -> int:
        return self.mask.size

    @functools.cached_property
    def rejected(self) -> frozenset:
        """Flat indexes of the rejected pairs."""
        return frozenset(np.flatnonzero(self.mask).tolist())


def run_procedure(
    stats: StatVector,
    alpha: float,
    procedure: ProcedureKind,
    draw_matrix: DrawMatrix | MaxRecords | None = None,
) -> RejectionSet:
    """Apply a procedure (single-step or step-down) to a statistic vector.

    ``bootrw``, ``maxt`` and ``oracle-maxt`` read their threshold from
    ``draw_matrix``: B resampled statistic vectors of width m, or the
    MaxRecords of such draws built for ``stats``.  Bonferroni and Sidak need
    none.  The pairs alive after each step are those with |T| at most its
    threshold, so with MaxRecords each threshold is a quantile over a prefix
    of their |T| order, of the length of the alive set; row maxima answer
    only the first step, over all m pairs.
    """
    _check_alpha(alpha)
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
    records = isinstance(draw_matrix, MaxRecords)
    if records and draw_matrix.order is not None and \
            np.any(np.diff(t_abs[draw_matrix.order]) < 0.0):
        raise ValueError("max records are not in the |T| order of the statistic vector")

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
            if records:
                thr = draw_matrix.quantile(alpha, subset.size)
            else:
                thr = quantile_from_draws(draw_matrix, alpha, subset)
            newly = subset[t_abs[subset] > thr]
        thresholds.append(float(thr))
        pair_thr[subset] = thr
        alive[newly] = False
        if newly.size == 0 or not procedure.stepdown or not alive.any():
            break
    return RejectionSet(
        mask=~alive,
        alpha=alpha,
        procedure=procedure,
        iterations=iterations,
        thresholds=tuple(thresholds),
        pvalues=pvals,
        pair_thresholds=pair_thr,
    )


def _decisions(samples, stats, procedures, alpha, rng, bootrw_draws=DEFAULT_BOOTSTRAP_DRAWS,
               maxt_draws=DEFAULT_MAXT_DRAWS, oracle=None, fourth_moment=False):
    """Yield (kind index, procedure index, RejectionSet) for each of ``stats``,
    the statistic vectors of ``samples``, and each of ``procedures``.

    Methods run in :class:`Method` order, so one method's draws are alive at
    a time, and each resampled method draws once from ``rng`` for every kind
    (common random numbers for the paired comparison of the kinds; the first
    kind's draws are those of that kind alone): ``bootrw`` resamples
    ``samples``, ``maxt`` draws at their correlation (with ``fourth_moment``,
    from the fourth-moment plug-in) and ``oracle-maxt`` at ``oracle``.  The
    draws come as MaxRecords: prefix-max records when a step-down of the
    method runs, else row maxima, so no B x m draws are held.
    """
    kinds = tuple(sv.kind for sv in stats)
    for method in Method:
        used = [k for k, pk in enumerate(procedures) if pk.method is method]
        if not used:
            continue
        stepdown = any(procedures[k].stepdown for k in used)
        if method is Method.BOOT_RW:
            draws = bootstrap_draw_matrix(samples, kinds, bootrw_draws, rng, stats=stats,
                                          stepdown=stepdown)
        elif method in (Method.MAX_T, Method.ORACLE_MAX_T):
            plug_in = method is Method.MAX_T
            draws = gauss_draw_matrix(_correlation(samples) if plug_in else oracle, kinds,
                                      maxt_draws, rng,
                                      sample=samples if plug_in and fourth_moment else None,
                                      stats=stats, stepdown=stepdown)
        else:
            draws = (None,) * len(stats)
        for s_idx, dm in enumerate(draws):
            for k_idx in used:
                yield s_idx, k_idx, run_procedure(stats[s_idx], alpha, procedures[k_idx], dm)


def bh_fdr(pvalues: PValueVector, alpha: float) -> RejectionSet:
    """Benjamini-Hochberg procedure at level alpha.

    Rejects the indexes with p_i <= alpha k_hat / m where
    k_hat = max {k : p_(k) <= alpha k / m} (convention p_(0) = 0).
    """
    _check_alpha(alpha)
    p = pvalues.values
    m = p.size
    order = np.sort(p)
    ks = np.flatnonzero(order <= alpha * np.arange(1, m + 1) / m)
    k_hat = int(ks[-1]) + 1 if ks.size else 0
    thr = alpha * k_hat / m
    return RejectionSet(
        mask=p <= thr if k_hat else np.zeros(m, dtype=bool),
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
