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
rules read their threshold from draws the caller builds first:
:func:`~corrgraph.quantiles.bootstrap_draw_matrix` and
:func:`gauss_draw_matrix`, which maps p x p perturbations or multiplier
weights to statistic draws and never forms the m x m Omega, return a
``DrawMatrix`` or, given the statistic vectors, their ``MaxRecords``: the
prefix maxima for a step-down, or each row's maximum over all pairs for a
single-step rule.  Given a tuple of kinds, either builder returns one result
per kind from one set of draws.  The Gaussian route draws each block's
normals one block ahead, on a worker thread, while the caller maps the block
before; the calls, their order and so the stream are those of a serial loop,
and the worker is joined before the builder returns.  The step-down loop
re-applies the rule to the surviving index set until a fixpoint and keeps one
mask, of the surviving pairs, whose complement is the rejection mask.  The
survivors are always the pairs with |T| at most the last threshold, so
MaxRecords give each resampled quantile from the prefix maxima of the draws,
with no B x m matrix; a DrawMatrix is re-read on the surviving subset by
``quantile_from_draws``.  Either way every quantile comes from one set of
draws, so the thresholds are exactly decreasing.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import itertools
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .core import CorrelationMatrix, num_pairs, pair_indices, standardize
from .errors import NotPositiveDefiniteError
from .quantiles import _MIN_GAUSS_DRAWS, _SCAN_ENTRIES, DrawMatrix, MaxRecords
from .quantiles import _check_alpha, _reduce_draws
from .quantiles import quantile_from_draws, sidak_threshold
from .stats import PValueVector, StatKind, StatVector, _influence, _kind_tuple
from .stats import _delta_divisor, p_values

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

DEFAULT_BOOTSTRAP_DRAWS = 100
DEFAULT_MAXT_DRAWS = 1000

# Entries of the p x p perturbations per block of Gaussian max-T draws (256 kB).
# A worker thread draws each block's normals one block ahead, with the calls
# and from the stream of a serial loop, so the normals do not depend on it.
# The GEMMs' last bits do, and on _PAIR_CHUNK, the pair columns per chunk of
# fourth-moment draws, so both are part of the seed contract.
_PERTURBATION_ENTRIES = 1 << 15
_PAIR_CHUNK = 128


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


def gauss_draw_matrix(corr, kind: StatKind | tuple[StatKind, ...], draws: int,
                      rng: np.random.Generator, sample=None, stats=None,
                      stepdown: bool = True) -> DrawMatrix | MaxRecords | tuple:
    """``draws`` rows from N(0, Omega), Omega the pair covariance of ``kind`` statistics.

    Omega is never formed.  Without ``sample`` a row is psi(L H L^T): L L^T =
    corr by ``eigh`` (exact when singular), H symmetric with N(0, 1) off and
    N(0, 2) on the diagonal, psi_ij(S) = S_ij - r_ij (S_ii + S_jj) / 2 over the
    Student/Fisher Delta derivative (S_ij / sqrt(1 + r_ij^2) for second-order),
    so Omega = ``omega_gaussian(corr, kind)``.  With ``sample`` (of correlation
    corr) a row is xi @ Psi, xi i.i.d. N(0, 1/n) multipliers and Psi the
    influence matrix of ``omega_general``, so Omega = Psi^T Psi / n.

    ``kind`` is one StatKind, which returns one result, or a tuple of kinds,
    which returns one result per kind, in that order, from one set of
    perturbations: each block's S (or the multipliers xi) is drawn once and
    mapped per kind, so each kind's draws equal those of a single-kind call on
    the same stream.  The result is a DrawMatrix, or, given ``stats`` (the
    StatVector of each kind, in the same form as ``kind``), a MaxRecords of
    the same draws, with no B x m matrix held (see ``quantiles._reduce_draws``).
    """
    kinds, single = _kind_tuple(kind)
    if draws < _MIN_GAUSS_DRAWS:
        raise ValueError(f"need at least {_MIN_GAUSS_DRAWS} draws, got {draws}")
    corr = np.asarray(corr.values if isinstance(corr, CorrelationMatrix) else corr, dtype=float)
    if corr.shape[0] < 2:
        raise ValueError(f"need at least 2 variables, got p={corr.shape[0]}")
    blocks = (_perturbation_blocks(corr, kinds, draws, rng) if sample is None
              else _multiplier_blocks(corr, sample, kinds, draws, rng))
    with contextlib.closing(blocks):  # held per fourth-moment draw: xi and 4 chunk columns
        return _reduce_draws(blocks, kinds, single, draws, num_pairs(corr.shape[0]),
                             "parametric-gaussian", stats, stepdown, "maxt",
                             0 if sample is None else sample.n + 4 * _PAIR_CHUNK)


# The name that bench/spans.py resolves.
_gauss_draw_matrix = gauss_draw_matrix


def _multiplier_blocks(corr, sample, kinds: tuple, draws: int, rng: np.random.Generator):
    """Yield the fourth-moment draws xi @ Psi of each kind, all rows by
    ``_PAIR_CHUNK`` pairs in flat order, in ``_reduce_draws`` form."""
    i, j = pair_indices(corr.shape[0])
    r = corr[i, j]
    xt = np.ascontiguousarray(standardize(sample).data.T)
    xi = rng.standard_normal((draws, xt.shape[1]))
    xi /= np.sqrt(xt.shape[1])
    for kd in kinds:
        for a in range(0, i.size, _PAIR_CHUNK):
            pairs = slice(a, a + _PAIR_CHUNK)
            yield kd, slice(None), pairs, xi @ _influence(xt, r[pairs], i[pairs], j[pairs], kd)


def _perturbation_blocks(corr, kinds: tuple, draws: int, rng: np.random.Generator):
    """Yield the Gaussian draws psi(L H L^T) of each kind, blocks of rows by
    all pairs, in ``_reduce_draws`` form."""
    p = corr.shape[0]
    i, j = pair_indices(p)
    r = corr[i, j]
    lam, vec = np.linalg.eigh(corr)
    if lam[0] < -1e-8 * max(lam[-1], 1.0):
        raise NotPositiveDefiniteError("correlation matrix is not positive semi-definite")
    root = vec * np.sqrt(np.maximum(lam, 0.0))
    factors = [1.0 / _delta_divisor(r, kd) for kd in kinds]
    # The normals of a perturbation fill the upper triangle of H row by row;
    # sym holds, for each entry of H in p x p order, the position of its normal.
    tri = np.zeros((p, p), dtype=np.intp)
    tri[np.triu_indices(p)] = np.arange(p * (p + 1) // 2)
    sym, z_diag = np.maximum(tri, tri.T).ravel(), tri.diagonal()
    # Flat positions in p x p of the pairs and the diagonal.
    flat, diag = i * p + j, np.arange(p) * (p + 1)
    half_r, block = 0.5 * r, max(1, _PERTURBATION_ENTRIES // (p * p))
    centred = any(kd is not StatKind.SECOND_ORDER for kd in kinds)
    # Each kind's draws of a few perturbation blocks fill one buffer of about
    # _SCAN_ENTRIES draws, yielded when full, so that a step-down folds few blocks.
    rows_out = block * max(1, _SCAN_ENTRIES // (block * r.size))
    buffers = [np.empty((min(rows_out, draws), r.size)) for _ in kinds]
    counts = [min(block, draws - a) for a in range(0, draws, block)]
    with contextlib.closing(_normals_ahead(rng, counts, p * (p + 1) // 2)) as normals:
        for a, z in zip(range(0, draws, block), normals):
            k, lo = z.shape[0], a % rows_out
            z[:, z_diag] *= np.sqrt(2.0)
            h = np.take(z, sym, axis=1)
            s = (h.reshape(-1, p) @ root.T).reshape(k, p, p)  # H L^T, whose transpose is L H
            s = np.matmul(s.transpose(0, 2, 1), root.T).reshape(k, -1)  # L H read as a view
            if centred:
                s_diag = np.take(s, diag, axis=1)
                shift = half_r * (np.take(s_diag, i, axis=1) + np.take(s_diag, j, axis=1))
            for kd, factor, buffer in zip(kinds, factors, buffers):
                rows = np.take(s, flat, axis=1, out=buffer[lo : lo + k])
                if kd is not StatKind.SECOND_ORDER:
                    rows -= shift
                rows *= factor
                if lo + k == rows_out or a + k == draws:
                    yield kd, slice(a - lo, a + k), slice(None), buffer[: lo + k]


def _normals_ahead(rng: np.random.Generator, counts: list, width: int):
    """Yield ``rng.standard_normal((k, width))`` for each k in ``counts``, each
    drawn on a worker thread while the caller maps the one before.

    The calls, their shapes and their order are those of a serial loop, so the
    stream, and the generator's state after the last block, are unchanged.
    Two buffers alternate: a yielded block is valid until the next is asked
    for.  The worker is joined however the generator ends, and an exception
    it raises is raised here.  The hand-offs are C-level queue calls: with a
    thread pool's futures, whose Python code holds the interpreter lock on
    every block, a call at p = 26 took about 1 ms (10%) longer.
    """
    buffers = np.empty((2, max(counts), width))
    outs = [buffers[t % 2, :k] for t, k in enumerate(counts)]
    # free: a token per buffer the caller has handed back, or None to stop;
    # ready: the drawn blocks in order, or the worker's exception.
    free, ready = queue.SimpleQueue(), queue.SimpleQueue()

    def draw():
        try:
            for out in outs:
                if free.get() is None:
                    return
                ready.put(rng.standard_normal(out=out))
        except BaseException as exc:  # raised by the caller, as a future would
            ready.put(exc)

    worker = threading.Thread(target=draw, name="corrgraph-normals", daemon=True)
    for _ in range(len(buffers)):
        free.put(True)
    worker.start()
    try:
        for _ in outs:
            z = ready.get()
            if isinstance(z, BaseException):
                raise z
            yield z
            free.put(True)
    finally:
        free.put(None)
        worker.join()


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
