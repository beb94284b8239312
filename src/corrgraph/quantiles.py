"""Rejection thresholds: Sidak constants and resampled max-statistic quantiles.

:func:`sidak_threshold` inverts the normal tail with the standard library's
``statistics.NormalDist().inv_cdf`` (Wichura's AS 241, about 1e-16 relative).

Every draw of the max statistic is made here.  B draws are B simulated
statistic vectors, a B x m array whose rowwise sup-norm is the max
statistic.  Three Monte Carlo routes make them:

- :func:`gauss_draw_matrix` draws from the Gaussian limit N_m(0, Omega) of
  the statistics without forming Omega.  At a plug-in or oracle correlation
  matrix each row is a delta map of a p x p perturbation; each block's
  normals are drawn one block ahead, on a worker thread, while the caller
  maps the block before.  The calls, their order and so the stream are those
  of a serial loop, and the worker is joined before the builder returns;
- given the sample, :func:`gauss_draw_matrix` draws the fourth-moment
  plug-in as multiplier draws xi @ Psi on the influence matrix Psi of
  ``omega_general``, one chunk of pair columns at a time;
- :func:`bootstrap_draw_matrix` recomputes centered statistics on
  nonparametric resamples of the data.  The B resamples come from one
  ``integers(0, n, (B, n))`` draw, which yields the same indices, in order, as
  B successive draws of n.  Their count weights W (B x n) make every resample
  moment a GEMM of W against the standardized sample, with no loop over
  resamples.  A resample whose column variance is at most ``_DEGENERATE``
  times the full-sample variance (or, for the second-order kind, whose theta
  is at most ``_DEGENERATE``) is redrawn from the same stream.

Both builders take one StatKind, for one result, or a tuple of kinds, for
one result per kind from one set of draws; each kind's draws are then those
of a single-kind call on the same generator state (for the bootstrap, unless
a second-order theta forced a shared redraw).  A tuple of one kind, as
``corrgraph test`` passes, gives exactly the draws of the single-kind call.

:func:`quantile_from_draws` reads the empirical (1 - alpha)-quantile as the
order statistic of rank ceil((1 - alpha) B), a conservative right-continuous
convention, on any subset of the pairs.  Re-reading it on shrinking subsets
of the *same* draws makes subset monotonicity exact (not just statistical)
and the step-down iteration deterministic.

A step-down alive set is always the pairs with |T| at most the last
threshold: a prefix of the pairs sorted by ascending |T|.  So a step-down
needs only each draw row's maximum over a prefix, a step function with about
ln m steps for exchangeable columns (the successive maxima of Westfall and
Young, 1993; Romano and Wolf, 2005), and a single-step rule needs only its
maximum over all m pairs.  :class:`MaxRecords` keeps those steps, or those
row maxima, in place of the B x m draws; they are the one source of every
resampled threshold.  Each draw route is one generator of blocks of draws,
and :func:`_reduce_draws` reduces the blocks as they are made, into the B x m
array, row maxima or prefix-max records, so a step-down and a single-step
rule read the same draws, and :meth:`MaxRecords.quantile` returns what
:func:`quantile_from_draws` returns on the same prefix.
:meth:`MaxRecords.from_draws` reduces a B x m array made elsewhere, and
:func:`quantile_from_draws` reads any subset of one.

:func:`max_gauss_quantile` (``corrgraph quantile``, any m x m Sigma) factors
Sigma with :func:`cholesky_psd` and streams Gaussian blocks, keeping only
their rowwise maxima, for a single threshold at a B too large to store.

Only this module sizes what B draws hold: :func:`_reduce_draws`, from the
footprint each route states, and :func:`max_gauss_quantile` refuse (with a
ValueError) a B whose arrays exceed physical memory, before the first draw.
"""

from __future__ import annotations

import contextlib
import math
import os
import queue
import threading
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import CorrelationMatrix, SampleMatrix, _correlation, num_pairs
from .core import pair_indices, standardize
from .errors import DegenerateInputError, NotPositiveDefiniteError
from .stats import StatKind, _delta_divisor, _influence, _kind_tuple, _transform

__all__ = [
    "MaxRecords",
    "sidak_threshold",
    "cholesky_psd",
    "max_gauss_quantile",
    "bootstrap_draw_matrix",
    "gauss_draw_matrix",
    "quantile_from_draws",
]

_NORMAL = NormalDist()

# Jitter ladder for nearly-PSD matrices, as multiples of the max diagonal.
_JITTERS = (0.0, 1e-12, 1e-10, 1e-8)

# Entries per block of Gaussian draws in max_gauss_quantile (32 MB of float64).
_BLOCK_ENTRIES = 1 << 22

# Entries per block of a blockwise scan (512 kB): the row blocks of the
# finiteness and symmetry checks in cholesky_psd, the column chunks of
# quantile_from_draws and the row blocks of Gaussian max-T draws.
_SCAN_ENTRIES = 1 << 16

# Entries of the p x p perturbations per block of Gaussian max-T draws (256 kB).
# A worker thread draws each block's normals one block ahead, with the calls
# and from the stream of a serial loop, so the normals do not depend on it.
# The GEMMs' last bits do, and on _PAIR_CHUNK, the pair columns per chunk of
# fourth-moment draws, so both are part of the seed contract.
_PERTURBATION_ENTRIES = 1 << 15
_PAIR_CHUNK = 128

# Positions per segment of the first pass of _fold_records.
_SEGMENT = 16

# Candidate records a _RecordFold holds before it merges them (320 kB); the
# merge's temporaries take a few times that.
_HELD_CANDIDATES = 1 << 14

DEFAULT_BOOTSTRAP_DRAWS = 100
DEFAULT_MAXT_DRAWS = 1000

# Smallest accepted draw counts: bootstrap resamples and Gaussian draws.
_MIN_BOOTSTRAP_DRAWS = 50
_MIN_GAUSS_DRAWS = 100

# A bootstrap resample is degenerate when a column variance, relative to the
# full-sample variance, or a second-order theta is at most this value.
_DEGENERATE = 1e-10


@dataclass(frozen=True, eq=False)
class MaxRecords:
    """Prefix maxima of B draw rows over the m pairs taken in ascending |T| order.

    ``order`` holds the pair indexes by ascending |T| (a stable argsort).  A
    row's records are the positions in ``order`` where the running max of
    |draw| strictly rises, with that max: ``positions`` (int32) and
    ``values`` (float64), sorted by row and then position.  Row k's records
    start at ``starts[k]``; the first is at position 0.

    With ``order`` None they are the row maxima over all m pairs, for a
    single-step rule: one record per row, at position 0, and only the prefix
    of all m pairs is answered.
    """

    order: np.ndarray | None
    starts: np.ndarray
    positions: np.ndarray
    values: np.ndarray
    m: int

    def __post_init__(self):
        if self.order is not None and self.order.size != self.m:
            raise ValueError("max records order does not hold m pairs")
        for name in ("order", "starts", "positions", "values"):
            if getattr(self, name) is not None:
                getattr(self, name).flags.writeable = False

    @classmethod
    def from_draws(cls, draws, stats) -> MaxRecords:
        """The prefix-max MaxRecords (for either rule) of B x m ``draws``, from any
        law, for the StatVector ``stats``: read in copied column chunks of about
        ``_SCAN_ENTRIES`` entries, so ``draws`` is neither copied whole nor changed."""
        draws = np.asarray(draws, dtype=float)
        if draws.ndim != 2 or 0 in draws.shape:
            raise ValueError("draw matrix must be B x m with B, m >= 1")
        b, m = draws.shape
        cols = max(1, _SCAN_ENTRIES // b)
        blocks = ((stats.kind, slice(None), slice(a, a + cols), draws[:, a : a + cols].copy())
                  for a in range(0, m, cols))
        return _reduce_draws(blocks, (stats.kind,), True, b, m, stats=stats)

    @property
    def b(self) -> int:
        return self.starts.size

    def quantile(self, alpha: float, length: int) -> float:
        """:func:`quantile_from_draws` on the pairs ``order[:length]``: the
        threshold of every resampled rule, over the pairs alive at a step.

        A row's maximum over that prefix is its last record before ``length``.
        """
        if not 1 <= length <= self.m:
            raise ValueError(f"prefix length must be in [1, {self.m}], got {length}")
        if self.order is None and length < self.m:
            raise ValueError(f"row maxima answer only the prefix of all {self.m} pairs, "
                             f"got {length}")
        maxima = np.maximum.reduceat(np.where(self.positions < length, self.values, 0.0),
                                     self.starts)
        return _max_quantile(maxima, alpha)


def _fold_records(a: np.ndarray, carry: np.ndarray, floor: np.ndarray | None = None) -> tuple:
    """(rows, positions, values) of the records in one block of draws, rows and
    positions counted within the block.

    ``a`` holds the block positions, ascending in the |T| order, by rows.  A
    C-ordered ``a`` is overwritten with its absolute values.  ``carry`` holds
    each row's running max of |draw| before the block, and is advanced in
    place.  A first pass takes the max of each ``_SEGMENT`` positions; only
    the segments whose max passes the running max can hold a record, and only
    they are scanned.  ``floor`` (segments by rows) may raise the running max
    before each segment.  A NaN or an infinity reaches the carried max, so it
    is caught there.
    """
    a = np.ascontiguousarray(a)
    c, k = a.shape
    flat = np.abs(a, out=a).ravel()
    full = c // _SEGMENT
    top = np.empty((-(-c // _SEGMENT), k))
    top[:full] = a[: full * _SEGMENT].reshape(full, _SEGMENT, k).max(axis=1)
    if full < top.shape[0]:
        top[full] = a[full * _SEGMENT :].max(axis=0)
    prior = np.empty_like(top)  # each row's running max before each segment
    prior[0] = carry
    np.maximum.accumulate(top[:-1], axis=0, out=prior[1:])
    np.maximum(prior[1:], carry, out=prior[1:])
    if floor is not None:
        np.maximum(prior, floor, out=prior)
    carry[:] = np.maximum(prior[-1], top[-1])
    if not np.isfinite(carry).all():
        raise ValueError("draw matrix contains non-finite entries")
    hits = np.flatnonzero(top > prior)
    seg, row = np.divmod(hits, k)
    # Scan the hit segments one position at a time, with vectors of one entry
    # per hit: segment-by-hit temporaries made the allocator fault pages in on
    # every call.  A short last segment repeats its last position, which
    # cannot rise strictly above itself.
    first, last = seg * (_SEGMENT * k) + row, (c - 1) * k + row  # indexes into flat
    run, index, value = prior.ravel()[hits], np.empty_like(hits), np.empty(hits.size)
    rise = np.empty((_SEGMENT, hits.size), dtype=bool)
    for w in range(_SEGMENT):
        np.minimum(np.add(first, w * k, out=index), last, out=index)
        flat.take(index, out=value)
        np.greater(value, run, out=rise[w])
        np.maximum(run, value, out=run)
    offset, hit = np.divmod(np.flatnonzero(rise), hits.size)
    rows, positions = row[hit], seg[hit] * _SEGMENT + offset
    return rows, positions, flat.take(positions * k + rows)


def _strict_rises(parts: list, m: int) -> tuple:
    """The candidate records (rows, positions, values) of ``parts`` that rise
    strictly above every candidate of lower position in their row, by row and
    then position."""
    rows, positions, values = (np.concatenate(column) for column in zip(*parts))
    by_key = np.argsort(rows.astype(np.int64) * m + positions)
    rows, positions, values = rows[by_key], positions[by_key], values[by_key]
    # Rows ascend, so row * levels + the dense rank of the value restarts its
    # running max with each row: a rise is an entry above the running max before it.
    levels, dense = np.unique(values, return_inverse=True)
    scaled = rows.astype(np.int64) * levels.size + dense
    rise = np.ones(rows.size, dtype=bool)
    np.greater(scaled[1:], np.maximum.accumulate(scaled)[:-1], out=rise[1:])
    return rows[rise], positions[rise], values[rise]


def _max_records(order: np.ndarray, draws: int, parts: list) -> MaxRecords:
    """The MaxRecords of ``draws`` rows from candidate records (rows, positions,
    values), such as the :func:`_fold_records` parts of their blocks.

    Every record of a row over all m pairs is a record of the block that holds
    it, so the candidates' strict rises by position are the row's records.
    """
    rows, positions, values = _strict_rises(parts, order.size)
    return MaxRecords(order=order, starts=np.searchsorted(rows, np.arange(draws)),
                      positions=positions.astype(np.int32), values=values, m=order.size)


def _rank_bins(ranks):
    """Bins of |T| ranks, four per octave of rank + 1 from bin 0: a rank in a
    lower bin is lower."""
    mantissa, octave = np.frexp(np.add(ranks, 1.0))
    return 4 * octave + (8 * mantissa).astype(np.int64) - 8


class _RecordFold:
    """Prefix-max records of draw rows, from blocks of pairs taken in any order.

    Each block is folded on its own, its columns sorted by ascending |T|
    rank, into its own records: the candidates.  The fold of a segment starts
    at the row's largest candidate in the bins of ranks before the segment's
    (``peaks``; see :func:`_rank_bins`), as a value at or below it is no record.
    Once the candidates held pass ``_HELD_CANDIDATES`` and twice the records
    last merged, they are merged into the records of the pairs seen so far,
    so they stay bounded for any block order.
    """

    def __init__(self, order: np.ndarray, draws: int):
        self.order, self.draws, self.m = order, draws, order.size
        self.rank = np.empty(self.m, dtype=np.int32)
        self.rank[order] = np.arange(self.m)
        # peaks[b, row]: the row's largest candidate at ranks in bin b.
        self.peaks = np.full((_rank_bins(self.m - 1) + 1, draws), -np.inf)
        self.index = np.arange(draws)
        self.seen = np.zeros(draws, dtype=bool)  # the rows with candidates
        self.held, self.count, self.merged, self.pairs = [], 0, 0, None

    def add(self, rows, pairs, block) -> None:
        if block is None:  # these rows are drawn again: forget their candidates
            kept = np.ones(self.draws, dtype=bool)
            kept[rows] = False
            self.held = [tuple(v[kept[r]] for v in (r, q, x)) for r, q, x in self.held]
            self.peaks[:, rows], self.seen[rows] = -np.inf, False
            return
        index = self.index[rows]
        if pairs != self.pairs:  # the ranks of the block's pairs, ascending, and their bins
            self.pairs, self.by_rank = pairs, np.argsort(self.rank[pairs])
            self.ranks = self.rank[pairs][self.by_rank]
            self.bins = _rank_bins(self.ranks)
        floor = None
        if self.seen[rows].any():  # each segment's floor: the peaks of the bins before its own
            starts = self.bins[::_SEGMENT].tolist()
            floor, run, done = np.empty((len(starts), index.size)), np.full(index.size, -np.inf), 0
            for segment, b in enumerate(starts):
                if b > done:
                    np.maximum(run, self.peaks[done:b, rows].max(axis=0), out=run)
                    done = b
                floor[segment] = run
        local, at, values = _fold_records(block.T[self.by_rank], np.full(index.size, -np.inf),
                                          floor=floor)
        np.maximum.at(self.peaks, (self.bins[at], index[local]), values)
        self.seen[rows] = True
        self.held.append((index[local], self.ranks[at], values))
        self.count += local.size
        if self.count > max(_HELD_CANDIDATES, 2 * self.merged):
            self.held = [_strict_rises(self.held, self.m)]
            self.count = self.merged = self.held[0][0].size

    def result(self) -> MaxRecords:
        return _max_records(self.order, self.draws, self.held)


def _reduce_draws(blocks, kinds: tuple, single: bool, draws: int, m: int, stats=None,
                  stepdown: bool = True, label: str = "resampling", route_floats: float = 0.0):
    """A draw builder's result, reduced from its route's blocks of draws as they are made.

    ``blocks`` yields (kind, rows, pairs, block): ``block`` holds the draws
    of rows ``rows`` (a slice or indexes) on pairs ``pairs`` (a slice); it
    may be overwritten, and is not kept.  A block of None drops its rows,
    which the route draws again.  Without ``stats`` each kind's result is its
    B x m float64 array of draws.  Given ``stats`` (the StatVector of each
    kind, in the form of ``kind``; vectors that do not match the kinds and
    pairs are refused) it is its MaxRecords: for a single-step rule
    (``stepdown`` false) each row's max |draw| over all pairs, else the prefix
    maxima in ascending |T| order (a stable argsort).  Non-finite draws raise.

    Before it allocates or takes a block, it refuses, as ``label``, draws
    that exceed physical memory: per draw the route's ``route_floats`` and,
    per kind, a draw row of m floats, a row maximum, or about ln m + 1
    records of 3 words plus 4 fold peaks per octave of m.
    """
    if stats is None:
        held = draws * m
    elif stepdown:
        held = draws * (3 * (math.log(m) + 1) + 4 * math.log2(m) + 1) + 3 * _HELD_CANDIDATES
    else:
        held = draws
    _check_memory(label, draws * route_floats + len(set(kinds)) * held,
                  f"for {draws} draws at m={m}", "use fewer draws")
    if stats is None:
        out = {k: np.empty((draws, m)) for k in kinds}
    else:
        stats = (stats,) if single else tuple(stats)
        if tuple(sv.kind for sv in stats) != kinds or any(sv.m != m for sv in stats):
            raise ValueError("statistic vectors do not match the kinds and pairs of the draws")
        out = {sv.kind: _RecordFold(np.argsort(np.abs(sv.values), kind="stable"), draws)
               if stepdown else np.zeros(draws) for sv in stats}
    for k, rows, pairs, block in blocks:
        if stats is None:
            if block is not None:
                out[k][rows, pairs] = block
        elif stepdown:
            out[k].add(rows, pairs, block)
        else:
            out[k][rows] = 0.0 if block is None else \
                np.maximum(out[k][rows], np.abs(block, out=block).max(axis=1))
    for k, v in out.items():
        if stats is not None and stepdown:
            out[k] = v.result()
        elif not np.isfinite(v).all():
            raise ValueError("draw matrix contains non-finite entries")
        elif stats is not None:
            out[k] = MaxRecords(order=None, starts=np.arange(draws),
                                positions=np.zeros(draws, dtype=np.int32), values=v, m=m)
    return out[kinds[0]] if single else tuple(out[k] for k in kinds)


def _check_memory(label: str, floats: float, size: str, remedy: str) -> None:
    """ValueError when the ``floats`` float64 values that ``label`` holds exceed physical memory.

    The message reads "<label> needs about X GB <size>, more than the Y GB of
    physical memory; <remedy>".
    """
    try:
        available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return
    if 8 * floats > available:
        raise ValueError(f"{label} needs about {8 * floats / 1e9:.1f} GB {size}, more than the "
                         f"{available / 1e9:.1f} GB of physical memory; {remedy}")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def sidak_threshold(alpha: float, m: int) -> float:
    """Sidak critical value Phi^-1((1 - alpha)^(1/m) / 2 + 1/2).

    Computed as -Phi^-1(tail / 2) with tail = 1 - (1 - alpha)^(1/m) from
    ``expm1``/``log1p``, so a tiny tail loses no digits to cancellation; inf
    when tail / 2 underflows to 0.
    """
    _check_alpha(alpha)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    half_tail = -math.expm1(math.log1p(-alpha) / m) / 2.0
    return -_NORMAL.inv_cdf(half_tail) if half_tail > 0.0 else math.inf


def cholesky_psd(sigma: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a symmetric nearly-PSD matrix.

    Returns (L, eps) with L L^T = sigma + eps I, where eps is the smallest
    rung of the jitter ladder (multiples of the max diagonal) at which
    factorization succeeds.  Raises NotPositiveDefiniteError if even the
    largest jitter fails, or if sigma is not square, holds a non-finite entry
    or is not symmetric.  Sigma itself is factored at jitter 0; a positive
    jitter goes on the diagonal of one copy.  The finiteness and symmetry
    checks read row blocks and column blocks, so no m x m temporary is built.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise NotPositiveDefiniteError("matrix is not square")
    m = sigma.shape[0]
    rows = max(1, _SCAN_ENTRIES // max(m, 1))
    for a in range(0, m, rows):
        block, mirror = sigma[a : a + rows], sigma[:, a : a + rows].T
        if not (np.isfinite(block).all() and np.isfinite(mirror).all()):
            raise NotPositiveDefiniteError("matrix contains non-finite entries")
        if not np.allclose(block, mirror, atol=1e-8):
            raise NotPositiveDefiniteError("matrix is not symmetric")
    diag = sigma.diagonal()
    scale = float(np.max(diag)) if sigma.size else 1.0
    if scale <= 0.0:
        scale = 1.0
    work = sigma
    for jitter in _JITTERS:
        if jitter:
            if work is sigma:
                work = sigma.copy()
            np.fill_diagonal(work, diag + jitter * scale)
        try:
            return np.linalg.cholesky(work), jitter * scale
        except np.linalg.LinAlgError:
            continue
    raise NotPositiveDefiniteError(
        "matrix is not positive semi-definite (Cholesky failed at all jitters)"
    )


def _subset_array(subset, m: int) -> np.ndarray:
    """Sorted distinct pair indexes; a mask or floats, read as indexes, would name other pairs."""
    if subset is None:
        return np.arange(m)
    idx = np.asarray(subset)
    if idx.size == 0:
        raise ValueError("subset must be non-empty")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"subset must hold integer pair indexes, got dtype {idx.dtype}")
    idx = np.unique(idx)
    if idx[0] < 0 or idx[-1] >= m:
        raise IndexError(f"subset indexes out of range [0, {m})")
    return idx


def _max_quantile(maxima: np.ndarray, alpha: float) -> float:
    _check_alpha(alpha)
    rank = math.ceil((1.0 - alpha) * maxima.size)
    return float(np.partition(maxima, rank - 1)[rank - 1])


def quantile_from_draws(draws: np.ndarray, alpha: float, subset=None) -> float:
    """(1 - alpha)-quantile of the subset-restricted rowwise max-abs draw.

    ``draws`` is a B x m array.  Order statistic of rank ceil((1 - alpha) B).
    Reusing one array across nested subsets makes the result exactly
    monotone in the subset.  The maxima run over column chunks, so no
    B x |subset| copy is made; a non-finite draw in the subset is refused.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2 or 0 in draws.shape:
        raise ValueError("draw matrix must be B x m with B, m >= 1")
    idx = _subset_array(subset, draws.shape[1])
    maxima, cols = np.zeros(draws.shape[0]), max(1, _SCAN_ENTRIES // draws.shape[0])
    for a in range(0, idx.size, cols):
        np.maximum(maxima, np.abs(draws[:, idx[a : a + cols]]).max(axis=1), out=maxima)
    if not np.isfinite(maxima).all():
        raise ValueError("draw matrix contains non-finite entries")
    return _max_quantile(maxima, alpha)


def max_gauss_quantile(
    sigma: np.ndarray, alpha: float, draws: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo (1-alpha)-quantile of the sup-norm of N_m(0, Sigma).

    Returns (threshold, jitter).  Simulates ``draws`` i.i.d. vectors L xi from
    ``rng``, with L L^T = Sigma + jitter I from :func:`cholesky_psd`, in blocks of
    ``_BLOCK_ENTRIES`` (part of the seed contract), keeping only their rowwise
    maxima, so B is not limited by the memory of a B x m matrix.  Alpha, the
    draw count and the memory of the maxima (held twice) are checked first.
    """
    _check_alpha(alpha)
    if draws < _MIN_GAUSS_DRAWS:
        raise ValueError(f"need at least {_MIN_GAUSS_DRAWS} draws, got {draws}")
    _check_memory("quantile", 2 * draws,
                  f"for {draws} draws at m={np.shape(sigma)[0] if np.ndim(sigma) else 1}",
                  "use fewer draws")
    factor, jitter = cholesky_psd(sigma)
    width = factor.shape[1]
    rows = max(1, _BLOCK_ENTRIES // max(width, 1))
    return _max_quantile(np.concatenate([
        np.abs(rng.standard_normal((min(rows, draws - a), width)) @ factor.T).max(axis=1)
        for a in range(0, draws, rows)
    ]), alpha), jitter


def bootstrap_draw_matrix(
    samples: SampleMatrix,
    kind: StatKind | tuple[StatKind, ...],
    draws: int,
    rng: np.random.Generator,
    stats=None,
    stepdown: bool = True,
) -> np.ndarray | MaxRecords | tuple:
    """B centered statistic vectors on nonparametric resamples of the rows.

    Each resample takes n rows i.i.d. with replacement from ``rng``; the
    statistic is centered at the full-sample estimate (Romano-Wolf convention)
    so the resampled law approximates the null law of the statistic.  The moments of
    all resamples are GEMMs of their count weights W against the standardized
    sample, one pair block x_c x_{c+1..p} at a time.  Degenerate resamples
    (see ``_DEGENERATE``) are redrawn from the same stream after the batch;
    more than B redraws raise DegenerateInputError.

    ``kind`` is one StatKind, which returns one result, or a tuple of kinds,
    which returns one result per kind, in that order, from one W.  The
    empirical, Student and Fisher kinds share each block's resampled
    correlations; the second-order kind runs its own moment GEMM.  A
    degenerate resample is redrawn for every kind, so each kind's draws equal
    those of a single-kind call on the same stream unless a second-order
    theta forced a redraw; with a tuple of one kind they always do.

    The result is the B x m float64 array of draws, or, given ``stats`` (the
    StatVector of each kind, in the same form as ``kind``), a MaxRecords of
    the same draws, with no B x m array held (see ``_reduce_draws``): the
    form :func:`~corrgraph.procedures.run_procedure` reads.  A degenerate
    resample's draws are dropped, and its redraw's take their place.
    """
    kinds, single = _kind_tuple(kind)
    if draws < _MIN_BOOTSTRAP_DRAWS:
        raise ValueError(f"need at least {_MIN_BOOTSTRAP_DRAWS} bootstrap draws, got {draws}")
    # Per draw row: W with its index matrix and bincount, and 4 B x (p - 1) block temporaries.
    return _reduce_draws(_bootstrap_blocks(samples, kinds, draws, rng), kinds, single, draws,
                         samples.m, stats, stepdown, "bootrw", 3 * samples.n + 4 * (samples.p - 1))


def _bootstrap_blocks(samples: SampleMatrix, kinds: tuple, draws: int, rng: np.random.Generator):
    """Yield the bootstrap's blocks of draws, in :func:`_reduce_draws` form: the
    pair blocks of each batch of resamples, then its degenerate rows to drop."""
    n = samples.n
    # Standardized on the full sample, resample means are O(n^-1/2): E[x^2] - mu^2 cannot cancel.
    x = standardize(samples).data
    plain = [k for k in dict.fromkeys(kinds) if k is not StatKind.SECOND_ORDER]
    t_hat = {}
    if plain:
        rho_hat = _correlation(samples).pair_values()
        t_hat = {k: _transform(rho_hat, n, k) for k in plain}
    todo, redraws = np.arange(draws), 0
    while todo.size:
        w = _count_weights(rng, todo.size, n)
        mu, m2 = np.split(w @ np.hstack([x, x * x]), 2, axis=1)
        var = m2 - mu * mu
        bad = np.any(var <= _DEGENERATE, axis=1)
        inv_sd = 1.0 / np.sqrt(np.maximum(var, _DEGENERATE))
        rows = slice(None) if todo.size == draws else todo  # all rows: a slice writes faster
        yield from _block_draws(x, w, (mu, m2, inv_sd), kinds, t_hat, bad, rows)
        todo = todo[bad]
        redraws += todo.size
        if redraws > draws:
            raise DegenerateInputError("too many degenerate bootstrap resamples")
        if todo.size:
            for k in kinds:
                yield k, todo, None, None


def _count_weights(rng: np.random.Generator, draws: int, n: int) -> np.ndarray:
    """W (draws x n): how often each sample row is taken in each resample, over n."""
    take = rng.integers(0, n, size=(draws, n))
    take += n * np.arange(draws)[:, None]
    return np.bincount(take.ravel(), minlength=take.size).reshape(take.shape) / n


def _block_draws(x, w, moments, kinds, t_hat, bad, rows):
    """Yield (kind, rows, pairs, draws) for the pair blocks x_c x_{c+1..p}.

    ``moments`` are the resamples' (mu, E x^2, 1/sd), each B x p; the draws
    are B x (pairs in the block).  A degenerate second-order theta is or-ed
    into ``bad``.
    """
    mu, m2, inv_sd = moments
    n, p = x.shape
    plain = [k for k in dict.fromkeys(kinds) if k is not StatKind.SECOND_ORDER]
    for c in range(p - 1):
        pairs = slice(c * (2 * p - c - 1) // 2, (c + 1) * (2 * p - c - 2) // 2)
        xc, rest, mc, mr = x[:, c : c + 1], x[:, c + 1 :], mu[:, c : c + 1], mu[:, c + 1 :]
        z = xc * rest
        scale = inv_sd[:, c : c + 1] * inv_sd[:, c + 1 :]
        if plain:
            r = (w @ z - mc * mr) * scale
            for k in plain:
                yield k, rows, pairs, _transform(r, n, k) - t_hat[k][pairs]
        if StatKind.SECOND_ORDER in kinds:
            # Its first block is not reused for the kinds above: it differs from
            # w @ z in the last bits, and their draws must equal single-kind calls.
            block, degenerate = _second_order_draws(
                np.split(w @ np.hstack([z, xc * z, z * rest, z * z]), 4, 1), mc, mr,
                m2[:, c : c + 1], m2[:, c + 1 :], scale, z.mean(axis=0), n)
            bad |= degenerate.any(axis=1)
            yield StatKind.SECOND_ORDER, rows, pairs, block


def _second_order_draws(moments, mc, mr, m2c, m2r, scale, zbar, n):
    """(centered second-order draws, degenerate-theta mask) of a block of pairs (c, r).

    ``moments`` are the resampled E[z], E[x_c z], E[z x_r] and E[z^2] of
    z = x_c x_r; ``zbar`` is the full-sample mean of z.
    """
    e_z, e_cz, e_zr, e_zz = moments
    r = (e_z - mc * mr) * scale
    # theta = E[(x_c - mu_c)^2 (x_r - mu_r)^2] / (v_c v_r) - r^2, from raw moments.
    fourth = e_zz - 2.0 * (mr * e_cz + mc * e_zr) + mc * mr * (4.0 * e_z - 3.0 * mc * mr)
    fourth += mr * mr * m2c + mc * mc * m2r
    theta = fourth * scale * scale - r * r
    degenerate = theta <= _DEGENERATE
    theta = np.maximum(theta, _DEGENERATE)
    return np.sqrt(n) * (r - zbar) / np.sqrt(theta), degenerate


def gauss_draw_matrix(corr, kind: StatKind | tuple[StatKind, ...], draws: int,
                      rng: np.random.Generator, sample=None, stats=None,
                      stepdown: bool = True) -> np.ndarray | MaxRecords | tuple:
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
    mapped per kind, so each kind's draws, a tuple of one kind's too, equal
    those of a single-kind call on the same stream.  The result is the
    B x m float64 array of draws, or, given ``stats`` (the StatVector of each
    kind, in the same form as ``kind``), a MaxRecords of the same draws, with
    no B x m array held (see ``_reduce_draws``): the form
    :func:`~corrgraph.procedures.run_procedure` reads.

    ``corr`` is a CorrelationMatrix, or an array that is made one, so an
    array that is not a correlation matrix is refused with a ValueError.
    """
    kinds, single = _kind_tuple(kind)
    if draws < _MIN_GAUSS_DRAWS:
        raise ValueError(f"need at least {_MIN_GAUSS_DRAWS} draws, got {draws}")
    corr = (corr if isinstance(corr, CorrelationMatrix) else CorrelationMatrix(corr)).values
    if corr.shape[0] < 2:
        raise ValueError(f"need at least 2 variables, got p={corr.shape[0]}")
    blocks = (_perturbation_blocks(corr, kinds, draws, rng) if sample is None
              else _multiplier_blocks(corr, sample, kinds, draws, rng))
    with contextlib.closing(blocks):  # held per fourth-moment draw: xi and 4 chunk columns
        return _reduce_draws(blocks, kinds, single, draws, num_pairs(corr.shape[0]),
                             stats, stepdown, "maxt",
                             0 if sample is None else sample.n + 4 * _PAIR_CHUNK)


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
