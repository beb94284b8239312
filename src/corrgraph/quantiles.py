"""Rejection thresholds: Sidak constants and resampled max-statistic quantiles.

:func:`sidak_threshold` inverts the normal tail with the standard library's
``statistics.NormalDist().inv_cdf`` (Wichura's AS 241, about 1e-16 relative).

A ``DrawMatrix`` holds B simulated statistic vectors whose rowwise sup-norm
is the max statistic.  Two Monte Carlo routes fill one:

- ``procedures.gauss_draw_matrix`` draws from the Gaussian limit N_m(0, Omega)
  of the statistics (plug-in, oracle or fourth-moment Omega) without forming
  Omega: each row is a delta map of a p x p perturbation;
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
a second-order theta forced a shared redraw).

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
row maxima, in place of the B x m draws: both builders, given the statistic
vectors and whether a step-down will run, reduce each block of their draws
as it is made, and :meth:`MaxRecords.quantile` returns what
:func:`quantile_from_draws` returns on the same prefix.  A ``DrawMatrix``
and :func:`quantile_from_draws`, for arbitrary subsets, stay as the library
API for small m.

:func:`max_gauss_quantile` (``corrgraph quantile``, any m x m Sigma) factors
Sigma with :func:`cholesky_psd` and streams Gaussian blocks, keeping only
their rowwise maxima, for a single threshold at a B too large to store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import SampleMatrix, _correlation, _owned_array, pair_indices, standardize
from .errors import DegenerateInputError, NotPositiveDefiniteError
from .rng import make_rng
from .stats import _PAIR_CHUNK, StatKind, _kind_tuple, _transform

__all__ = [
    "QuantileEstimate",
    "DrawMatrix",
    "MaxRecords",
    "sidak_threshold",
    "cholesky_psd",
    "max_gauss_quantile",
    "bootstrap_draw_matrix",
    "quantile_from_draws",
]

_NORMAL = NormalDist()

# Jitter ladder for nearly-PSD matrices, as multiples of the max diagonal.
_JITTERS = (0.0, 1e-12, 1e-10, 1e-8)

# Entries per block of Gaussian draws in max_gauss_quantile (32 MB of float64).
_BLOCK_ENTRIES = 1 << 22

# Entries per block of a blockwise scan (512 kB): the row blocks of the
# symmetry check in cholesky_psd and the column chunks of quantile_from_draws.
_SCAN_ENTRIES = 1 << 16

# Positions per segment of the first pass of _fold_records.
_SEGMENT = 16

# Entries of a buffer of draws that one fold into records reads (4 MB; all the
# draws when B x m is smaller).  At p=26, B=1000 a 512 kB buffer was slower
# for Gaussian max-T: more fold calls, and about 500 page faults per call as
# the allocator returned freed heap memory between calls.
_FOLD_ENTRIES = 1 << 19

# Smallest accepted draw counts: bootstrap resamples and Gaussian draws.
_MIN_BOOTSTRAP_DRAWS = 50
_MIN_GAUSS_DRAWS = 100

# A bootstrap resample is degenerate when a column variance, relative to the
# full-sample variance, or a second-order theta is at most this value.
_DEGENERATE = 1e-10


@dataclass(frozen=True, eq=False)
class DrawMatrix:
    """B x m matrix of simulated/resampled statistic vectors.

    provenance is "parametric-gaussian" or "nonparametric-bootstrap".  A
    float64 ndarray that owns its data is taken over, not copied: it is
    marked read-only in place.  Any other input is copied first.
    """

    draws: np.ndarray
    provenance: str

    def __post_init__(self):
        draws = _owned_array(self.draws)
        if draws.ndim != 2 or draws.shape[0] < 1:
            raise ValueError("draw matrix must be B x m with B >= 1")
        if not np.isfinite(draws).all():
            raise ValueError("draw matrix contains non-finite entries")
        draws.flags.writeable = False
        object.__setattr__(self, "draws", draws)

    @property
    def b(self) -> int:
        return self.draws.shape[0]

    @property
    def m(self) -> int:
        return self.draws.shape[1]


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

    @property
    def b(self) -> int:
        return self.starts.size

    def quantile(self, alpha: float, length: int) -> float:
        """:func:`quantile_from_draws` on the pairs ``order[:length]``.

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


def _fold_records(a: np.ndarray, carry: np.ndarray, row0: int = 0, col0: int = 0) -> tuple:
    """(rows, positions, values) of the records in one block of draws.

    ``a`` holds the block positions by rows: positions ``col0..`` of the |T|
    order of draw rows ``row0..``.  A C-ordered ``a`` is overwritten with its
    absolute values.  ``carry`` holds each row's running max of |draw| before
    ``col0`` (-inf at position 0), and is advanced in place.  A first pass
    takes the max of each ``_SEGMENT`` positions; only the segments whose
    max passes the running max can hold a record, and only they are
    scanned.  A NaN or an infinity reaches the carried max, so it is caught
    there.
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
    return rows + row0, positions + col0, flat.take(positions * k + rows)


def _max_records(order: np.ndarray, draws: int, parts: list) -> MaxRecords:
    """The MaxRecords of ``draws`` rows from the :func:`_fold_records` parts of their blocks."""
    rows, positions, values = (np.concatenate(column) for column in zip(*parts))
    by_row = np.argsort(rows * order.size + positions)
    return MaxRecords(order=order, starts=np.searchsorted(rows[by_row], np.arange(draws)),
                      positions=positions[by_row].astype(np.int32), values=values[by_row],
                      m=order.size)


def _row_maxima(maxima: np.ndarray, m: int) -> MaxRecords:
    """The single-step MaxRecords of draw rows with these maxima of |draw| over m pairs."""
    if not np.isfinite(maxima).all():
        raise ValueError("draw matrix contains non-finite entries")
    return MaxRecords(order=None, starts=np.arange(maxima.size),
                      positions=np.zeros(maxima.size, dtype=np.int32), values=maxima, m=m)


@dataclass(frozen=True)
class QuantileEstimate:
    """A max-statistic threshold with the metadata needed to reproduce it."""

    value: float
    alpha: float
    draws: int
    seed: int | None
    jitter: float


def sidak_threshold(alpha: float, m: int) -> float:
    """Sidak critical value Phi^-1((1 - alpha)^(1/m) / 2 + 1/2).

    Computed as -Phi^-1(tail / 2) with tail = 1 - (1 - alpha)^(1/m) from
    ``expm1``/``log1p``, so a tiny tail loses no digits to cancellation; inf
    when tail / 2 underflows to 0.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    half_tail = -math.expm1(math.log1p(-alpha) / m) / 2.0
    return -_NORMAL.inv_cdf(half_tail) if half_tail > 0.0 else math.inf


def cholesky_psd(sigma: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a symmetric nearly-PSD matrix.

    Returns (L, eps) with L L^T = sigma + eps I, where eps is the smallest
    rung of the jitter ladder (multiples of the max diagonal) at which
    factorization succeeds.  Raises NotPositiveDefiniteError if even the
    largest jitter fails.  Sigma itself is factored at jitter 0; a positive
    jitter goes on the diagonal of one copy.  The symmetry check compares row
    blocks with column blocks, so no m x m temporary is built.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise NotPositiveDefiniteError("matrix is not square")
    m = sigma.shape[0]
    rows = max(1, _SCAN_ENTRIES // max(m, 1))
    if not all(np.allclose(sigma[a : a + rows], sigma[:, a : a + rows].T, atol=1e-8)
               for a in range(0, m, rows)):
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
    if subset is None:
        return np.arange(m)
    idx = np.unique(np.asarray(subset, dtype=int))
    if idx.size == 0:
        raise ValueError("subset must be non-empty")
    if idx[0] < 0 or idx[-1] >= m:
        raise IndexError(f"subset indexes out of range [0, {m})")
    return idx


def _max_quantile(maxima: np.ndarray, alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    rank = math.ceil((1.0 - alpha) * maxima.size)
    return float(np.partition(maxima, rank - 1)[rank - 1])


def quantile_from_draws(draw_matrix: DrawMatrix, alpha: float, subset=None) -> float:
    """(1 - alpha)-quantile of the subset-restricted rowwise max-abs draw.

    Order statistic of rank ceil((1 - alpha) B).  Reusing one DrawMatrix
    across nested subsets makes the result exactly monotone in the subset.
    The maxima run over column chunks, so no B x |subset| copy is made.
    """
    idx = _subset_array(subset, draw_matrix.m)
    maxima, cols = np.zeros(draw_matrix.b), max(1, _SCAN_ENTRIES // draw_matrix.b)
    for a in range(0, idx.size, cols):
        np.maximum(maxima, np.abs(draw_matrix.draws[:, idx[a : a + cols]]).max(axis=1), out=maxima)
    return _max_quantile(maxima, alpha)


def max_gauss_quantile(
    sigma: np.ndarray, alpha: float, draws: int, seed: int | None = 0
) -> QuantileEstimate:
    """Monte Carlo (1-alpha)-quantile of the sup-norm of N_m(0, Sigma).

    Simulates ``draws`` i.i.d. vectors L xi with L from :func:`cholesky_psd`
    in blocks of ``_BLOCK_ENTRIES`` (part of the seed contract), keeping only
    their rowwise maxima, so B is not limited by the memory of a B x m matrix.
    """
    factor, jitter = cholesky_psd(sigma)
    if draws < _MIN_GAUSS_DRAWS:
        raise ValueError(f"need at least {_MIN_GAUSS_DRAWS} draws, got {draws}")
    rng = make_rng(seed if seed is not None else 0)
    width = factor.shape[1]
    rows = max(1, _BLOCK_ENTRIES // max(width, 1))
    value = _max_quantile(np.concatenate([
        np.abs(rng.standard_normal((min(rows, draws - a), width)) @ factor.T).max(axis=1)
        for a in range(0, draws, rows)
    ]), alpha)
    return QuantileEstimate(value=value, alpha=alpha, draws=draws, seed=seed, jitter=jitter)


def _pair_orders(stats, kinds: tuple, single: bool, m: int, stepdown: bool) -> list:
    """Each kind's pairs by ascending |T| (a stable argsort), or Nones for a single-step rule.

    ``stats`` is the StatVector of each kind, in the form of the builder's
    ``kind``; vectors that do not match the kinds and pairs are refused.
    """
    stats = (stats,) if single else tuple(stats)
    if tuple(sv.kind for sv in stats) != kinds or any(sv.m != m for sv in stats):
        raise ValueError("statistic vectors do not match the kinds and pairs of the draws")
    if not stepdown:
        return [None] * len(kinds)
    return [np.argsort(np.abs(sv.values), kind="stable") for sv in stats]


def bootstrap_draw_matrix(
    samples: SampleMatrix,
    kind: StatKind | tuple[StatKind, ...],
    draws: int,
    seed: int | None = 0,
    rng: np.random.Generator | None = None,
    stats=None,
    stepdown: bool = True,
) -> DrawMatrix | MaxRecords | tuple:
    """B centered statistic vectors on nonparametric resamples of the rows.

    Each resample takes n rows i.i.d. with replacement; the statistic is
    centered at the full-sample estimate (Romano-Wolf convention) so the
    resampled law approximates the null law of the statistic.  The moments of
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
    theta forced a redraw.

    The result is a DrawMatrix, or, given ``stats`` (the StatVector of each
    kind, in the same form as ``kind``), a MaxRecords, and no B x m matrix is
    held.  For a single-step rule (``stepdown`` false) they are each row's
    max |draw| over all pairs, from the same pair blocks, so from the same
    draw values.  For a step-down they are the prefix maxima in ascending |T|
    order, from chunks of ``_PAIR_CHUNK`` pairs taken in that order, pairs by
    rows; their GEMMs can differ from the pair blocks' in the last bits.  A
    degenerate resample's records are dropped, and its redraw's are folded in
    their place.
    """
    kinds, single = _kind_tuple(kind)
    if draws < _MIN_BOOTSTRAP_DRAWS:
        raise ValueError(f"need at least {_MIN_BOOTSTRAP_DRAWS} bootstrap draws, got {draws}")
    n, m = samples.n, samples.m
    orders = None if stats is None else _pair_orders(stats, kinds, single, m, stepdown)
    records = orders is not None and stepdown
    # Standardized on the full sample, resample means are O(n^-1/2): E[x^2] - mu^2 cannot cancel.
    x = standardize(samples).data
    plain = [k for k in dict.fromkeys(kinds) if k is not StatKind.SECOND_ORDER]
    t_hat = {}
    if plain:
        rho_hat = _correlation(samples).pair_values()
        t_hat = {k: _transform(rho_hat, n, k) for k in plain}
    if orders is None:
        rows = {k: np.empty((draws, m)) for k in kinds}
    elif not records:
        maxima = {k: np.empty(draws) for k in kinds}
    else:
        groups, parts = _order_groups(kinds, orders), {k: [] for k in kinds}
        xt = np.ascontiguousarray(x.T)
    if rng is None:
        rng = make_rng(seed if seed is not None else 0)
    todo, redraws = np.arange(draws), 0
    while todo.size:
        dest = slice(None) if todo.size == draws else todo  # all rows: a slice writes faster
        w = _count_weights(rng, todo.size, n)
        mu, m2 = np.split(w @ np.hstack([x, x * x]), 2, axis=1)
        var = m2 - mu * mu
        bad = np.any(var <= _DEGENERATE, axis=1)
        inv_sd = 1.0 / np.sqrt(np.maximum(var, _DEGENERATE))
        if records:
            carry = {k: np.full(todo.size, -np.inf) for k in kinds}
            folded = {k: [] for k in kinds}
            moments = [np.ascontiguousarray(v.T) for v in (mu, m2, inv_sd)]
            for k, a, block in _chunk_draws(xt, w, moments, groups, t_hat, bad):
                folded[k].append(_fold_records(block, carry[k], col0=a))
            for k in kinds:  # the records of rows to be redrawn are dropped
                for local, positions, values in folded[k]:
                    keep = ~bad[local]
                    parts[k].append((todo[local[keep]], positions[keep], values[keep]))
        elif orders is not None:
            top = {k: np.zeros(todo.size) for k in kinds}
            for k, _lo, _hi, block in _block_draws(x, w, (mu, m2, inv_sd), kinds, t_hat, bad):
                np.maximum(top[k], np.abs(block, out=block).max(axis=1), out=top[k])
            for k in kinds:
                maxima[k][dest] = top[k]
        else:
            for k, lo, hi, block in _block_draws(x, w, (mu, m2, inv_sd), kinds, t_hat, bad):
                rows[k][dest, lo:hi] = block
        todo = todo[bad]
        redraws += todo.size
        if redraws > draws:
            raise DegenerateInputError("too many degenerate bootstrap resamples")
    if orders is None:
        out = {k: DrawMatrix(v, provenance="nonparametric-bootstrap") for k, v in rows.items()}
    elif records:
        out = {k: _max_records(order, draws, parts[k]) for k, order in zip(kinds, orders)}
    else:
        out = {k: _row_maxima(v, m) for k, v in maxima.items()}
    return out[kinds[0]] if single else tuple(out[k] for k in kinds)


def _count_weights(rng: np.random.Generator, draws: int, n: int) -> np.ndarray:
    """W (draws x n): how often each sample row is taken in each resample, over n."""
    take = rng.integers(0, n, size=(draws, n))
    take += n * np.arange(draws)[:, None]
    return np.bincount(take.ravel(), minlength=take.size).reshape(take.shape) / n


def _order_groups(kinds: tuple, orders: list) -> list:
    """(order, kinds) pairs: the empirical, Student and Fisher kinds of one |T|
    order share its chunks (their statistics are increasing in r, so they
    mostly do); the second-order kind, with its own moments, is alone."""
    groups = []
    for k, order in dict(zip(kinds, orders)).items():
        for shared, members in groups:
            if StatKind.SECOND_ORDER not in (k, members[0]) and np.array_equal(order, shared):
                members.append(k)
                break
        else:
            groups.append((order, [k]))
    return groups


def _block_draws(x, w, moments, kinds, t_hat, bad):
    """Yield (kind, lo, hi, draws) for the pair blocks x_c x_{c+1..p}, pairs lo:hi.

    ``moments`` are the resamples' (mu, E x^2, 1/sd), each B x p; the draws
    are B x (hi - lo).  A degenerate second-order theta is or-ed into ``bad``.
    """
    mu, m2, inv_sd = moments
    n, p = x.shape
    plain = [k for k in dict.fromkeys(kinds) if k is not StatKind.SECOND_ORDER]
    for c in range(p - 1):
        lo, hi = c * (2 * p - c - 1) // 2, (c + 1) * (2 * p - c - 2) // 2
        xc, rest, mc, mr = x[:, c : c + 1], x[:, c + 1 :], mu[:, c : c + 1], mu[:, c + 1 :]
        z = xc * rest
        scale = inv_sd[:, c : c + 1] * inv_sd[:, c + 1 :]
        if plain:
            r = (w @ z - mc * mr) * scale
            for k in plain:
                yield k, lo, hi, _transform(r, n, k) - t_hat[k][lo:hi]
        if StatKind.SECOND_ORDER in kinds:
            # Its first block is not reused for the kinds above: it differs from
            # w @ z in the last bits, and their draws must equal single-kind calls.
            block, degenerate = _second_order_draws(
                np.split(w @ np.hstack([z, xc * z, z * rest, z * z]), 4, 1), mc, mr,
                m2[:, c : c + 1], m2[:, c + 1 :], scale, z.mean(axis=0), n)
            bad |= degenerate.any(axis=1)
            yield StatKind.SECOND_ORDER, lo, hi, block


def _chunk_draws(xt, w, moments, groups, t_hat, bad):
    """Yield (kind, a, draws) for the draws of each group's |T| order from
    position a on, pairs by rows, ``_FOLD_ENTRIES`` entries at most.

    They are made in chunks of ``_PAIR_CHUNK`` pairs, into one buffer per
    kind that is yielded when full.  ``xt`` is the standardized sample
    transposed (p x n), and ``moments`` the resamples' (mu, E x^2, 1/sd)
    transposed, each p x B, so a chunk's rows gather whole.  A degenerate
    second-order theta is or-ed into ``bad``.
    """
    mu, m2, inv_sd = moments
    (p, n), draws = xt.shape, w.shape[0]
    i, j = pair_indices(p)
    wt = w.T
    width = _PAIR_CHUNK * max(1, _FOLD_ENTRIES // (_PAIR_CHUNK * draws))
    for order, members in groups:
        buffers = {k: np.empty((min(width, order.size), draws)) for k in members}
        lefts, rights = i[order], j[order]
        centers = {k: t_hat[k][order] for k in members if k in t_hat}
        for a in range(0, order.size, _PAIR_CHUNK):
            left, right = lefts[a : a + _PAIR_CHUNK], rights[a : a + _PAIR_CHUNK]
            lo = a % width
            dest = slice(lo, lo + left.size)
            xc, xr, mc, mr = xt[left], xt[right], mu[left], mu[right]
            z = xc * xr
            scale = inv_sd[left]
            scale *= inv_sd[right]
            if members[0] is not StatKind.SECOND_ORDER:
                r = z @ wt
                r -= mc * mr
                r *= scale
                for k in members:
                    np.subtract(_transform(r, n, k), centers[k][a : a + _PAIR_CHUNK, None],
                                out=buffers[k][dest])
            else:
                buffers[members[0]][dest], degenerate = _second_order_draws(
                    np.split(np.vstack([z, xc * z, z * xr, z * z]) @ wt, 4), mc, mr,
                    m2[left], m2[right], scale, z.mean(axis=1)[:, None], n)
                bad |= degenerate.any(axis=0)
            if dest.stop == width or a + left.size == order.size:
                for k in members:
                    yield k, a - lo, buffers[k][: dest.stop]


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
