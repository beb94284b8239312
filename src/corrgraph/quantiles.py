"""Rejection thresholds: Sidak constants and resampled max-statistic quantiles.

A ``DrawMatrix`` holds B simulated statistic vectors whose rowwise sup-norm
is the max statistic.  Two Monte Carlo routes fill one:

- ``procedures._gauss_draw_matrix`` draws from N_m(0, Sigma) (parametric
  route, Sigma a plug-in or oracle pair covariance) in blocks from
  :func:`_gauss_draws`;
- :func:`bootstrap_draw_matrix` recomputes centered statistics on
  nonparametric resamples of the data.  The B resamples come from one
  ``integers(0, n, (B, n))`` draw, which yields the same indices, in order, as
  B successive draws of n.  Their count weights W (B x n) make every resample
  moment a GEMM of W against the standardized sample, with no loop over
  resamples.  A resample whose column variance is at most ``_DEGENERATE``
  times the full-sample variance (or, for the second-order kind, whose theta
  is at most ``_DEGENERATE``) is redrawn from the same stream.

:func:`quantile_from_draws` reads the empirical (1 - alpha)-quantile as the
order statistic of rank ceil((1 - alpha) B), a conservative right-continuous
convention.  Step-down procedures re-read it on shrinking pair subsets of the
*same* DrawMatrix, which makes subset monotonicity exact (not just
statistical) and the step-down iteration deterministic.
:func:`max_gauss_quantile` streams the Gaussian blocks and keeps only their
rowwise maxima, for a single threshold at a B too large to store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .core import SampleMatrix, empirical_correlation, standardize
from .errors import DegenerateInputError, NotPositiveDefiniteError
from .rng import make_rng
from .stats import StatKind, _transform

__all__ = [
    "QuantileEstimate",
    "DrawMatrix",
    "sidak_threshold",
    "cholesky_psd",
    "max_gauss_quantile",
    "bootstrap_draw_matrix",
    "quantile_from_draws",
]

# Jitter ladder for nearly-PSD matrices, as multiples of the max diagonal.
_JITTERS = (0.0, 1e-12, 1e-10, 1e-8)

# Entries per block of Gaussian draws (32 MB of float64).
_BLOCK_ENTRIES = 1 << 22

# Smallest accepted draw counts: bootstrap resamples and Gaussian draws.
_MIN_BOOTSTRAP_DRAWS = 50
_MIN_GAUSS_DRAWS = 100

# A bootstrap resample is degenerate when a column variance, relative to the
# full-sample variance, or a second-order theta is at most this value.
_DEGENERATE = 1e-10


@dataclass(frozen=True)
class DrawMatrix:
    """B x m matrix of simulated/resampled statistic vectors.

    provenance is "parametric-gaussian" or "nonparametric-bootstrap".  A
    float64 ndarray that owns its data is taken over, not copied: it is
    marked read-only in place.  Any other input is copied first.
    """

    draws: np.ndarray
    provenance: str

    def __post_init__(self):
        draws = self.draws
        if not (isinstance(draws, np.ndarray) and draws.dtype == np.float64
                and draws.flags.owndata):
            draws = np.array(draws, dtype=float)
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


@dataclass(frozen=True)
class QuantileEstimate:
    """A max-statistic threshold with the metadata needed to reproduce it."""

    value: float
    alpha: float
    draws: int
    seed: int | None
    jitter: float


def sidak_threshold(alpha: float, m: int) -> float:
    """Sidak critical value Phi^-1((1 - alpha)^(1/m) / 2 + 1/2)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return float(ndtri(0.5 * (1.0 - alpha) ** (1.0 / m) + 0.5))


def cholesky_psd(sigma: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a symmetric nearly-PSD matrix.

    Returns (L, eps) with L L^T = sigma + eps I, where eps is the smallest
    rung of the jitter ladder (multiples of the max diagonal) at which
    factorization succeeds.  Raises NotPositiveDefiniteError if even the
    largest jitter fails.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise NotPositiveDefiniteError("matrix is not square")
    if not np.allclose(sigma, sigma.T, atol=1e-8):
        raise NotPositiveDefiniteError("matrix is not symmetric")
    scale = float(np.max(np.diag(sigma))) if sigma.size else 1.0
    if scale <= 0.0:
        scale = 1.0
    for jitter in _JITTERS:
        try:
            factor = np.linalg.cholesky(sigma + (jitter * scale) * np.eye(sigma.shape[0]))
            return factor, jitter * scale
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
    """
    idx = _subset_array(subset, draw_matrix.m)
    return _max_quantile(np.abs(draw_matrix.draws[:, idx]).max(axis=1), alpha)


def _gauss_draws(factor: np.ndarray, draws: int, rng: np.random.Generator):
    """Blocks of xi @ factor.T, ``draws`` rows in all, xi i.i.d. standard normal.

    With factor a Cholesky factor L of Sigma, each row is a
    draw from N(0, L L^T).  The blocks consume one standard-normal stream in
    order, so the rows do not depend on the block size.
    """
    if draws < _MIN_GAUSS_DRAWS:
        raise ValueError(f"need at least {_MIN_GAUSS_DRAWS} draws, got {draws}")
    width = factor.shape[1]
    rows = max(1, _BLOCK_ENTRIES // max(width, 1))
    return (rng.standard_normal((min(rows, draws - start), width)) @ factor.T
            for start in range(0, draws, rows))


def max_gauss_quantile(
    sigma: np.ndarray, alpha: float, draws: int, seed: int | None = 0
) -> QuantileEstimate:
    """Monte Carlo (1-alpha)-quantile of the sup-norm of N_m(0, Sigma).

    Simulates ``draws`` i.i.d. vectors L xi with L from :func:`cholesky_psd`,
    keeping only their rowwise maxima block by block, so B is not limited by
    the memory of a B x m matrix.
    """
    factor, jitter = cholesky_psd(sigma)
    rng = make_rng(seed if seed is not None else 0)
    blocks = _gauss_draws(factor, draws, rng)
    value = _max_quantile(np.concatenate([np.abs(b).max(axis=1) for b in blocks]), alpha)
    return QuantileEstimate(value=value, alpha=alpha, draws=draws, seed=seed, jitter=jitter)


def bootstrap_draw_matrix(
    samples: SampleMatrix,
    kind: StatKind,
    draws: int,
    seed: int | None = 0,
    rng: np.random.Generator | None = None,
) -> DrawMatrix:
    """B centered statistic vectors on nonparametric resamples of the rows.

    Each resample takes n rows i.i.d. with replacement; the statistic is
    centered at the full-sample estimate (Romano-Wolf convention) so the
    resampled law approximates the null law of the statistic.  The moments of
    all resamples are GEMMs of their count weights W against the standardized
    sample, one pair block x_c x_{c+1..p} at a time.  Degenerate resamples
    (see ``_DEGENERATE``) are redrawn from the same stream after the batch;
    more than B redraws raise DegenerateInputError.
    """
    kind = StatKind(kind)
    if draws < _MIN_BOOTSTRAP_DRAWS:
        raise ValueError(f"need at least {_MIN_BOOTSTRAP_DRAWS} bootstrap draws, got {draws}")
    n, p = samples.n, samples.p
    # Standardized on the full sample, resample means are O(n^-1/2): E[x^2] - mu^2 cannot cancel.
    x = standardize(samples).data
    if kind is not StatKind.SECOND_ORDER:
        t_hat = _transform(empirical_correlation(samples).pair_values(), n, kind)
    if rng is None:
        rng = make_rng(seed if seed is not None else 0)
    rows = np.empty((draws, samples.m))
    todo, redraws = np.arange(draws), 0
    while todo.size:
        take = rng.integers(0, n, size=(todo.size, n))
        take += n * np.arange(todo.size)[:, None]
        w = np.bincount(take.ravel(), minlength=take.size).reshape(take.shape) / n
        mu, m2 = np.split(w @ np.hstack([x, x * x]), 2, axis=1)
        var = m2 - mu * mu
        bad = np.any(var <= _DEGENERATE, axis=1)
        inv_sd = 1.0 / np.sqrt(np.maximum(var, _DEGENERATE))
        for c in range(p - 1):
            lo, hi = c * (2 * p - c - 1) // 2, (c + 1) * (2 * p - c - 2) // 2
            xc, rest, mc, mr = x[:, c : c + 1], x[:, c + 1 :], mu[:, c : c + 1], mu[:, c + 1 :]
            z = xc * rest
            scale = inv_sd[:, c : c + 1] * inv_sd[:, c + 1 :]
            if kind is not StatKind.SECOND_ORDER:
                rows[todo, lo:hi] = _transform((w @ z - mc * mr) * scale, n, kind) - t_hat[lo:hi]
                continue
            e_z, e_cz, e_zr, e_zz = np.split(w @ np.hstack([z, xc * z, z * rest, z * z]), 4, 1)
            r = (e_z - mc * mr) * scale
            # theta = E[(x_c - mu_c)^2 (x_r - mu_r)^2] / (v_c v_r) - r^2, from raw moments.
            fourth = e_zz - 2.0 * (mr * e_cz + mc * e_zr) + mc * mr * (4.0 * e_z - 3.0 * mc * mr)
            fourth += mr * mr * m2[:, c : c + 1] + mc * mc * m2[:, c + 1 :]
            theta = fourth * scale * scale - r * r
            bad |= np.any(theta <= _DEGENERATE, axis=1)
            theta = np.maximum(theta, _DEGENERATE)
            rows[todo, lo:hi] = np.sqrt(n) * (r - z.mean(axis=0)) / np.sqrt(theta)
        todo = todo[bad]
        redraws += todo.size
        if redraws > draws:
            raise DegenerateInputError("too many degenerate bootstrap resamples")
    return DrawMatrix(rows, provenance="nonparametric-bootstrap")
