"""Rejection thresholds: Sidak constants and resampled max-statistic quantiles.

Two Monte Carlo routes produce a ``DrawMatrix`` of B simulated statistic
vectors whose rowwise sup-norm is the max statistic:

- :func:`max_gauss_quantile` draws from N_m(0, Sigma) (parametric route,
  Sigma a plug-in or oracle pair covariance);
- :func:`bootstrap_max_quantile` recomputes centered statistics on
  nonparametric resamples of the data.

Both return the empirical (1 - alpha)-quantile as the order statistic of
rank ceil((1 - alpha) B), a conservative right-continuous convention.
Step-down procedures re-evaluate the quantile on shrinking pair subsets from
the *same* stored DrawMatrix, which makes subset monotonicity exact (not
just statistical) and the step-down iteration deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .core import SampleMatrix, empirical_correlation, pair_indices, standardize
from .errors import DegenerateInputError, NotPositiveDefiniteError
from .rng import make_rng
from .stats import StatKind, _transform

__all__ = [
    "QuantileEstimate",
    "DrawMatrix",
    "sidak_threshold",
    "bonferroni_threshold",
    "cholesky_psd",
    "max_gauss_quantile",
    "bootstrap_max_quantile",
    "quantile_from_draws",
]

# Jitter ladder for nearly-PSD matrices, as multiples of the max diagonal.
_JITTERS = (0.0, 1e-12, 1e-10, 1e-8)

# Entries per block of Gaussian draws (32 MB of float64).
_BLOCK_ENTRIES = 1 << 22


@dataclass(frozen=True)
class DrawMatrix:
    """B x m matrix of simulated/resampled statistic vectors.

    provenance is "parametric-gaussian" or "nonparametric-bootstrap".
    """

    draws: np.ndarray
    provenance: str

    def __post_init__(self):
        draws = np.asarray(self.draws, dtype=float)
        if draws.ndim != 2 or draws.shape[0] < 1:
            raise ValueError("draw matrix must be B x m with B >= 1")
        if not np.all(np.isfinite(draws)):
            raise ValueError("draw matrix contains non-finite entries")
        draws = draws.copy()
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
    subset: tuple[int, ...]
    seed: int | None
    draw_matrix: DrawMatrix | None = None
    jitter: float | None = None


def bonferroni_threshold(alpha: float, m: int) -> float:
    """Two-sided statistic threshold equivalent to p <= alpha/m."""
    return float(-ndtri(alpha / (2 * m)))


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
    idx = np.asarray(sorted(set(int(s) for s in subset)), dtype=int)
    if idx.size == 0:
        raise ValueError("subset must be non-empty")
    if idx[0] < 0 or idx[-1] >= m:
        raise IndexError(f"subset indexes out of range [0, {m})")
    return idx


def _max_quantile(maxima: np.ndarray, alpha: float) -> float:
    rank = math.ceil((1.0 - alpha) * maxima.size)
    return float(np.sort(maxima)[rank - 1])


def quantile_from_draws(draw_matrix: DrawMatrix, alpha: float, subset=None) -> float:
    """(1 - alpha)-quantile of the subset-restricted rowwise max-abs draw.

    Order statistic of rank ceil((1 - alpha) B).  Reusing one DrawMatrix
    across nested subsets makes the result exactly monotone in the subset.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    idx = _subset_array(subset, draw_matrix.m)
    return _max_quantile(np.abs(draw_matrix.draws[:, idx]).max(axis=1), alpha)


def _gauss_draws(factor: np.ndarray, draws: int, rng: np.random.Generator):
    """Yield ``draws`` rows of xi @ factor.T, xi i.i.d. standard normal, in blocks.

    With factor a Cholesky factor L of Sigma (or rows of one), each row is a
    draw from N(0, L L^T).  The blocks consume one standard-normal stream in
    order, so the rows do not depend on the block size.
    """
    width = factor.shape[1]
    rows = max(1, _BLOCK_ENTRIES // max(width, 1))
    for start in range(0, draws, rows):
        yield rng.standard_normal((min(rows, draws - start), width)) @ factor.T


def max_gauss_quantile(
    sigma: np.ndarray,
    alpha: float,
    draws: int,
    subset=None,
    seed: int | None = 0,
    store_draws: bool = True,
) -> QuantileEstimate:
    """Monte Carlo (1-alpha)-quantile of the sup-norm of N_m(0, Sigma).

    Simulates ``draws`` i.i.d. vectors L xi with L from :func:`cholesky_psd`.
    With ``store_draws`` the DrawMatrix is kept on the estimate for
    step-down subset reuse; without it only the subset-restricted rowwise
    maxima are kept, block by block (for very large B the full matrix would
    not fit in memory).  Both consume the same stream and give the same value.
    """
    if draws < 100:
        raise ValueError(f"need at least 100 draws, got {draws}")
    sigma = np.asarray(sigma, dtype=float)
    idx = _subset_array(subset, sigma.shape[0])
    factor, jitter = cholesky_psd(sigma)
    rng = make_rng(seed if seed is not None else 0)
    dm = None
    if store_draws:
        dm = DrawMatrix(np.concatenate(list(_gauss_draws(factor, draws, rng))),
                        provenance="parametric-gaussian")
        value = quantile_from_draws(dm, alpha, idx)
    else:
        blocks = _gauss_draws(factor[idx], draws, rng)
        value = _max_quantile(np.concatenate([np.abs(b).max(axis=1) for b in blocks]), alpha)
    return QuantileEstimate(
        value=value,
        alpha=alpha,
        draws=draws,
        subset=tuple(int(v) for v in idx),
        seed=seed,
        draw_matrix=dm,
        jitter=jitter,
    )


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
    resampled law approximates the null law of the statistic.  Degenerate
    resamples (a zero-variance column) are redrawn; more than B redraws
    raise DegenerateInputError.
    """
    kind = StatKind(kind)
    if draws < 50:
        raise ValueError(f"need at least 50 bootstrap draws, got {draws}")
    n, p = samples.n, samples.p
    i, j = pair_indices(p)
    if kind is StatKind.SECOND_ORDER:
        x_full = standardize(samples).data
        z_full_mean = (x_full[:, i] * x_full[:, j]).mean(axis=0)
    else:
        t_hat = _transform(empirical_correlation(samples).pair_values(), n, kind)
    if rng is None:
        rng = make_rng(seed if seed is not None else 0)
    rows = np.empty((draws, i.size))
    redraws = 0
    b = 0
    while b < draws:
        take = rng.integers(0, n, size=n)
        x = samples.data[take]
        xc = x - x.mean(axis=0)
        norms = np.sqrt(np.einsum("ij,ij->j", xc, xc))
        if np.any(norms <= 0.0):
            redraws += 1
            if redraws > draws:
                raise DegenerateInputError(
                    "too many degenerate bootstrap resamples (zero-variance column)"
                )
            continue
        if kind is StatKind.SECOND_ORDER:
            xs = xc / xc.std(axis=0)
            z = xs[:, i] * xs[:, j]
            theta = z.var(axis=0)
            if np.any(theta <= 0.0):
                redraws += 1
                if redraws > draws:
                    raise DegenerateInputError(
                        "too many degenerate bootstrap resamples (zero theta)"
                    )
                continue
            rows[b] = np.sqrt(n) * (z.mean(axis=0) - z_full_mean) / np.sqrt(theta)
        else:
            corr = (xc.T @ xc) / np.outer(norms, norms)
            rows[b] = _transform(np.clip(corr[i, j], -1.0, 1.0), n, kind) - t_hat
        b += 1
    return DrawMatrix(rows, provenance="nonparametric-bootstrap")


def bootstrap_max_quantile(
    samples: SampleMatrix,
    kind: StatKind,
    alpha: float,
    draws: int,
    subset=None,
    seed: int | None = 0,
) -> QuantileEstimate:
    """Romano-Wolf bootstrap (1-alpha)-quantile of the max centered statistic."""
    dm = bootstrap_draw_matrix(samples, kind, draws, seed=seed)
    idx = _subset_array(subset, dm.m)
    value = quantile_from_draws(dm, alpha, idx)
    return QuantileEstimate(
        value=value,
        alpha=alpha,
        draws=draws,
        subset=tuple(int(v) for v in idx),
        seed=seed,
        draw_matrix=dm,
    )
