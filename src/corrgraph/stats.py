"""Correlation test statistics, asymptotic p-values and pair covariances.

Four statistics are supported for testing rho_ij = 0 on each variable pair,
all asymptotically standard normal under the null:

- ``empirical``:    sqrt(n) * r
- ``student``:      sqrt(n-2) * r / sqrt(1 - r^2)
- ``fisher``:       sqrt(n-3)/2 * log((1+r)/(1-r))
- ``secondorder``:  sqrt(n) * mean(Z) / sd(Z), with Z the per-observation
  products of the (internally standardized) centered columns

where r is the empirical Pearson correlation of the pair.

The joint asymptotic covariance Omega of each statistic vector is available
both in Gaussian closed form (:func:`omega_gaussian`, a function of the
correlation matrix alone) and as a fourth-moment plug-in valid for
non-Gaussian data (:func:`fourth_moments` + :func:`omega_general`).  The
plug-in is Omega = Psi^T Psi / n, one GEMM on the n x m matrix of the
influence values of r_ij at each observation, x_i x_j - r_ij (x_i^2 + x_j^2)/2
on the standardized columns; no p^4 moment array is formed.  The closed form
is one four-index formula in rho_ik, rho_il, rho_jk, rho_jl; it is exact for
pairs that share a variable and for identical pairs, so it needs no special
cases.  The Student and Fisher covariances rescale the empirical one by the
Delta method.  The max-T draws have these covariances but never form them.

The two-sided normal tail 2 Phi(-|t|) is the standard library's
``math.erfc(|t| / sqrt 2)``: relative error below 1e-12 for |t| <= 37
(tail ~1e-299), underflow to 0 past |t| ~ 38.5.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import CorrelationMatrix, SampleMatrix, _correlation, _owned_array, pair_indices
from .core import standardize
from .errors import DegenerateInputError, SingularityError

__all__ = [
    "StatKind",
    "StatVector",
    "PValueVector",
    "PairCovariance",
    "statistic",
    "p_values",
    "omega_gaussian",
    "fourth_moments",
    "omega_general",
]

# Correlations at magnitude >= 1 - SATURATION_EPS are clipped before the
# Student/Fisher transforms, so duplicated columns yield a huge finite
# statistic (p-value underflows to 0) instead of an infinity.
SATURATION_EPS = 1e-12

# Entries per chunk of n x k pair products in the second-order statistic
# (512 kB): k = max(1, _PRODUCT_ENTRIES // n) pairs, so the temporaries stay
# bounded at any n.  Each pair's mean and variance reduce over its own rows, so
# the values do not depend on k.
_PRODUCT_ENTRIES = 1 << 16


class StatKind(str, enum.Enum):
    EMPIRICAL = "empirical"
    STUDENT = "student"
    FISHER = "fisher"
    SECOND_ORDER = "secondorder"


def _kind_tuple(kind) -> tuple[tuple[StatKind, ...], bool]:
    """(kinds, single) for a draw builder's ``kind``: one StatKind or a sequence of them."""
    single = isinstance(kind, str)
    kinds = tuple(StatKind(k) for k in ((kind,) if single else kind))
    if not kinds:
        raise ValueError("need at least one statistic kind")
    return kinds, single


@dataclass(frozen=True, eq=False)
class StatVector:
    """Length-m vector of test statistics in flat pair order."""

    kind: StatKind
    values: np.ndarray
    n: int

    def __post_init__(self):
        values = _owned_array(self.values)
        if not np.all(np.isfinite(values)):
            raise ValueError("statistic vector contains non-finite entries")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class PValueVector:
    """Two-sided asymptotic p-values, p_i = 2 (1 - Phi(|T_i|))."""

    values: np.ndarray

    def __post_init__(self):
        values = _owned_array(self.values)
        if not np.all(np.isfinite(values)):
            raise ValueError("p-value vector contains non-finite entries")
        if np.any((values < 0.0) | (values > 1.0)):
            raise ValueError("p-values outside [0, 1]")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class PairCovariance:
    """m x m asymptotic covariance of a statistic vector, in pair order.

    A float64 ndarray that owns its data is taken over, not copied: it is
    marked read-only in place.  Any other input is copied first.
    """

    values: np.ndarray
    kind: StatKind
    source: str  # "gaussian-closed-form" | "fourth-moment-plugin" | "oracle"

    def __post_init__(self):
        values = _owned_array(self.values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("pair covariance must be square")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def _transform(rho: np.ndarray, n: int, kind: StatKind) -> np.ndarray:
    """Statistic of an empirical, Student or Fisher kind from correlations rho."""
    if kind is StatKind.EMPIRICAL:
        return np.sqrt(n) * rho
    r = np.clip(rho, -(1.0 - SATURATION_EPS), 1.0 - SATURATION_EPS)
    if kind is StatKind.STUDENT:
        return np.sqrt(n - 2) * r / np.sqrt(1.0 - r * r)
    return np.sqrt(n - 3) * np.arctanh(r)


def statistic(samples: SampleMatrix, kind: StatKind) -> StatVector:
    """Compute the length-m statistic vector of the given kind."""
    kind = StatKind(kind)
    n = samples.n
    if n < 4:
        raise ValueError(f"need n >= 4 observations for statistics, got n={n}")
    if kind is StatKind.SECOND_ORDER:
        return _second_order_statistic(samples)
    rho = _correlation(samples).pair_values()
    return StatVector(kind=kind, values=_transform(rho, n, kind), n=n)


def _second_order_statistic(samples: SampleMatrix) -> StatVector:
    n = samples.n
    x = standardize(samples).data
    i, j = pair_indices(samples.p)
    zbar, theta = np.empty(i.size), np.empty(i.size)
    width = _product_pairs(n)
    for a in range(0, i.size, width):
        pairs = slice(a, a + width)
        z = x[:, i[pairs]] * x[:, j[pairs]]
        zbar[pairs] = z.mean(axis=0)
        theta[pairs] = z.var(axis=0)
    bad = np.flatnonzero(theta <= 0.0)
    if bad.size:
        a, b = int(i[bad[0]]) + 1, int(j[bad[0]]) + 1
        raise DegenerateInputError(
            f"second-order variance estimate is zero for pair ({a}, {b})"
        )
    values = np.sqrt(n) * zbar / np.sqrt(theta)
    return StatVector(kind=StatKind.SECOND_ORDER, values=values, n=n)


def _product_pairs(n: int) -> int:
    """Pairs per chunk of the second-order statistic's n x k pair products."""
    return max(1, _PRODUCT_ENTRIES // max(n, 1))


def p_values(stats: StatVector) -> PValueVector:
    """Two-sided asymptotic p-values 2 (1 - Phi(|T|)), computed once per StatVector.

    The statistic values are read-only, so the cached vector cannot go stale.
    """
    pvals = stats.__dict__.get("_pvalues")
    if pvals is None:
        pvals = PValueVector(_two_sided_tail(stats.values))
        object.__setattr__(stats, "_pvalues", pvals)
    return pvals


def _two_sided_tail(t: np.ndarray) -> np.ndarray:
    """2 Phi(-|t|) = erfc(|t| / sqrt 2) of a 1-d array; 0 at +-inf."""
    a = np.abs(t) * math.sqrt(0.5)
    return np.fromiter(map(math.erfc, a.tolist()), float, count=a.size)


# ---------------------------------------------------------------------------
# Pair covariances
# ---------------------------------------------------------------------------

def omega_gaussian(gamma: CorrelationMatrix, kind: StatKind) -> PairCovariance:
    """Asymptotic m x m covariance of a statistic vector for Gaussian data.

    Entry (ij, kl) is a polynomial in rho_ij, rho_kl and the four cross
    correlations rho_ik, rho_il, rho_jk, rho_jl.  Student/Fisher kinds
    require all |rho_ij| < 1 strictly (the Delta-method rescaling is
    singular at unit correlation).
    """
    kind = StatKind(kind)
    g = gamma.values
    i, j = pair_indices(gamma.p)
    r = g[i, j]
    r_ik, r_il, r_jl = g[np.ix_(i, i)], g[np.ix_(i, j)], g[np.ix_(j, j)]
    r_jk = r_il.T  # gamma is exactly symmetric
    omega = r_ik * r_jl + r_il * r_jk
    if kind is not StatKind.SECOND_ORDER:
        r1, r2 = r[:, None], r[None, :]
        omega += 0.5 * r1 * r2 * (r_ik**2 + r_il**2 + r_jk**2 + r_jl**2)
        omega -= r1 * (r_ik * r_il + r_jk * r_jl)
        omega -= r2 * (r_ik * r_jk + r_il * r_jl)
    d = _delta_divisor(r, kind)
    omega /= d
    omega /= d[:, None]  # the rows as well as the columns
    return PairCovariance(omega, kind=kind, source="gaussian-closed-form")


def _delta_divisor(r: np.ndarray, kind: StatKind) -> np.ndarray:
    """What divides a limit draw (or covariance) of x_i x_j - r (x_i^2 + x_j^2)/2 into
    one of the ``kind`` statistic: the Delta derivative 1, (1 - r^2)^1.5 or 1 - r^2;
    for second-order, of x_i x_j - r, its Gaussian sd sqrt(1 + r^2)."""
    if kind is StatKind.SECOND_ORDER:
        return np.sqrt(1.0 + r * r)
    if kind is StatKind.EMPIRICAL:
        return np.ones_like(r)
    if np.any(np.abs(r) >= 1.0):
        raise SingularityError("unit correlation: Student/Fisher covariance is singular")
    d = 1.0 - r * r
    if kind is StatKind.STUDENT:
        d **= 1.5
    return d


def fourth_moments(samples: SampleMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in fourth moments as (x, corr), the standardized sample (divisor n) and its
    correlations: rho_ijkl is the column mean of x_i x_j x_k x_l, never formed."""
    return standardize(samples).data, _correlation(samples).values


def omega_general(moments: tuple[np.ndarray, np.ndarray], kind: StatKind) -> PairCovariance:
    """Asymptotic covariance from :func:`fourth_moments` (general distributions).

    Omega = Psi^T Psi / n, with Psi the n x m matrix of :func:`_influence`.
    """
    kind = StatKind(kind)
    x, corr = moments
    i, j = pair_indices(x.shape[1])
    psi = _influence(np.ascontiguousarray(x.T), corr[i, j], i, j, kind)
    omega = psi.T @ psi
    omega /= x.shape[0]
    return PairCovariance(omega, kind=kind, source="fourth-moment-plugin")


def _influence(xt: np.ndarray, r: np.ndarray, i: np.ndarray, j: np.ndarray,
               kind: StatKind) -> np.ndarray:
    """n x k influence values of the ``kind`` statistics of pairs (i, j) with
    correlations r, from xt, the transposed (p x n, C-ordered) standardized
    sample: x_i x_j - r (x_i^2 + x_j^2)/2 over the Delta derivative, or for
    second-order x_i x_j - r at unit variance.  They are formed k x n from
    whole rows of xt, which gathers fast for pairs in any order, and returned
    transposed: each pair's n values are contiguous, the layout of
    ``x[:, i]``, which the last bits of the GEMMs on them depend on.
    """
    left, right = xt[i], xt[j]
    psi = (left * right).T
    if kind is StatKind.SECOND_ORDER:
        psi -= r
        var2 = np.einsum("ij,ij->j", psi, psi) / psi.shape[0]
        if np.any(var2 <= 0.0):
            raise SingularityError("nonpositive second-order variance term rho_ijij - rho_ij^2")
        psi /= np.sqrt(var2)
        return psi
    half_r = (0.5 * r)[:, None]
    for side in (left, right):
        side *= side
        side *= half_r
        psi -= side.T
    psi /= _delta_divisor(r, kind)
    return psi
