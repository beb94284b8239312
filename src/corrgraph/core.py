"""Sample/correlation matrix types, pair indexing and empirical correlation.

Variable pairs (i, j) with ``1 <= i < j <= p`` are enumerated in
lexicographic order and addressed by a flat index in ``[0, m)`` with
``m = p(p-1)/2``.  Every module in the package uses this ordering, so the
rows/columns of pair-covariance matrices are unambiguous across modules and
file formats.

Moment conventions follow divisor ``n`` (not ``n-1``) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError

__all__ = [
    "SampleMatrix",
    "CorrelationMatrix",
    "num_pairs",
    "pair_to_flat",
    "flat_to_pair",
    "pair_indices",
    "empirical_correlation",
    "standardize",
]


def num_pairs(p: int) -> int:
    """Number of unordered variable pairs, m = p(p-1)/2."""
    return p * (p - 1) // 2


def pair_to_flat(i: int, j: int, p: int) -> int:
    """Flat position of the 1-based pair (i, j), i < j, in lexicographic order.

    Raises IndexError when (i, j) is out of range or i >= j.
    """
    if not (1 <= i < j <= p):
        raise IndexError(f"pair ({i}, {j}) invalid for p={p}: need 1 <= i < j <= p")
    return (i - 1) * p - i * (i - 1) // 2 + (j - i - 1)


def flat_to_pair(flat: int, p: int) -> tuple[int, int]:
    """Inverse of :func:`pair_to_flat`; returns the 1-based pair (i, j)."""
    m = num_pairs(p)
    if not (0 <= flat < m):
        raise IndexError(f"flat index {flat} out of range [0, {m}) for p={p}")
    i = 1
    offset = flat
    while offset >= p - i:
        offset -= p - i
        i += 1
    return i, i + offset + 1


def pair_indices(p: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based index arrays (I, J) of all pairs in flat order, each length m."""
    iu = np.triu_indices(p, k=1)
    return iu[0], iu[1]


@dataclass(frozen=True, eq=False)
class SampleMatrix:
    """n observations of p real-valued variables.

    Entries must be finite and no column may be constant or have a variance
    that underflows to 0; violations raise :class:`DegenerateInputError`
    naming the offending (1-based) column.  A float64 ndarray that owns its
    data is taken over, not copied: it is marked read-only in place.  Any
    other input is copied first.
    """

    data: np.ndarray
    column_names: tuple[str, ...] | None = None

    def __post_init__(self):
        data = _owned_array(self.data)
        if data.ndim != 2:
            raise ValueError(f"sample matrix must be 2-d, got shape {data.shape}")
        n, p = data.shape
        if n < 2:
            raise ValueError(f"need at least 2 observations, got n={n}")
        if p < 2:
            raise ValueError(f"need at least 2 variables, got p={p}")
        if not np.all(np.isfinite(data)):
            raise ValueError("sample matrix contains non-finite entries")
        # A constant column's computed variance is rounding noise, not 0, when
        # its mean rounds (three cells of 0.1 give 1.9e-34); that noise grows
        # with n, so no fixed multiple of eps bounds it.  Its range is exactly
        # 0 at any scale and n.  A variance that underflows to 0 is refused too.
        constant = data.max(axis=0) == data.min(axis=0)
        bad = np.flatnonzero(constant | (data.var(axis=0) <= 0.0))
        if bad.size:
            col = int(bad[0]) + 1
            name = self.column_names[bad[0]] if self.column_names else str(col)
            raise DegenerateInputError(
                f"column {name} has zero empirical variance", column=col
            )
        if self.column_names is not None and len(self.column_names) != p:
            raise ValueError("column_names length does not match p")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]

    @property
    def m(self) -> int:
        return num_pairs(self.p)


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """A p x p correlation matrix: symmetric, unit diagonal, entries in [-1, 1]."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"correlation matrix must be square, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("correlation matrix contains non-finite entries")
        if not np.allclose(values, values.T, atol=1e-10):
            raise ValueError("correlation matrix is not symmetric")
        if not np.allclose(np.diag(values), 1.0, atol=1e-10):
            raise ValueError("correlation matrix diagonal is not 1")
        if np.any(np.abs(values) > 1.0 + 1e-10):
            raise ValueError("correlation matrix has entries outside [-1, 1]")
        # Canonicalize tiny asymmetries / overshoots from floating point.
        values = np.clip((values + values.T) / 2.0, -1.0, 1.0)
        np.fill_diagonal(values, 1.0)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return num_pairs(self.p)

    def pair_values(self) -> np.ndarray:
        """Off-diagonal entries as a flat length-m vector in pair order."""
        i, j = pair_indices(self.p)
        return self.values[i, j]


def _owned_array(values) -> np.ndarray:
    """``values`` itself if it is a float64 ndarray that owns its data, else a copy:
    how every array result (samples, statistics, p-values, covariances, draws)
    takes over its values before marking them read-only in place."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64 and values.flags.owndata:
        return values
    return np.array(values, dtype=float)


def empirical_correlation(samples: SampleMatrix) -> CorrelationMatrix:
    """Pearson correlation matrix of the sample columns.

    Cross-products of centered columns, normalized by the product of the
    centered column norms; diagonal exactly 1.
    """
    x = samples.data - samples.data.mean(axis=0)
    norms = np.sqrt(np.einsum("ij,ij->j", x, x))
    return CorrelationMatrix((x.T @ x) / np.outer(norms, norms))


def _correlation(samples: SampleMatrix) -> CorrelationMatrix:
    """:func:`empirical_correlation` of ``samples``, computed once per SampleMatrix.

    The sample data are read-only, so the cached matrix cannot go stale.
    """
    corr = samples.__dict__.get("_corr")
    if corr is None:
        corr = empirical_correlation(samples)
        object.__setattr__(samples, "_corr", corr)
    return corr


def standardize(samples: SampleMatrix) -> SampleMatrix:
    """Center each column to mean 0 and scale to empirical variance 1.

    Uses divisor n in the variance.  Centers and scales one n x p copy in place.
    """
    x = samples.data - samples.data.mean(axis=0)
    x /= x.std(axis=0)
    return SampleMatrix(x, column_names=samples.column_names)
