"""Exception types shared across the package."""

__all__ = [
    "CorrGraphError",
    "DegenerateInputError",
    "NotPositiveDefiniteError",
    "SingularityError",
    "ModelError",
    "ConfigError",
]


class CorrGraphError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInputError(CorrGraphError):
    """Raised when a data column has zero empirical variance (or a
    statistic's variance estimate vanishes), making correlations undefined."""

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class NotPositiveDefiniteError(CorrGraphError):
    """Raised when a matrix that must be (semi-)definite fails factorization
    even after the documented jitter ladder."""


class SingularityError(CorrGraphError):
    """Raised when an asymptotic covariance formula is evaluated at a
    singular point (e.g. a unit correlation for Student/Fisher kinds)."""


class ModelError(CorrGraphError):
    """Raised when a correlation model cannot be built, e.g. the effect size
    violates the positive-definiteness bound 1/|lambda_min|."""

    def __init__(self, message, rho_bound=None):
        super().__init__(message)
        self.rho_bound = rho_bound


class ConfigError(CorrGraphError):
    """Raised for invalid experiment / CLI configuration."""
