"""Dependence-graph inference by simultaneous testing of pairwise correlations.

The package tests all m = p(p-1)/2 hypotheses "rho_ij = 0" from an n x p
sample, controlling the family-wise error rate (Bonferroni, Sidak,
Romano-Wolf bootstrap, parametric max-statistic — each with a step-down
variant) or the false discovery rate (Benjamini-Hochberg), and ships a
Monte Carlo harness for stochastic-block-model correlation designs.
"""

from .core import (
    CorrelationMatrix,
    SampleMatrix,
    empirical_correlation,
    flat_to_pair,
    num_pairs,
    pair_indices,
    pair_to_flat,
    standardize,
)
from .errors import (
    ConfigError,
    CorrGraphError,
    DegenerateInputError,
    ModelError,
    NotPositiveDefiniteError,
    SingularityError,
)
from .procedures import (
    Method,
    ProcedureKind,
    RejectionSet,
    bh_fdr,
    is_mtp2_gaussian_abs,
    random_correlation_matrix,
    run_procedure,
)
from .quantiles import (
    DrawMatrix,
    QuantileEstimate,
    bootstrap_draw_matrix,
    cholesky_psd,
    max_gauss_quantile,
    quantile_from_draws,
    sidak_threshold,
)
from .rng import make_rng
from .simulation import (
    AdjacencyMatrix,
    CorrelationModel,
    ExperimentConfig,
    MetricsRow,
    correlation_model,
    replicate_metrics,
    run_experiment,
    sample_gaussian,
    sbm_adjacency,
)
from .stats import (
    FourthMoments,
    PairCovariance,
    PValueVector,
    StatKind,
    StatVector,
    fourth_moments,
    isserlis_fourth_moments,
    omega_gaussian,
    omega_general,
    p_values,
    statistic,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyMatrix",
    "ConfigError",
    "CorrGraphError",
    "CorrelationMatrix",
    "CorrelationModel",
    "DegenerateInputError",
    "DrawMatrix",
    "ExperimentConfig",
    "FourthMoments",
    "Method",
    "MetricsRow",
    "ModelError",
    "NotPositiveDefiniteError",
    "PValueVector",
    "PairCovariance",
    "ProcedureKind",
    "QuantileEstimate",
    "RejectionSet",
    "SampleMatrix",
    "SingularityError",
    "StatKind",
    "StatVector",
    "bh_fdr",
    "bootstrap_draw_matrix",
    "cholesky_psd",
    "correlation_model",
    "empirical_correlation",
    "flat_to_pair",
    "fourth_moments",
    "is_mtp2_gaussian_abs",
    "isserlis_fourth_moments",
    "make_rng",
    "max_gauss_quantile",
    "num_pairs",
    "omega_gaussian",
    "omega_general",
    "p_values",
    "pair_indices",
    "pair_to_flat",
    "quantile_from_draws",
    "random_correlation_matrix",
    "replicate_metrics",
    "run_experiment",
    "run_procedure",
    "sample_gaussian",
    "sbm_adjacency",
    "sidak_threshold",
    "standardize",
    "statistic",
]
