"""Dependence-graph inference by simultaneous testing of pairwise correlations.

The package tests all m = p(p-1)/2 hypotheses "rho_ij = 0" from an n x p
sample, controlling the family-wise error rate (Bonferroni, Sidak,
Romano-Wolf bootstrap, parametric max-statistic — each with a step-down
variant) or the false discovery rate (Benjamini-Hochberg), and ships a
Monte Carlo harness for stochastic-block-model correlation designs.
"""

from . import core, errors, procedures, quantiles, rng, simulation, stats
from .core import *
from .errors import *
from .procedures import *
from .quantiles import *
from .rng import *
from .simulation import *
from .stats import *

__version__ = "0.1.0"

__all__ = sorted({name for module in (core, errors, procedures, quantiles, rng, simulation, stats)
                  for name in module.__all__})
