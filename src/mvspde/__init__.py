"""Spectral-Galerkin simulation of mean-field SPDEs with heavy-tailed noise.

The package simulates a distribution-dependent evolution equation projected
onto the eigenbasis of a diagonal dissipative operator, driven by a
cylindrical alpha-stable process, together with a slow-fast variant and the
averaged equation that the slow component converges to.

Modules
-------
spectral      operator/spectrum description, semigroup, admissibility guards
noise         alpha-stable sampling and exact stochastic-convolution increments
measures      particle clouds and law flows, Wasserstein distances, weighted flow metric
coefficients  drift coefficient families and Lipschitz probing
solver        exponential Euler kernel, particle solver and law iteration
multiscale    slow-fast system, frozen equation, averaged equation, errors
experiments   convergence-rate studies and persistence
config        config-file schema, loading, and object construction
cli           command-line entry point
"""

from .spectral import OperatorSpec, validate_spec, apply_semigroup
from .noise import RngStream, sample_standard_stable, sample_convolution_increment
from .measures import LawFlow, wasserstein_exact, dT_metric
from .coefficients import CoefficientSet, bounded_smooth, linear_test
from .solver import SimConfig, simulate_mkv, picard_law_iteration
from .multiscale import MultiscaleConfig, simulate_slow_fast, strong_error_stats
from .experiments import ExperimentResult, rate_study, hoelder_study, persist, load_result
from .config import load_config

__all__ = [
    "OperatorSpec", "validate_spec", "apply_semigroup",
    "RngStream", "sample_standard_stable", "sample_convolution_increment",
    "LawFlow", "wasserstein_exact", "dT_metric",
    "CoefficientSet", "bounded_smooth", "linear_test",
    "SimConfig", "simulate_mkv", "picard_law_iteration",
    "MultiscaleConfig", "simulate_slow_fast", "strong_error_stats",
    "ExperimentResult", "rate_study", "hoelder_study", "persist", "load_result",
    "load_config",
]

__version__ = "0.1.0"
