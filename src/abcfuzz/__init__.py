"""Particle-based inference engine for steering fuzz-test inputs.

Two approximate-Bayesian samplers (a sequential Monte Carlo population and
a single-chain Metropolis walker) push candidate inputs toward an oracle's
passing region using a directed likelihood: distance to a target point
plus a penalty on the first coordinate. Every run is seeded and fully
reproducible.
"""

from .core import (
    AbcFuzzError,
    ConfigError,
    DegeneracyError,
    DegenerateStateError,
    DegenerateWeightsError,
    ENGINE_VERSION,
    LikelihoodConfig,
    McmcConfig,
    ParticleSet,
    PriorConfig,
    RandomSource,
    SmcConfig,
)
from .diagnostics import (
    trace_summary,
    weight_sum_delta_series,
    weight_updates_converging,
)
from .likelihood import log_likelihood_values
from .mcmc import McmcResult, accept_probability, run_mcmc
from .oracle import (
    ExternalOracle,
    OracleSpawnError,
    OracleTimeoutError,
    OracleVerdict,
    RangeOracle,
    pass_rate,
)
from .prior import generate_prior, slice_count
from .report import (
    emit_plot_data,
    read_particles_csv,
    write_particles_csv,
    write_report,
)
from .smc import SmcResult, normalize_log_weights, run_smc, systematic_resample

__version__ = ENGINE_VERSION

__all__ = [
    "AbcFuzzError",
    "ConfigError",
    "DegeneracyError",
    "DegenerateStateError",
    "DegenerateWeightsError",
    "ENGINE_VERSION",
    "ExternalOracle",
    "LikelihoodConfig",
    "McmcConfig",
    "McmcResult",
    "OracleSpawnError",
    "OracleTimeoutError",
    "OracleVerdict",
    "ParticleSet",
    "PriorConfig",
    "RandomSource",
    "RangeOracle",
    "SmcConfig",
    "SmcResult",
    "accept_probability",
    "emit_plot_data",
    "generate_prior",
    "log_likelihood_values",
    "normalize_log_weights",
    "pass_rate",
    "read_particles_csv",
    "run_mcmc",
    "run_smc",
    "slice_count",
    "systematic_resample",
    "trace_summary",
    "weight_sum_delta_series",
    "weight_updates_converging",
    "write_particles_csv",
    "write_report",
]
