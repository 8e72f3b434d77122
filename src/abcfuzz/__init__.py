"""Particle-based inference engine for steering fuzz-test inputs.

Two approximate-Bayesian samplers (a sequential Monte Carlo population and
a single-chain Metropolis walker) push candidate inputs toward an oracle's
passing region using a directed likelihood: distance to a target point
plus a penalty on the first coordinate. Every run is seeded and fully
reproducible.

Each public name is loaded from its submodule on first use, so importing
the package alone loads neither numpy nor scipy.
"""

import importlib

_SOURCES = {
    "core": "ConfigError DegeneracyError ENGINE_VERSION LikelihoodConfig McmcConfig "
            "ParticleSet PriorConfig RandomSource SmcConfig",
    "diagnostics": "trace_summary weight_sum_delta_series weight_updates_converging",
    "likelihood": "log_likelihood_values",
    "mcmc": "McmcResult accept_probability run_mcmc",
    "oracle": "ExternalOracle OracleSpawnError OracleTimeoutError OracleVerdict "
              "RangeOracle pass_rate",
    "prior": "generate_prior slice_count",
    "report": "emit_plot_data read_particles_csv write_particles_csv write_report",
    "smc": "SmcResult normalize_log_weights run_smc systematic_resample",
}
# public name -> the submodule that defines it
_PUBLIC = {name: module for module, names in _SOURCES.items() for name in names.split()}

__all__ = sorted(_PUBLIC)


def __getattr__(name):
    source = "ENGINE_VERSION" if name == "__version__" else name
    if source not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_PUBLIC[source]}", __name__), source)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, "__version__"})
