"""Gaussian prior population with a forced-passing slice.

Each particle is a row of independent Normal(mean, std_dev^2) draws; the
first floor(zero_fraction * n_particles) rows then get dimension 0
overwritten with exactly 0.0. Those rows are the inputs guaranteed to pass
the default range oracle.
"""

import math

import numpy as np

from .core import ParticleSet, PriorConfig, RandomSource, _require


def slice_count(config: PriorConfig) -> int:
    """Number of particles in the forced-zero slice: floor(fraction * N).

    The slice is the particles at indices 0 .. count - 1.
    """
    return math.floor(config.zero_fraction * config.n_particles)


def generate_prior(config: PriorConfig) -> ParticleSet:
    """Draw the prior population and apply the forced-zero slice.

    Draw order is deterministic given the seed: particle 0 dims 0..D-1,
    then particle 1, and so on, so regenerating with the same seed gives a
    bitwise-identical set.
    """
    rng = RandomSource(config.seed)
    n, d = config.n_particles, config.n_dims
    draws = rng.standard_normal(n * d).reshape(n, d)
    with np.errstate(over="ignore"):
        values = config.mean + config.std_dev * draws
    _require(bool(np.isfinite(values).all()),
             f"particle values must be finite: prior mean ({config.mean!r}) plus std_dev "
             f"({config.std_dev!r}) times a normal draw overflows")
    values[:slice_count(config), 0] = 0.0
    return ParticleSet._adopt(values)
