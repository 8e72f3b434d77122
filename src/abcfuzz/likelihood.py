"""Directed log-likelihood shared by both samplers.

The score of particle x against target t is

    log L(x) = -||x - t||_2 / scale - alpha * |x[0]|

i.e. a normalized Euclidean distance term plus a penalty for deviating
from zero in the first dimension. Samplers only ever use log-likelihood
differences, so the linear-scale likelihood is never materialized.
"""

import math

import numpy as np

from .core import ConfigError, LikelihoodConfig


def log_likelihood_values(values: np.ndarray, config: LikelihoodConfig) -> np.ndarray:
    """Score each row of an (N, D) matrix; returns N log-likelihoods, in row order."""
    if values.shape[1] != config.target.size:
        raise ConfigError(
            f"particles have {values.shape[1]} dims but target has {config.target.size}")
    # coordinates near the float ceiling, a tiny scale or a huge alpha
    # overflow the score to -inf; that is a legitimate score, handled
    # downstream as weight degeneracy. An infinite x[0] times alpha 0 is
    # NaN, which the samplers report with _nan_score_error.
    with np.errstate(over="ignore", invalid="ignore"):
        distances = np.linalg.norm(values - config.target, axis=1)
        return -(distances / config.scale) - config.alpha * np.abs(values[:, 0])


def _log_likelihood_row(x: np.ndarray, target: np.ndarray, scale: float, alpha: float) -> float:
    """log_likelihood_values for one row ``x`` against the target:
    the same formula, bit for bit, without the matrix entry point's per-call
    overhead. ``np.linalg.norm(axis=1)`` sums ``x * x`` with the same
    ``add.reduce``, and ``math.sqrt`` rounds like ``np.sqrt``.

    The caller runs it under ``np.errstate(over="ignore")``: an overflowing
    coordinate scores -inf, or NaN with ``alpha`` 0 and an infinite ``x[0]``.
    """
    diff = x - target
    return -(math.sqrt(float(np.add.reduce(diff * diff))) / scale) - alpha * abs(float(x[0]))


def _nan_score_error(step: int, alpha: float) -> ConfigError:
    """The error for a NaN score: a coordinate that overflowed to inf, where
    alpha 0 times an infinite x[0] has no value."""
    return ConfigError(
        f"log-likelihood is NaN at step {step}: a particle coordinate overflowed to inf, "
        f"and with alpha {alpha!r} its score has no value")
