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
    if values.shape[1] != config.target.dim:
        raise ConfigError(
            f"particles have {values.shape[1]} dims but target has {config.target.dim}")
    # coordinates near the float ceiling, a tiny scale or a huge alpha
    # overflow the score to -inf; that is a legitimate score, handled
    # downstream as weight degeneracy
    with np.errstate(over="ignore"):
        distances = np.linalg.norm(values - config.target.values, axis=1)
        return -(distances / config.scale) - config.alpha * np.abs(values[:, 0])


def _log_likelihood_row(x: np.ndarray, target: np.ndarray, scale: float, alpha: float) -> float:
    """log_likelihood_values for one row ``x`` against the target's values:
    the same formula, bit for bit, without the matrix entry point's per-call
    overhead. ``np.linalg.norm(axis=1)`` sums ``x * x`` with the same
    ``add.reduce``, and ``math.sqrt`` rounds like ``np.sqrt``.

    The caller runs it under ``np.errstate(over="ignore")``: an overflowing
    coordinate scores -inf, or NaN with ``alpha`` 0 and an infinite ``x[0]``.
    """
    diff = x - target
    return -(math.sqrt(float(np.add.reduce(diff * diff))) / scale) - alpha * abs(float(x[0]))
