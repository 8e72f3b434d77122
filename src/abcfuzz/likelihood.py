"""Directed log-likelihood shared by both samplers.

The score of particle x against target t is

    log L(x) = -||x - t||_2 / scale - alpha * |x[0]|

i.e. a normalized Euclidean distance term plus a penalty for deviating
from zero in the first dimension. Samplers only ever use log-likelihood
differences, so the linear-scale likelihood is never materialized.
"""

import numpy as np

from .core import ConfigError, LikelihoodConfig


def log_likelihood_values(values: np.ndarray, config: LikelihoodConfig) -> np.ndarray:
    """Score each row of an (N, D) matrix; returns N log-likelihoods, in row order."""
    if values.shape[1] != config.target.dim:
        raise ConfigError(
            f"particles have {values.shape[1]} dims but target has {config.target.dim}")
    diffs = values - config.target.values
    # coordinates near the float ceiling overflow the norm to inf; that is a
    # legitimate -inf score, handled downstream as weight degeneracy
    with np.errstate(over="ignore"):
        distances = np.linalg.norm(diffs, axis=1)
    return -(distances / config.scale) - config.alpha * np.abs(values[:, 0])

