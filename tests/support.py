"""Shared test helpers."""

import math
import time

import numpy as np
import pytest

from abcfuzz import (
    RandomSource,
    log_likelihood_values,
    normalize_log_weights,
    systematic_resample,
)


def replay_chain(prior, config):
    """Independent re-walk of run_mcmc's documented draw order.

    Consumes the run's random stream exactly as run_mcmc does (one uniform
    for the random start, then D normals + one uniform per step) and
    re-derives every decision, asserting that uphill proposals always move
    the state. Returns (trace, accepted, states, uphill_count).
    """
    rng = RandomSource(config.seed)
    n, d = prior.n, prior.dim
    if config.initial_index is not None:
        state = prior.values[config.initial_index].copy()
    else:
        state = prior.values[min(int(rng.uniform() * n), n - 1)].copy()
    log_l = float(log_likelihood_values(state[np.newaxis, :], config.likelihood)[0])

    trace = np.empty(config.n_steps)
    accepted = np.zeros(config.n_steps, dtype=bool)
    states = np.empty((config.n_steps, d))
    uphill = 0
    for step in range(config.n_steps):
        proposal = state + config.step_std * rng.standard_normal(d)
        log_l_prop = float(
            log_likelihood_values(proposal[np.newaxis, :], config.likelihood)[0])
        delta = log_l_prop - log_l
        prob = 1.0 if delta >= 0 else math.exp(delta)
        u = rng.uniform()
        if delta >= 0:
            uphill += 1
            assert u < prob, "uphill proposal must be accepted"
        if u < prob:
            state, log_l = proposal, log_l_prop
            accepted[step] = True
        states[step] = state
        trace[step] = state[0]
    return trace, accepted, states, uphill


def replay_smc(prior, config):
    """Independent per-step re-walk of run_smc's documented draw order.

    Draws each step on its own (N*D normals, the resampling offset, the
    posterior pick) through the public RandomSource, normalize and
    resample entry points. Returns (posterior, weight_sums, ess).
    """
    rng = RandomSource(config.seed)
    n, d = prior.n, prior.dim
    population = prior.to_array()
    posterior = np.empty((config.n_steps, d))
    weight_sums = np.empty(config.n_steps)
    ess = np.empty(config.n_steps)
    for step in range(config.n_steps):
        population += config.step_std * rng.standard_normal(n * d).reshape(n, d)
        log_w = log_likelihood_values(population, config.likelihood)
        peak = float(np.max(log_w))
        weight_sums[step] = peak + float(np.log(np.sum(np.exp(log_w - peak))))
        w = normalize_log_weights(log_w)
        ess[step] = min(max(1.0 / float(np.sum(w * w)), 1.0), float(n))
        indices = systematic_resample(w, rng)
        pick = min(int(np.searchsorted(np.cumsum(w), rng.uniform(), side="right")), n - 1)
        posterior[step] = population[pick]
        population = population[indices]
    return posterior, weight_sums, ess


def assert_read_only(particles):
    """Writing to a ParticleSet's values raises."""
    assert not particles.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        particles.values[0, 0] = 1.0


def running(pid: int) -> bool:
    """Whether process ``pid`` runs; a zombie waiting to be reaped does not."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def gone_within(pid: int, seconds: float) -> bool:
    """Whether process ``pid`` has stopped running, waiting up to ``seconds``."""
    deadline = time.monotonic() + seconds
    while running(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    return not running(pid)


# Child-code prelude: every process start of the ``os`` module raises
# OSError, and the name of each one tried is appended to ``tried``.
REFUSING_STARTS = """
import os, sys
tried = []

def refused(name):
    def start(*args, **kwargs):
        tried.append(name)
        raise OSError(f"{name} refused")
    return start

for name in ("fork", "forkpty", "posix_spawn", "posix_spawnp"):
    if hasattr(os, name):
        setattr(os, name, refused(name))
"""
