"""Single-chain Metropolis sampler with burn-in and trace recording.

Proposals come from the same Gaussian random-walk kernel that moves the
SMC population, which is symmetric, so the plain Metropolis rule applies with
no Hastings correction. The trace records dimension 0 of every state
(burn-in included); the chain keeps the post-burn-in states.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    ConfigError,
    DegeneracyError,
    McmcConfig,
    ParticleSet,
    RandomSource,
    _block_rows,
    _uniforms_to_normals,
)
from .likelihood import _log_likelihood_row, _nan_score_error, log_likelihood_values
# re-exported only for bench/tracing.py, which wraps mcmc.pass_rate by name
from .oracle import pass_rate  # noqa: F401


@dataclass(frozen=True, eq=False)
class McmcResult:
    """Post-burn-in chain plus the full trace and acceptance bookkeeping.

    ``trace_dim0`` has one entry per step including burn-in;
    ``accepted`` flags which steps moved. ``trace_full`` carries every
    state in full dimension when the run asked for it.
    """

    chain: ParticleSet
    trace_dim0: np.ndarray
    accepted: np.ndarray
    acceptance_rate: float
    trace_full: Optional[np.ndarray] = None


def accept_probability(log_likelihood_current: float, log_likelihood_proposed: float) -> float:
    """Metropolis acceptance for a symmetric proposal: min(1, exp(delta)).

    A proposal of -inf is rejected with probability 1; if the current state
    is also at -inf there is no valid move and a DegeneracyError is
    raised.
    """
    if math.isnan(log_likelihood_current) or math.isnan(log_likelihood_proposed):
        raise ConfigError("log-likelihoods must not be NaN")
    if log_likelihood_current == -math.inf and log_likelihood_proposed == -math.inf:
        raise DegeneracyError("current state and proposal both have -inf log-likelihood")
    delta = log_likelihood_proposed - log_likelihood_current
    if delta >= 0:
        return 1.0
    return math.exp(delta)


def run_mcmc(prior: ParticleSet, config: McmcConfig,
             trace_all_dims: bool = False) -> McmcResult:
    """Run the Metropolis chain for n_steps and keep the post-burn-in states.

    The chain starts at prior[initial_index], or at a uniformly random
    prior particle when no index is configured. Draw order per step is
    fixed: D normals for the proposal, then one uniform for the
    accept/reject decision (preceded by one uniform for the starting index
    when it is random), so identical (prior, config) pairs produce
    bitwise-identical results. The per-step uniforms are drawn in blocks
    of several steps, which consumes the same doubles in the same order.
    """
    if prior.dim != config.likelihood.target.size:
        raise ConfigError(
            f"prior particles have {prior.dim} dims but likelihood target has "
            f"{config.likelihood.target.size}")
    n, d = prior.n, prior.dim
    steps, burn_in = config.n_steps, config.burn_in
    rng = RandomSource(config.seed)

    if config.initial_index is not None:
        if config.initial_index >= n:
            raise ConfigError(
                f"initial_index {config.initial_index} out of range for {n} prior particles")
        start = config.initial_index
    else:
        start = min(int(rng.uniform() * n), n - 1)

    state = prior.values[start].copy()
    log_l = float(log_likelihood_values(state[np.newaxis, :], config.likelihood)[0])

    # only the post-burn-in states are kept, unless the run records every state
    first_kept = 0 if trace_all_dims else burn_in
    kept = np.empty((steps - first_kept, d))
    trace = np.empty(steps)
    accepted = np.zeros(steps, dtype=bool)
    n_accepted = 0
    rows = _block_rows(d + 1, steps)
    target = config.likelihood.target
    scale, alpha = config.likelihood.scale, config.likelihood.alpha

    # an overflowing proposal scores -inf and is rejected, as in the matrix scorer
    with np.errstate(over="ignore"):
        for first in range(0, steps, rows):
            block = rng.uniform_block(min(rows, steps - first), d + 1)
            noise = _uniforms_to_normals(block[:, :d])
            noise *= config.step_std
            decisions = block[:, d].tolist()
            for j, u in enumerate(decisions):
                step = first + j
                proposal = state + noise[j]
                log_l_proposal = _log_likelihood_row(proposal, target, scale, alpha)
                try:
                    prob = accept_probability(log_l, log_l_proposal)
                except DegeneracyError as exc:
                    raise DegeneracyError(
                        f"chain degenerated (state and proposal at -inf) at step {step}",
                        step=step) from exc
                except ConfigError as exc:  # the proposal's score is NaN
                    raise _nan_score_error(step, alpha) from exc
                if u < prob:
                    state = proposal
                    log_l = log_l_proposal
                    accepted[step] = True
                    n_accepted += 1
                trace[step] = state[0]
                if step >= first_kept:
                    kept[step - first_kept] = state

    trace.setflags(write=False)
    accepted.setflags(write=False)
    kept.setflags(write=False)
    return McmcResult(
        chain=ParticleSet._adopt(kept[burn_in - first_kept:]),
        trace_dim0=trace,
        accepted=accepted,
        acceptance_rate=n_accepted / steps,
        trace_full=kept if trace_all_dims else None,
    )
