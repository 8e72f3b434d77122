"""Metropolis chain: acceptance rule, bookkeeping, determinism."""

import math

import numpy as np
import pytest

from abcfuzz import (
    ConfigError,
    DegeneracyError,
    LikelihoodConfig,
    McmcConfig,
    ParticleSet,
    PriorConfig,
    accept_probability,
    generate_prior,
    run_mcmc,
)
from support import assert_read_only, replay_chain


class TestAcceptProbability:
    def test_equal_scores_always_accept(self):
        assert accept_probability(-3.0, -3.0) == 1.0

    def test_uphill_always_accepts(self):
        assert accept_probability(-3.0, -2.999) == 1.0
        assert accept_probability(-1e6, 5.0) == 1.0

    def test_half_for_delta_minus_ln2(self):
        assert accept_probability(0.0, -math.log(2)) == 0.5

    def test_minus_inf_proposal_never_accepts(self):
        assert accept_probability(-1.0, -math.inf) == 0.0

    def test_both_minus_inf_is_degenerate(self):
        with pytest.raises(DegeneracyError):
            accept_probability(-math.inf, -math.inf)

    def test_nan_rejected(self):
        with pytest.raises(ConfigError):
            accept_probability(math.nan, 0.0)


def _config(seed, n_steps=1000, burn_in=100, n_dims=100, **kwargs):
    likelihood = kwargs.pop("likelihood", LikelihoodConfig.for_prior(n_dims, 10.0))
    return McmcConfig(likelihood=likelihood, n_steps=n_steps, burn_in=burn_in,
                      seed=seed, **kwargs)


class TestRunMcmc:
    @pytest.mark.parametrize("trace_all_dims", [False, True])
    def test_chain_is_read_only(self, trace_all_dims):
        prior = generate_prior(PriorConfig(n_particles=5, n_dims=100, seed=1))
        result = run_mcmc(prior, _config(seed=2, n_steps=6, burn_in=2),
                          trace_all_dims=trace_all_dims)
        assert_read_only(result.chain)
        if trace_all_dims:  # the chain is the trace's post-burn-in rows, not a copy
            assert not result.trace_full.flags.writeable
            assert np.shares_memory(result.chain.values, result.trace_full)
            np.testing.assert_array_equal(result.chain.values, result.trace_full[2:])

    def test_bookkeeping_contract(self):
        prior = generate_prior(PriorConfig(seed=1))
        result = run_mcmc(prior, _config(seed=2, n_steps=5, burn_in=0))
        assert result.chain.n == 5
        assert result.trace_dim0.shape == (5,)
        assert result.accepted.shape == (5,)

    def test_chain_excludes_burn_in(self):
        prior = generate_prior(PriorConfig(seed=3))
        result = run_mcmc(prior, _config(seed=3, n_steps=50, burn_in=20))
        assert result.chain.n == 30
        np.testing.assert_array_equal(result.chain.values[:, 0], result.trace_dim0[20:])

    def test_zero_step_chain_is_constant_with_full_acceptance(self):
        prior = generate_prior(PriorConfig(seed=4))
        result = run_mcmc(prior, _config(seed=4, n_steps=40, burn_in=0, step_std=0.0,
                                         initial_index=2))
        assert result.acceptance_rate == 1.0
        assert (result.chain.values == prior.values[2]).all()
        assert result.accepted.all()

    def test_chain_states_are_finite_and_dimensioned(self):
        prior = generate_prior(PriorConfig(seed=5))
        result = run_mcmc(prior, _config(seed=5, n_steps=200, burn_in=50))
        assert result.chain.dim == prior.dim
        assert np.isfinite(result.chain.values).all()
        assert 0.0 <= result.acceptance_rate <= 1.0

    def test_bitwise_determinism(self):
        prior = generate_prior(PriorConfig(seed=6))
        cfg = _config(seed=7, n_steps=150, burn_in=10)
        a = run_mcmc(prior, cfg)
        b = run_mcmc(prior, cfg)
        assert a.chain.values.tobytes() == b.chain.values.tobytes()
        assert a.trace_dim0.tobytes() == b.trace_dim0.tobytes()
        assert np.array_equal(a.accepted, b.accepted)
        assert a.acceptance_rate == b.acceptance_rate

    def test_initial_index_out_of_range(self):
        prior = generate_prior(PriorConfig(seed=1))
        with pytest.raises(ConfigError):
            run_mcmc(prior, _config(seed=1, initial_index=10))

    def test_dimension_mismatch_rejected(self):
        prior = generate_prior(PriorConfig(n_dims=3, seed=1))
        with pytest.raises(ConfigError):
            run_mcmc(prior, _config(seed=1))

    def test_replay_matches_run_and_uphill_moves_always_land(self):
        prior = generate_prior(PriorConfig(seed=8))
        cfg = _config(seed=9, n_steps=400, burn_in=100)
        result = run_mcmc(prior, cfg)
        trace, accepted, states, uphill = replay_chain(prior, cfg)
        assert uphill > 0  # the assertion inside replay actually fired
        np.testing.assert_array_equal(result.trace_dim0, trace)
        np.testing.assert_array_equal(result.accepted, accepted)
        np.testing.assert_array_equal(result.chain.values, states[cfg.burn_in:])

    def test_replay_with_explicit_start(self):
        prior = generate_prior(PriorConfig(seed=10))
        cfg = _config(seed=11, n_steps=200, burn_in=0, initial_index=5)
        result = run_mcmc(prior, cfg)
        trace, accepted, _, _ = replay_chain(prior, cfg)
        np.testing.assert_array_equal(result.trace_dim0, trace)
        np.testing.assert_array_equal(result.accepted, accepted)

    def test_trace_all_dims_records_every_state(self):
        prior = generate_prior(PriorConfig(seed=13))
        cfg = _config(seed=13, n_steps=30, burn_in=5)
        result = run_mcmc(prior, cfg, trace_all_dims=True)
        assert result.trace_full.shape == (30, prior.dim)
        np.testing.assert_array_equal(result.trace_full[:, 0], result.trace_dim0)
        assert run_mcmc(prior, cfg).trace_full is None

    def test_overflowing_proposals_are_rejected_without_a_warning(self):
        # pytest turns a RuntimeWarning into an error: every overflow in the
        # loop (noise, proposal, distance) must stay silent and score -inf
        prior = ParticleSet(np.zeros((2, 3)))
        cfg = McmcConfig(likelihood=LikelihoodConfig.for_prior(3, 1.0),
                         n_steps=20, burn_in=0, step_std=1e308, initial_index=0, seed=1)
        result = run_mcmc(prior, cfg)
        assert result.acceptance_rate == 0.0
        assert not result.chain.values.any()

    def test_degenerate_start_raises_with_step(self):
        prior = ParticleSet(np.full((2, 3), 1e200))
        cfg = McmcConfig(likelihood=LikelihoodConfig.for_prior(3, 1.0),
                         n_steps=5, burn_in=0, step_std=0.001, initial_index=0, seed=1)
        with pytest.raises(DegeneracyError) as excinfo:
            run_mcmc(prior, cfg)
        assert excinfo.value.step == 0
