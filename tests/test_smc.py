"""SMC: weight normalization, resampling, full loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from abcfuzz import (
    ConfigError,
    DegeneracyError,
    LikelihoodConfig,
    ParticleSet,
    PriorConfig,
    RandomSource,
    SmcConfig,
    generate_prior,
    normalize_log_weights,
    run_smc,
    systematic_resample,
)
from abcfuzz import core, report, smc
from support import assert_read_only, replay_smc


class FixedUniformSource:
    """Random-source stand-in returning a preset uniform draw."""

    def __init__(self, value):
        self.value = value

    def uniform(self, n=None):
        return self.value


class TopUniformSource:
    """Random-source stand-in whose every uniform is the largest double below 1."""

    def __init__(self, seed):
        pass

    def uniform_block(self, rows, width):
        return np.full((rows, width), np.nextafter(1.0, 0.0))


class TestNormalizeLogWeights:
    def test_equal_log_weights_are_uniform(self):
        np.testing.assert_allclose(normalize_log_weights([0.0] * 4), [0.25] * 4)

    def test_minus_inf_entry_gets_zero_weight(self):
        np.testing.assert_array_equal(
            normalize_log_weights([0.0, -math.inf]), [1.0, 0.0])

    def test_hand_computed_pair(self):
        np.testing.assert_allclose(
            normalize_log_weights([0.0, math.log(3)]), [0.25, 0.75], atol=1e-15)

    def test_matches_scipy_logsumexp_normalization(self):
        rng = RandomSource(9)
        for _ in range(100):
            log_w = rng.standard_normal(12) * 50 - 200
            ours = normalize_log_weights(log_w)
            reference = np.exp(log_w - scipy_logsumexp(log_w))
            np.testing.assert_allclose(ours, reference, atol=1e-14)

    def test_stable_at_minus_1e6(self):
        log_w = -1e6 + np.arange(100, dtype=float)
        w = normalize_log_weights(log_w)
        assert np.isfinite(w).all()
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_sum_is_one_within_1e12_for_random_inputs(self):
        rng = RandomSource(10)
        for _ in range(200):
            w = normalize_log_weights(rng.standard_normal(7) * 100)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_all_minus_inf_is_degenerate(self):
        with pytest.raises(DegeneracyError):
            normalize_log_weights([-math.inf, -math.inf])

    def test_nan_and_plus_inf_rejected(self):
        with pytest.raises(ConfigError):
            normalize_log_weights([0.0, math.nan])
        with pytest.raises(ConfigError):
            normalize_log_weights([0.0, math.inf])
        with pytest.raises(ConfigError):
            normalize_log_weights([])


class TestSystematicResample:
    def test_point_mass_selects_only_that_index(self):
        idx = systematic_resample([1.0, 0.0, 0.0], RandomSource(3))
        np.testing.assert_array_equal(idx, [0, 0, 0])

    def test_uniform_weights_copy_every_index_once(self):
        for seed in range(10):
            idx = systematic_resample([0.2] * 5, RandomSource(seed))
            np.testing.assert_array_equal(idx, [0, 1, 2, 3, 4])

    def test_hand_walk_of_cumulative_intervals(self):
        # u = 0.6/N = 0.3 -> grid {0.3, 0.8} over cumsum [0.75, 1.0] -> [0, 1]
        idx = systematic_resample([0.75, 0.25], FixedUniformSource(0.6))
        np.testing.assert_array_equal(idx, [0, 1])

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(ConfigError):
            systematic_resample([0.5, 0.6], RandomSource(0))
        with pytest.raises(ConfigError):
            systematic_resample([-0.5, 1.5], RandomSource(0))

    def test_copy_counts_are_unbiased(self):
        weights = np.array([0.7, 0.2, 0.1])
        rng = RandomSource(99)
        counts = np.zeros(3)
        trials = 20_000
        for _ in range(trials):
            idx = systematic_resample(weights, rng)
            np.add.at(counts, idx, 1)
        np.testing.assert_allclose(counts / (3 * trials), weights, atol=0.01)


def _reference_smc_config(seed, n_steps=1000):
    return SmcConfig(likelihood=LikelihoodConfig.for_prior(100, 10.0),
                     n_steps=n_steps, step_std=0.5, seed=seed)


class TestRunSmc:
    def test_posterior_is_read_only(self):
        prior = generate_prior(PriorConfig(n_particles=5, n_dims=100, seed=1))
        assert_read_only(run_smc(prior, _reference_smc_config(seed=2, n_steps=4)).posterior)

    @pytest.mark.parametrize("min_cells", [0, None], ids=["shared-buffer", "private-buffer"])
    def test_posterior_is_the_sinks_buffer_read_only(self, tmp_path, monkeypatch, min_cells):
        if min_cells is not None:  # a shared mapping, as a large posterior gets
            monkeypatch.setattr(report, "POOL_MIN_CELLS", min_cells)
        prior = generate_prior(PriorConfig(n_particles=5, n_dims=100, seed=1))
        buffers = []
        with report.CsvSink(tmp_path / "posterior.csv", [f"x{i}" for i in range(100)]) as sink:
            allocate = sink.buffer

            def recorded(rows, cols):
                buffers.append(allocate(rows, cols))
                return buffers[-1]

            sink.buffer = recorded
            result = run_smc(prior, _reference_smc_config(seed=2, n_steps=4), sink=sink)
        assert result.posterior.values is buffers[0]
        assert_read_only(result.posterior)

    def test_posterior_has_one_particle_per_step(self):
        prior = generate_prior(PriorConfig(seed=1))
        result = run_smc(prior, _reference_smc_config(seed=2, n_steps=7))
        assert result.posterior.n == 7
        assert result.weight_sum_series.shape == (7,)
        assert result.ess_series.shape == (7,)

    def test_fully_degenerate_dynamics_reproduce_the_single_particle(self):
        row = np.linspace(-1, 1, 10)
        prior = ParticleSet(np.tile(row, (6, 1)))
        cfg = SmcConfig(likelihood=LikelihoodConfig.for_prior(10, 1.0, alpha=0.0),
                        n_steps=25, step_std=0.0, seed=3)
        result = run_smc(prior, cfg)
        assert (result.posterior.values == row).all()
        np.testing.assert_allclose(result.ess_series, 6.0, atol=1e-9)

    def test_zero_step_std_keeps_every_posterior_row_a_prior_row(self):
        prior = generate_prior(PriorConfig(seed=11))
        cfg = SmcConfig(likelihood=LikelihoodConfig.for_prior(100, 10.0),
                        n_steps=50, step_std=0.0, seed=12)
        prior_rows = {row.tobytes() for row in prior.values}
        assert all(row.tobytes() in prior_rows for row in run_smc(prior, cfg).posterior.values)

    def test_ess_stays_inside_bounds(self):
        prior = generate_prior(PriorConfig(seed=4))
        result = run_smc(prior, _reference_smc_config(seed=4, n_steps=300))
        assert (result.ess_series >= 1.0).all()
        assert (result.ess_series <= prior.n).all()

    def test_bitwise_determinism(self):
        prior = generate_prior(PriorConfig(seed=5))
        cfg = _reference_smc_config(seed=6, n_steps=100)
        a = run_smc(prior, cfg)
        b = run_smc(prior, cfg)
        assert a.posterior.values.tobytes() == b.posterior.values.tobytes()
        assert a.weight_sum_series.tobytes() == b.weight_sum_series.tobytes()
        assert a.ess_series.tobytes() == b.ess_series.tobytes()

    @pytest.mark.parametrize("n, d, steps", [
        (10, 100, 700),   # 32 steps per draw block, the last block partial
        (7, 5, 1000),     # 885 steps per block
        (40, 900, 3),     # one step overfills a block: one step per block
    ])
    def test_block_draws_match_the_per_step_replay_bitwise(self, n, d, steps):
        prior = generate_prior(PriorConfig(n_particles=n, n_dims=d, seed=n))
        cfg = SmcConfig(likelihood=LikelihoodConfig.for_prior(d, 10.0),
                        n_steps=steps, step_std=0.5, seed=d)
        result = run_smc(prior, cfg)
        posterior, weight_sums, ess = replay_smc(prior, cfg)
        assert result.posterior.values.tobytes() == posterior.tobytes()
        assert result.weight_sum_series.tobytes() == weight_sums.tobytes()
        assert result.ess_series.tobytes() == ess.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(),
           # numpy's pairwise sum changes course at 8 and 128 elements
           n=st.integers(1, 200) | st.sampled_from([8, 9, 128, 129]),
           d=st.integers(1, 300),
           steps_per_block=st.integers(1, 4),
           alpha=st.just(0.0) | st.floats(0.0, 5.0),
           scale=st.floats(0.1, 100.0),
           step_std=st.just(0.0) | st.floats(0.01, 3.0))
    def test_run_equals_the_per_step_replay_bitwise(self, data, n, d, steps_per_block,
                                                    alpha, scale, step_std):
        # a small block size makes a few steps span several draw blocks
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        steps = data.draw(st.integers(steps_per_block + 1, 3 * steps_per_block + 1),
                          label="steps")
        source = np.random.default_rng(seed)
        prior = ParticleSet(source.standard_normal((n, d)) * 3.0)
        target = source.standard_normal(d)
        cfg = SmcConfig(likelihood=LikelihoodConfig(target=target, alpha=alpha, scale=scale),
                        n_steps=steps, step_std=step_std, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "BLOCK_DOUBLES", steps_per_block * (n * d + 2))
            result = run_smc(prior, cfg)
        posterior, weight_sums, ess = replay_smc(prior, cfg)
        assert result.posterior.values.tobytes() == posterior.tobytes()
        assert result.weight_sum_series.tobytes() == weight_sums.tobytes()
        assert result.ess_series.tobytes() == ess.tobytes()

    def test_points_past_the_last_cumulative_weight_pick_the_last_particle(self, monkeypatch):
        # ten equal weights of 0.1 sum to 0.9999999999999999, below the top
        # uniform: the posterior pick and the last grid point fall past the
        # cumulative weights, and select particle 9, as systematic_resample does
        monkeypatch.setattr(smc, "RandomSource", TopUniformSource)
        signs = (np.arange(10)[:, np.newaxis] >> np.arange(4)) & 1
        prior = ParticleSet(1.0 - 2.0 * signs)  # ten distinct rows, all equally scored
        cfg = SmcConfig(likelihood=LikelihoodConfig.for_prior(4, 1.0), n_steps=2,
                        step_std=0.0, seed=1)
        w = normalize_log_weights(np.zeros(10))
        indices = systematic_resample(w, FixedUniformSource(np.nextafter(1.0, 0.0)))
        assert np.cumsum(w)[-1] < 1.0 and indices[-1] == 9
        # step 1 picks row 9 of the population step 0 resampled, prior row 9
        assert (run_smc(prior, cfg).posterior.values == prior.values[9]).all()

    def test_weight_collapse_aborts_and_names_the_step(self):
        # coordinates near 1e200 overflow the distance norm to inf, sending
        # every log-weight to -inf on the first step
        prior = ParticleSet(np.full((4, 3), 1e200))
        cfg = SmcConfig(likelihood=LikelihoodConfig.for_prior(3, 1.0), n_steps=5, seed=8)
        with pytest.raises(DegeneracyError, match="step 0") as excinfo:
            run_smc(prior, cfg)
        assert excinfo.value.step == 0

    def test_dimension_mismatch_rejected(self):
        prior = generate_prior(PriorConfig(n_dims=10, seed=1))
        with pytest.raises(ConfigError):
            run_smc(prior, _reference_smc_config(seed=1))

    def test_nan_log_weights_are_a_config_error(self):
        # a huge step overflows some first coordinates to inf; with alpha 0
        # their penalty 0 * inf is NaN
        prior = ParticleSet(np.full((20, 2), 1e308))
        cfg = SmcConfig(likelihood=LikelihoodConfig.for_prior(2, 1.0, alpha=0.0),
                        n_steps=3, step_std=1e308, seed=1)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ConfigError, match="NaN"):
            run_smc(prior, cfg)

    def test_directed_drift_toward_zero_first_dimension(self):
        # posterior |x0| must fall well below the unmodified prior's |x0|
        cfg = PriorConfig(seed=0)
        prior = generate_prior(cfg)
        result = run_smc(prior, _reference_smc_config(seed=0))
        unforced = np.abs(prior.values[3:, 0]).mean()
        steered = np.abs(result.posterior.values[:, 0]).mean()
        assert steered < unforced

    def test_normalized_weights_sum_to_one_within_1e9(self):
        prior = generate_prior(PriorConfig(seed=3))
        w = normalize_log_weights(RandomSource(4).standard_normal(prior.n) * 100)
        assert w.shape == (prior.n,) and bool((w >= 0).all())
        assert abs(math.fsum(w) - 1.0) <= 1e-9

    def test_weight_sum_series_matches_scipy_on_replay(self):
        # recompute step-0 log weights independently and compare the
        # recorded log-sum against scipy's
        from abcfuzz import log_likelihood_values

        prior = generate_prior(PriorConfig(seed=9))
        cfg = _reference_smc_config(seed=10, n_steps=1)
        result = run_smc(prior, cfg)
        rng = RandomSource(10)
        moved = prior.values + cfg.step_std * rng.standard_normal(
            prior.n * prior.dim).reshape(prior.n, prior.dim)
        log_w = log_likelihood_values(moved, cfg.likelihood)
        assert result.weight_sum_series[0] == pytest.approx(
            float(scipy_logsumexp(log_w)), abs=1e-12)

    def test_ess_series_is_inverse_sum_of_squared_weights_on_replay(self):
        from abcfuzz import log_likelihood_values

        prior = generate_prior(PriorConfig(seed=9))
        cfg = _reference_smc_config(seed=10, n_steps=1)
        rng = RandomSource(10)
        moved = prior.values + cfg.step_std * rng.standard_normal(
            prior.n * prior.dim).reshape(prior.n, prior.dim)
        log_w = log_likelihood_values(moved, cfg.likelihood)
        w = np.exp(log_w - scipy_logsumexp(log_w))
        assert run_smc(prior, cfg).ess_series[0] == pytest.approx(
            1.0 / float(np.sum(w * w)), rel=1e-12)
