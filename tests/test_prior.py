"""Prior generation: Gaussian population plus the forced-zero slice."""

import numpy as np
import pytest

from abcfuzz import ConfigError, PriorConfig, generate_prior, slice_count
from support import assert_read_only


def test_reference_configuration_zeroes_three_particles():
    cfg = PriorConfig(n_particles=10, n_dims=100, mean=0.0, std_dev=10.0,
                      zero_fraction=0.3, seed=0)
    prior = generate_prior(cfg)
    assert prior.n == 10 and prior.dim == 100
    assert (prior.values[:3, 0] == 0.0).all()
    assert (prior.values[3:, 0] != 0.0).all()


def test_degenerate_gaussian_is_constant():
    cfg = PriorConfig(n_particles=4, n_dims=3, mean=5.0, std_dev=0.0,
                      zero_fraction=0.0, seed=1)
    assert (generate_prior(cfg).values == 5.0).all()


def test_per_dimension_std_matches_config():
    cfg = PriorConfig(n_particles=10_000, n_dims=20, mean=0.0, std_dev=10.0,
                      zero_fraction=0.0, seed=0)
    stds = generate_prior(cfg).values.std(axis=0, ddof=1)
    assert (np.abs(stds - 10.0) <= 0.2).all()  # within 2%


def test_mean_shift_applies_everywhere():
    cfg = PriorConfig(n_particles=5_000, n_dims=4, mean=-3.0, std_dev=1.0,
                      zero_fraction=0.0, seed=2)
    means = generate_prior(cfg).values.mean(axis=0)
    assert (np.abs(means + 3.0) < 0.1).all()


class TestSliceIndices:
    def test_reference_case(self):
        cfg = PriorConfig(n_particles=10, zero_fraction=0.3)
        assert slice_count(cfg) == 3

    def test_zero_fraction_gives_empty_set(self):
        assert slice_count(PriorConfig(n_particles=10, zero_fraction=0.0)) == 0

    def test_floor_of_three_point_five(self):
        cfg = PriorConfig(n_particles=7, zero_fraction=0.5)
        # brute-force oracle: largest k with k <= f*n
        expected = max(k for k in range(8) if k <= 0.5 * 7)
        assert expected == 3
        assert slice_count(cfg) == expected

    @pytest.mark.parametrize("n,fraction", [(10, 0.3), (7, 0.5), (15, 0.2),
                                            (9, 1.0), (3, 0.99), (1, 0.0)])
    def test_count_matches_zeroed_particles(self, n, fraction):
        cfg = PriorConfig(n_particles=n, n_dims=5, std_dev=10.0,
                          zero_fraction=fraction, seed=11)
        prior = generate_prior(cfg)
        zeroed = np.flatnonzero(prior.values[:, 0] == 0.0).tolist()
        assert zeroed == list(range(slice_count(cfg)))


def test_same_seed_regenerates_bitwise_identical_set():
    cfg = PriorConfig(seed=123)
    first = generate_prior(cfg)
    second = generate_prior(cfg)
    assert first.values.tobytes() == second.values.tobytes()


def test_different_seeds_differ():
    a = generate_prior(PriorConfig(seed=1))
    b = generate_prior(PriorConfig(seed=2))
    assert not np.array_equal(a.values, b.values)


def test_row_major_draw_order():
    # particle 0 consumes dims 0..D-1 before particle 1 starts: widening D
    # must keep particle 0's leading draws unchanged
    narrow = generate_prior(PriorConfig(n_particles=1, n_dims=3, zero_fraction=0.0, seed=5))
    wide = generate_prior(PriorConfig(n_particles=2, n_dims=3, zero_fraction=0.0, seed=5))
    np.testing.assert_array_equal(narrow.values[0], wide.values[0])


def test_invalid_config_is_rejected_at_construction():
    with pytest.raises(ConfigError):
        PriorConfig(n_particles=0)
    with pytest.raises(ConfigError):
        PriorConfig(n_dims=0)


def test_generated_prior_is_read_only():
    assert_read_only(generate_prior(PriorConfig(n_particles=4, n_dims=3, seed=2)))
