"""Directed log-likelihood scoring."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abcfuzz import (
    ConfigError,
    LikelihoodConfig,
    ParticleSet,
    RandomSource,
    accept_probability,
    log_likelihood_values,
)
from abcfuzz.likelihood import _log_likelihood_row


def reference_score(values, target, alpha, scale):
    """Independent scalar implementation: plain math over python floats."""
    distance = math.sqrt(math.fsum((v - t) ** 2 for v, t in zip(values, target)))
    return -(distance / scale) - alpha * abs(values[0])


def _score(values, config):
    """One particle's score, through the matrix entry point as a one-row matrix."""
    return float(log_likelihood_values(np.array([values], dtype=float), config)[0])


class TestScalar:
    def test_global_maximum_is_zero(self):
        cfg = LikelihoodConfig(target=[0.0, 0.0], alpha=1.0, scale=1.0)
        assert _score([0.0, 0.0], cfg) == 0.0

    def test_pure_distance_when_alpha_is_zero(self):
        cfg = LikelihoodConfig(target=[0.0, 0.0], alpha=0.0, scale=1.0)
        assert _score([0.0, 3.0], cfg) == -3.0

    def test_hand_computed_case(self):
        # D=2, t=(0,0), s=2, alpha=1, p=(1,0): -(1/2) - 1*1 = -1.5
        cfg = LikelihoodConfig(target=[0.0, 0.0], alpha=1.0, scale=2.0)
        assert _score([1.0, 0.0], cfg) == -1.5

    def test_against_independent_implementation(self):
        rng = RandomSource(13)
        for _ in range(200):
            d = 1 + int(rng.uniform() * 6)
            values = rng.standard_normal(d) * 3
            target = rng.standard_normal(d)
            alpha = float(rng.uniform()) * 2
            scale = 0.5 + float(rng.uniform()) * 3
            cfg = LikelihoodConfig(target=target, alpha=alpha, scale=scale)
            expected = reference_score(values, target, alpha, scale)
            assert _score(values, cfg) == pytest.approx(expected, abs=1e-12)

    def test_always_finite_for_finite_inputs(self):
        cfg = LikelihoodConfig(target=[0.0], alpha=5.0, scale=0.001)
        assert math.isfinite(_score([1e6], cfg))

    def test_dimension_mismatch(self):
        cfg = LikelihoodConfig(target=[0.0, 0.0])
        with pytest.raises(ConfigError):
            _score([0.0], cfg)


class TestBatch:
    def test_singleton_matches_scalar(self):
        cfg = LikelihoodConfig(target=[1.0, 2.0], alpha=0.5, scale=1.5)
        ps = ParticleSet([[0.5, -0.5]])
        batch = log_likelihood_values(ps.values, cfg)
        assert batch.shape == (1,)
        assert batch[0] == _score(ps[0], cfg)

    def test_batch_equals_scalar_calls_exactly(self):
        rng = RandomSource(21)
        values = rng.standard_normal(100 * 5).reshape(100, 5)
        ps = ParticleSet(values)
        cfg = LikelihoodConfig(target=rng.standard_normal(5), alpha=1.0, scale=2.0)
        batch = log_likelihood_values(ps.values, cfg)
        scalars = np.array([_score(p, cfg) for p in ps])
        np.testing.assert_array_equal(batch, scalars)

    def test_permuted_input_gives_permuted_output(self):
        rng = RandomSource(22)
        values = rng.standard_normal(8 * 3).reshape(8, 3)
        cfg = LikelihoodConfig(target=[0.0, 0.0, 0.0], alpha=1.0, scale=1.0)
        perm = np.array([3, 1, 7, 0, 2, 6, 4, 5])
        direct = log_likelihood_values(ParticleSet(values).values, cfg)
        permuted = log_likelihood_values(ParticleSet(values[perm]).values, cfg)
        np.testing.assert_array_equal(permuted, direct[perm])


def _literal_formula(values, cfg):
    """The score as the module docstring writes it, through np.linalg.norm."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (-(np.linalg.norm(values - cfg.target, axis=1) / cfg.scale)
                - cfg.alpha * np.abs(values[:, 0]))


class TestLiteralFormula:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200), d=st.integers(1, 300),
           magnitude=st.integers(-3, 160), alpha=st.just(0.0) | st.floats(0.0, 10.0),
           scale=st.floats(1e-3, 1e150))
    def test_matrix_score_equals_the_literal_formula_bitwise(self, seed, n, d, magnitude,
                                                             alpha, scale):
        # magnitudes near 1e155 and past overflow rows to -inf
        source = np.random.default_rng(seed)
        values = source.standard_normal((n, d)) * 10.0 ** magnitude
        cfg = LikelihoodConfig(target=source.standard_normal(d), alpha=alpha, scale=scale)
        expected = _literal_formula(values, cfg)
        assert log_likelihood_values(values, cfg).tobytes() == expected.tobytes()

    def test_overflowing_and_nan_rows_match_the_literal_formula(self):
        values = np.array([[1e300, 1e300, 0.0], [math.inf, 0.0, 1.0], [0.0, -math.inf, 1.0],
                           [0.5, -0.5, 2.0]])
        for alpha in (0.0, 1.5):
            cfg = LikelihoodConfig(target=[0.25, -1.0, 3.0], alpha=alpha, scale=2.0)
            scores = log_likelihood_values(values, cfg)
            assert scores.tobytes() == _literal_formula(values, cfg).tobytes()
            assert scores[0] == scores[2] == -math.inf
            # alpha 0 times an infinite x0 is NaN; any other alpha scores it -inf
            assert math.isnan(scores[1]) if alpha == 0.0 else scores[1] == -math.inf


class TestProperties:
    @given(st.floats(min_value=0.01, max_value=50.0),
           st.floats(min_value=1.01, max_value=4.0))
    def test_growing_first_dimension_penalty_strictly_lowers_score(self, x0, factor):
        cfg = LikelihoodConfig(target=[0.0], alpha=1.0, scale=1e12)
        near = _score([x0], cfg)
        far = _score([x0 * factor], cfg)
        assert far < near

    def test_growing_distance_strictly_lowers_score(self):
        cfg = LikelihoodConfig(target=[0.0, 0.0], alpha=1.0, scale=2.0)
        scores = [_score([0.5, y], cfg) for y in (0.0, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_doubling_scale_halves_the_distance_term(self):
        target = [0.0, 0.0, 0.0]
        p = [1.0, -2.0, 0.5]
        small = LikelihoodConfig(target=target, alpha=0.0, scale=1.3)
        large = LikelihoodConfig(target=target, alpha=0.0, scale=2.6)
        assert _score(p, large) == _score(p, small) / 2

    def test_alpha_zero_reduces_to_distance_only_scoring(self):
        rng = RandomSource(30)
        target = rng.standard_normal(4)
        cfg = LikelihoodConfig(target=target, alpha=0.0, scale=1.0)
        for _ in range(50):
            values = rng.standard_normal(4) * 2
            distance_only = -float(np.linalg.norm(values - target))
            assert _score(values, cfg) == pytest.approx(distance_only, rel=1e-15)


def _row_and_matrix_scores(x, cfg):
    """The one-row score of ``x`` and its score through the matrix entry point."""
    with np.errstate(over="ignore", invalid="ignore"):
        row = _log_likelihood_row(x, cfg.target, cfg.scale, cfg.alpha)
        matrix = log_likelihood_values(x[np.newaxis, :], cfg)[0]
    return row, float(matrix)


def _same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


class TestRowScore:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           dims=st.integers(1, 40) | st.sampled_from([100, 1000, 4097]),
           magnitude=st.integers(-3, 160),
           alpha=st.just(0.0) | st.floats(0.0, 10.0),
           scale=st.floats(1e-3, 1e150))
    def test_row_score_equals_the_matrix_score_bitwise(self, data, dims, magnitude, alpha,
                                                       scale):
        # coordinates near 1e155 and beyond overflow the squared distance to inf
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        x = np.random.default_rng(seed).standard_normal(dims) * 10.0 ** magnitude
        if dims <= 8:
            x = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                            min_size=dims, max_size=dims), label="x"))
        target = np.random.default_rng(seed + 1).standard_normal(dims)
        cfg = LikelihoodConfig(target=target, alpha=alpha, scale=scale)
        row, matrix = _row_and_matrix_scores(x, cfg)
        assert isinstance(row, float)
        assert _same_float(row, matrix)

    def test_overflow_scores_minus_inf_in_both(self):
        cfg = LikelihoodConfig(target=[0.0, 0.0], alpha=1.0, scale=1.0)
        for x in ([1e300, 1e300], [math.inf, 0.0], [0.0, -math.inf]):
            row, matrix = _row_and_matrix_scores(np.array(x), cfg)
            assert row == matrix == -math.inf
            assert accept_probability(-1.0, row) == 0.0

    def test_alpha_zero_with_an_infinite_first_coordinate_is_nan_and_rejected(self):
        cfg = LikelihoodConfig(target=[0.0, 0.0], alpha=0.0, scale=1.0)
        row, matrix = _row_and_matrix_scores(np.array([math.inf, 0.0]), cfg)
        assert math.isnan(row) and math.isnan(matrix)
        with pytest.raises(ConfigError, match="NaN"):
            accept_probability(-1.0, row)
