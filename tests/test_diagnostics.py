"""Diagnostics: trace summaries, weight-update deltas."""

import numpy as np
import pytest

from abcfuzz import (
    ConfigError,
    DegeneracyError,
    trace_summary,
    weight_sum_delta_series,
    weight_updates_converging,
)


class TestTraceSummary:
    def test_constant_trace_has_zero_std(self):
        summary = trace_summary([2.5] * 10, burn_in=0)
        assert summary["std"] == 0.0
        assert summary["mean"] == summary["min"] == summary["max"] == 2.5
        assert summary["count"] == 10

    def test_hand_computed_moments(self):
        summary = trace_summary([0.0, 1.0, 2.0, 3.0], burn_in=0)
        assert summary["mean"] == 1.5
        assert summary["std"] == pytest.approx(1.2910, abs=1e-4)  # sqrt(5/3)

    def test_burn_in_windows_the_segment(self):
        summary = trace_summary([100.0, -100.0, 1.0, 3.0], burn_in=2)
        assert summary["mean"] == 2.0
        assert summary["count"] == 2

    def test_burn_in_must_leave_two_points(self):
        with pytest.raises(ConfigError):
            trace_summary([1.0, 2.0, 3.0], burn_in=2)
        with pytest.raises(ConfigError):
            trace_summary([1.0, 2.0], burn_in=5)

    @pytest.mark.parametrize("trace, moments", [
        ([1e154, -1e154, 1e154], "std"),
        ([1e308, 1e308], "mean and std"),
    ], ids=["squares-overflow", "sum-overflows"])
    def test_overflowing_moment_is_named(self, trace, moments):
        with pytest.raises(DegeneracyError, match=f"overflows the float range in {moments}$"):
            trace_summary(trace, burn_in=0)


class TestWeightSumDeltas:
    def test_constant_series_gives_zeros(self):
        np.testing.assert_array_equal(weight_sum_delta_series([4.0] * 5), np.zeros(4))

    def test_hand_computed_series(self):
        np.testing.assert_array_equal(weight_sum_delta_series([0.0, 3.0, 1.0]), [3.0, 2.0])

    def test_too_short_rejected(self):
        with pytest.raises(ConfigError):
            weight_sum_delta_series([1.0])


class TestConvergingFlag:
    def test_decaying_updates_flag_converging(self):
        deltas = np.exp(-0.2 * np.arange(100))
        assert weight_updates_converging(deltas) is True

    def test_flat_updates_do_not(self):
        assert weight_updates_converging(np.ones(100)) is False

    def test_growing_updates_do_not(self):
        assert weight_updates_converging(np.linspace(0.1, 5.0, 60)) is False

    def test_short_series_uses_single_point_windows(self):
        assert weight_updates_converging([1.0, 0.01]) is True
        assert weight_updates_converging([0.01, 1.0]) is False


def test_diagnostics_are_pure():
    trace = np.arange(10.0)
    assert trace_summary(trace, 2) == trace_summary(trace, 2)
