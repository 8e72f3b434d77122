"""Convergence and quality metrics shared across samplers.

All functions here are pure: same input, same output, no hidden state.
"""

import numpy as np

from .core import DegeneracyError, _require

CONVERGENCE_NOTE = ("heuristic: tail 10% of weight-update magnitudes averages "
                    "below 10% of the head 10%'s average; advisory only")


def trace_summary(trace, burn_in: int) -> dict:
    """Moments of the trace after discarding the first burn_in entries:
    mean, std (divisor n-1), min, max and count. A moment that overflows
    raises DegeneracyError naming it."""
    arr = np.asarray(trace, dtype=np.float64)
    _require(arr.ndim == 1, "trace must be a flat sequence")
    _require(0 <= burn_in < arr.size,
             f"burn_in ({burn_in}) must be smaller than the trace length ({arr.size})")
    segment = arr[burn_in:]
    _require(segment.size >= 2,
             "post-burn-in segment needs at least 2 points for a sample std")
    with np.errstate(over="ignore", invalid="ignore"):
        moments = {"mean": float(segment.mean()), "std": float(segment.std(ddof=1)),
                   "min": float(segment.min()), "max": float(segment.max())}
    overflowed = [name for name, value in moments.items() if not np.isfinite(value)]
    if overflowed:
        raise DegeneracyError(
            f"trace summary overflows the float range in {' and '.join(overflowed)}")
    return {**moments, "count": int(segment.size)}


def weight_sum_delta_series(log_weight_sums) -> np.ndarray:
    """Absolute first differences of the per-step log weight sums.

    These are the "weight update" magnitudes; shrinking deltas indicate the
    population settling down.
    """
    arr = np.asarray(log_weight_sums, dtype=np.float64)
    _require(arr.ndim == 1, "log weight sums must be a flat sequence")
    _require(arr.size >= 2, "need at least 2 entries to form differences")
    return np.abs(np.diff(arr))


def weight_updates_converging(deltas) -> bool:
    """Advisory convergence flag over the weight-update magnitudes.

    True when the final 10% of deltas average below 10% of the first 10%'s
    average (at least one delta on each end). A heuristic, never a hard
    gate; reports label it with CONVERGENCE_NOTE.
    """
    arr = np.asarray(deltas, dtype=np.float64)
    _require(arr.ndim == 1 and arr.size >= 1, "deltas must be a nonempty flat sequence")
    k = max(1, arr.size // 10)
    head = float(arr[:k].mean())
    tail = float(arr[-k:].mean())
    return bool(tail < 0.1 * head)
