"""Sequential Monte Carlo: move, reweight, resample, record.

The live population starts at the prior. Every step perturbs all particles
with a Gaussian random walk, reweights them by the directed likelihood,
records one posterior particle drawn by weight (pre-resampling
coordinates), then resamples the population systematically. Running T
steps therefore yields exactly T posterior particles regardless of the
population size. A run given a CSV sink streams them through the sink's
ring of rows instead of holding them.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    DegeneracyError,
    ParticleSet,
    RandomSource,
    SmcConfig,
    WEIGHT_SUM_TOLERANCE,
    _block_rows,
    _require,
    _uniforms_to_normals,
)
from .likelihood import _nan_score_error, _score_rows
# re-exported only for bench/tracing.py, which wraps both by name
from .likelihood import log_likelihood_values  # noqa: F401
from .oracle import pass_rate  # noqa: F401


@dataclass(frozen=True, eq=False)
class SmcResult:
    """Posterior particles plus per-step diagnostics for one run.

    ``weight_sum_series`` holds the log of the unnormalized weight sum at
    each step (raw sums underflow at high dimension, so the log is the
    stored quantity). ``ess_series`` holds the effective sample size
    1 / sum(w_i^2) of the normalized weights, always in [1, N].
    ``posterior`` is None for a run that streamed it through a sink.
    """

    posterior: ParticleSet | None
    weight_sum_series: np.ndarray
    ess_series: np.ndarray


def normalize_log_weights(log_weights) -> np.ndarray:
    """Turn log-weights into normalized weights, stably.

    Uses max-subtraction, so inputs as low as -1e6 stay representable. The
    output sums to 1 within 1e-12. Entries of -inf map to weight 0; if
    every entry is -inf there is nothing to normalize and a
    DegeneracyError is raised.
    """
    arr = np.asarray(log_weights, dtype=np.float64)
    _require(arr.ndim == 1 and arr.size >= 1, "log-weights must be a nonempty flat sequence")
    _require(not bool(np.isnan(arr).any()), "log-weights must not contain NaN")
    _require(not bool(np.isposinf(arr).any()), "log-weights must not contain +inf")
    peak = arr.max()
    if peak == -np.inf:
        raise DegeneracyError("all log-weights are -inf")
    scaled = np.exp(arr - peak)
    return scaled / scaled.sum()


def systematic_resample(weights, rng: RandomSource) -> np.ndarray:
    """Select N particle indices from normalized weights on one uniform offset.

    Draws u ~ Uniform[0, 1/N) and lays the grid u + k/N, k = 0..N-1, over
    the cumulative weights; each grid point selects the index of the
    cumulative interval it falls in. Index i is copied N*w_i times in
    expectation, with variance far below multinomial sampling.
    """
    w = np.asarray(weights, dtype=np.float64)
    _require(w.ndim == 1 and w.size >= 1, "weights must be a nonempty flat sequence")
    _require(bool(np.isfinite(w).all()) and bool((w >= 0).all()),
             "weights must be finite and nonnegative")
    _require(abs(float(w.sum()) - 1.0) <= WEIGHT_SUM_TOLERANCE,
             f"weights must be normalized, got sum {w.sum()!r}")
    n = w.size
    grid = rng.uniform() / n + np.arange(n) / n
    return np.minimum(np.searchsorted(np.cumsum(w), grid, side="right"), n - 1).astype(np.int64)


def run_smc(prior: ParticleSet, config: SmcConfig, sink=None) -> SmcResult:
    """Run the full SMC loop and collect one posterior particle per step.

    Per step: (1) move every particle by the random walk, (2) score them,
    (3) record the log-sum of raw weights, (4) normalize, (5) record the
    ESS, (6) draw the systematic resampling indices, (7) append one
    particle drawn by weight (pre-resampling coordinates) to the
    posterior, then replace the population with the resampled one.

    Each step consumes N*D + 2 uniforms from the run's stream, in this
    order: the N*D random-walk normals (row-major), the resampling offset,
    then the posterior pick. Uniforms are drawn in blocks of several
    steps, which consumes the same doubles in the same order as drawing
    them one step at a time. Identical (prior, config) pairs produce
    bitwise-identical results.

    When a sink is given (an entered ``report.CsvSink``), step s writes its
    posterior particle to row s mod len(ring) of the sink's ring, and the
    sink is told after each draw block which rows are final, so it judges
    and writes them while the loop runs. The result's posterior is then
    None. The caller's ``with`` block completes or discards the file.

    Raises DegeneracyError, naming the step, if every particle
    weight collapses.
    """
    if prior.dim != config.likelihood.target.size:
        raise ConfigError(
            f"prior particles have {prior.dim} dims but likelihood target has "
            f"{config.likelihood.target.size}")
    n, d = prior.n, prior.dim
    nd = n * d
    steps = config.n_steps
    rng = RandomSource(config.seed)

    population = prior.to_array()
    ring = np.empty((steps, d)) if sink is None else sink.buffer(steps, d)
    # at most half the ring between two advances; a block's size never moves a draw
    rows = _block_rows(nd + 2, max(1, len(ring) // 2))
    weight_sums = np.empty(steps)
    ess = np.empty(steps)  # each step's sum of squared weights until the loop ends
    grid = np.arange(n) / n
    likelihood = config.likelihood
    # per-step scratch, allocated once: the scorer's, the scores, the weights
    # and their running sum
    target, diff = np.tile(likelihood.target, (n, 1)), np.empty((n, d))
    log_w, w, cumulative = np.empty(n), np.empty(n), np.empty(n)

    # a huge step std or a coordinate near the float ceiling overflows the
    # moved particles to inf, and the weights then collapse, reported as
    # degeneracy; alpha 0 times an infinite x[0] scores NaN, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, steps, rows):
            block = rng.uniform_block(min(rows, steps - first), nd + 2)
            noise = _uniforms_to_normals(block[:, :nd]).reshape(-1, n, d)
            noise *= config.step_std
            # per step: the n resampling grid points, then the posterior pick
            points = np.hstack([block[:, nd, np.newaxis] / n + grid, block[:, nd + 1:]])

            for j in range(block.shape[0]):
                step = first + j
                population += noise[j]
                _score_rows(population, target, likelihood.scale, likelihood.alpha, diff, log_w)
                peak = np.maximum.reduce(log_w)
                if peak == -np.inf:
                    raise DegeneracyError(
                        f"all particle weights collapsed to zero at step {step}", step=step)
                # NaN propagates through max; scores are never +inf
                if not peak < np.inf:
                    raise _nan_score_error(step, likelihood.alpha)
                # normalize_log_weights in place, and the log of the raw sum
                total = np.add.reduce(np.exp(np.subtract(log_w, peak, out=w), out=w))
                weight_sums[step] = peak + np.log(total)
                np.divide(w, total, out=w)
                ess[step] = np.add.reduce(np.multiply(w, w, out=log_w))
                # an infinite last bound does systematic_resample's clamp to N - 1
                np.add.accumulate(w, out=cumulative)[-1] = np.inf
                selected = cumulative.searchsorted(points[j], "right")
                ring[step % len(ring)] = population[selected[n]]
                population = population.take(selected[:n], axis=0)
            if sink is not None:
                sink.advance(first + block.shape[0])

    # float round-off can push 1/sum(w^2) past N by ~1e-15; keep the
    # recorded series inside its documented [1, N] range
    np.clip(np.divide(1.0, ess, out=ess), 1.0, float(n), out=ess)
    weight_sums.setflags(write=False)
    ess.setflags(write=False)
    return SmcResult(
        posterior=ParticleSet._adopt(ring) if sink is None else None,
        weight_sum_series=weight_sums,
        ess_series=ess,
    )
