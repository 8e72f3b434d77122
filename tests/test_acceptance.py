"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; the statistical checks run on fixed
seeds baked into this module, so the whole gate is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from abcfuzz import (
    LikelihoodConfig,
    McmcConfig,
    ParticleSet,
    PriorConfig,
    RandomSource,
    RangeOracle,
    SmcConfig,
    generate_prior,
    normalize_log_weights,
    pass_rate,
    run_mcmc,
    run_smc,
    systematic_resample,
)
from abcfuzz.cli import main
from support import replay_chain

# Reference setup: 10 particles of 100 dims, sigma 10, 30% forced-zero slice,
# 1000 sampler steps. The prior passes the range oracle at 30%; the SMC
# posterior lands near 0.65 with the conservative defaults pinned here and
# near 0.95 with a stronger first-dimension bias (alpha 3, step 0.25). The
# gate checks directedness properties, not any single tuned point value.
REFERENCE_PRIOR = dict(n_particles=10, n_dims=100, mean=0.0, std_dev=10.0,
                       zero_fraction=0.3)

# Seeds whose generated prior reproduces the reference 30% pass rate exactly
# (no unforced particle happens to land inside the oracle band); criterion 2
# asserts that premise before using them.
SMC_FIXTURE_SEEDS = (0, 1, 2, 3, 5, 6, 7, 8, 9, 11,
                     12, 13, 16, 17, 18, 20, 21, 22, 23, 24)


def _verdict(ok: bool, label: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label} ({time.perf_counter() - started:.2f}s)")


def _reference_likelihood():
    return LikelihoodConfig.for_prior(100, 10.0)  # alpha 1.0, scale sqrt(D)*sigma


def test_criterion_1_prior_pass_rate():
    started = time.perf_counter()
    oracle = RangeOracle()
    rates = [pass_rate(generate_prior(PriorConfig(**REFERENCE_PRIOR, seed=s)), oracle)
             for s in range(200)]
    mean_rate = float(np.mean(rates))
    ok = 0.30 <= mean_rate <= 0.36
    _verdict(ok, f"criterion 1: prior pass rate mean {mean_rate:.4f} in [0.30, 0.36] "
                 "over 200 seeds", started)
    assert ok


def test_criterion_2_smc_directedness():
    started = time.perf_counter()
    oracle = RangeOracle()
    likelihood = _reference_likelihood()
    worst_posterior, worst_margin = 1.0, 1.0
    for seed in SMC_FIXTURE_SEEDS:
        prior = generate_prior(PriorConfig(**REFERENCE_PRIOR, seed=seed))
        result = run_smc(prior, SmcConfig(likelihood=likelihood, n_steps=1000,
                                          step_std=0.5, seed=seed))
        prior_rate = pass_rate(prior, oracle)
        posterior_rate = pass_rate(result.posterior, oracle)
        assert prior_rate == 0.3, f"fixture premise broken for seed {seed}"
        worst_posterior = min(worst_posterior, posterior_rate)
        worst_margin = min(worst_margin, posterior_rate - prior_rate)
    ok = worst_posterior > 0.60 and worst_margin >= 0.25
    _verdict(ok, f"criterion 2: SMC posterior rate > 0.60 (min {worst_posterior:.3f}) "
                 f"and margin >= 0.25 (min {worst_margin:.3f}) on 20 seeds", started)
    assert ok


def test_criterion_3a_mcmc_acceptance_rate_interior():
    started = time.perf_counter()
    likelihood = _reference_likelihood()
    rates = []
    for seed in range(20):
        prior = generate_prior(PriorConfig(**REFERENCE_PRIOR, seed=seed + 1))
        result = run_mcmc(prior, McmcConfig(likelihood=likelihood, n_steps=1000,
                                            burn_in=100, step_std=0.5, seed=seed))
        rates.append(result.acceptance_rate)
    ok = all(0.0 < r < 1.0 for r in rates)
    _verdict(ok, f"criterion 3a: acceptance rate in (0, 1) on 20 seeds "
                 f"(range {min(rates):.3f}..{max(rates):.3f})", started)
    assert ok


def test_criterion_3b_uphill_proposals_always_accepted():
    started = time.perf_counter()
    prior = generate_prior(PriorConfig(**REFERENCE_PRIOR, seed=2))
    config = McmcConfig(likelihood=_reference_likelihood(), n_steps=1000,
                        burn_in=100, step_std=0.5, seed=3)
    result = run_mcmc(prior, config)
    # replay_chain walks the identical random stream and raises on the first
    # uphill proposal that fails to move the state
    trace, accepted, _, uphill = replay_chain(prior, config)
    np.testing.assert_array_equal(result.trace_dim0, trace)
    np.testing.assert_array_equal(result.accepted, accepted)
    ok = uphill > 0
    _verdict(ok, f"criterion 3b: zero uphill rejections over a full run "
                 f"({uphill} uphill proposals)", started)
    assert ok


def test_criterion_3c_one_dimensional_stationarity():
    started = time.perf_counter()
    alpha, scale = 0.0, 1.0
    density = lambda x: math.exp(-x / scale - alpha * x)  # |x| folded to [0, inf)
    numerator, _ = quad(lambda x: x * density(x), 0, np.inf)
    denominator, _ = quad(density, 0, np.inf)
    target_mean = numerator / denominator

    likelihood = LikelihoodConfig(target=[0.0], alpha=alpha, scale=scale)
    config = McmcConfig(likelihood=likelihood, n_steps=101_000, burn_in=1000,
                        step_std=1.0, initial_index=0, seed=11)
    result = run_mcmc(ParticleSet([[0.0]]), config)
    empirical = float(np.abs(result.chain.values[:, 0]).mean())
    ok = abs(empirical - target_mean) <= 0.1 * target_mean
    _verdict(ok, f"criterion 3c: 1-D chain mean |x| {empirical:.4f} within 10% of "
                 f"quadrature value {target_mean:.4f} over 1e5 steps", started)
    assert ok


def test_criterion_4_resampling_correctness():
    started = time.perf_counter()
    np.testing.assert_array_equal(
        systematic_resample([1.0, 0.0, 0.0], RandomSource(0)), [0, 0, 0])
    for seed in range(5):
        np.testing.assert_array_equal(
            systematic_resample([0.25] * 4, RandomSource(seed)), [0, 1, 2, 3])

    weights = np.array([0.7, 0.2, 0.1])
    rng = RandomSource(99)
    counts = np.zeros(3)
    trials = 100_000
    for _ in range(trials):
        np.add.at(counts, systematic_resample(weights, rng), 1)
    frequencies = counts / (3 * trials)
    error = float(np.abs(frequencies - weights).max())
    ok = error <= 0.01
    _verdict(ok, f"criterion 4: copy frequencies within 0.01 of [0.7, 0.2, 0.1] "
                 f"over 1e5 resamples (max err {error:.4f})", started)
    assert ok


def test_criterion_5_log_weight_normalization_stability():
    started = time.perf_counter()
    grid = -1e6 + np.arange(1000, dtype=float)
    w = normalize_log_weights(grid)
    checks = [np.isfinite(w).all(), abs(w.sum() - 1.0) <= 1e-12]

    # log-sum-exp property suite: shift invariance and lone-survivor limits
    base = np.array([-3.0, -1.0, -2.0, -10.0])
    checks.append(np.allclose(normalize_log_weights(base),
                              normalize_log_weights(base - 1e6), atol=1e-12))
    survivor = normalize_log_weights([-1e6, -np.inf, -np.inf])
    checks.append(np.array_equal(survivor, [1.0, 0.0, 0.0]))
    ok = all(bool(c) for c in checks)
    _verdict(ok, "criterion 5: normalization finite and summing to 1 +/- 1e-12 "
                 "down to log-weights of -1e6", started)
    assert ok


def _report_without_timestamp(outdir):
    data = json.loads((outdir / "report.json").read_text())
    data.pop("timestamp")
    return data


def test_criterion_6_cli_determinism(tmp_path):
    started = time.perf_counter()
    invocations = [
        ("gen-prior", ["gen-prior", "--seed", "4"],
         ["prior.csv", "slice-indices.csv", "plot-prior-histogram.dat",
          "plot-prior-surface.dat"]),
        ("run smc", ["run", "smc", "--steps", "50", "--seed", "4"],
         ["posterior.csv", "diagnostics.csv", "plot-smc-weights.dat"]),
        ("run mcmc", ["run", "mcmc", "--steps", "50", "--burn-in", "10", "--seed", "4"],
         ["posterior.csv", "diagnostics.csv", "plot-mcmc-trace.dat"]),
        ("compare", ["compare", "--budget", "60", "--seed", "4"],
         ["compare-table.csv"]),
    ]
    ok = True
    for name, argv, artifacts in invocations:
        first = tmp_path / name.replace(" ", "-") / "a"
        second = tmp_path / name.replace(" ", "-") / "b"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        ok &= _report_without_timestamp(first) == _report_without_timestamp(second)
        for artifact in artifacts:
            ok &= (first / artifact).read_bytes() == (second / artifact).read_bytes()
    _verdict(ok, "criterion 6: every subcommand byte-identical across reruns "
                 "(report.json modulo timestamp, CSVs exactly)", started)
    assert ok


def test_criterion_7_budgeted_comparison(tmp_path):
    started = time.perf_counter()
    budget = 2000
    wins = 0
    for seed in range(20):
        out = tmp_path / f"seed{seed}"
        assert main(["compare", "--budget", str(budget), "--seed", str(seed),
                     "--out", str(out)]) == 0
        rows = (out / "compare-table.csv").read_text().splitlines()[1:]
        rates = {line.split(",")[0]: float(line.split(",")[3]) for line in rows}
        assert int(rows[0].split(",")[1]) == budget  # equal budgets
        assert int(rows[1].split(",")[1]) == budget
        wins += rates["smc"] > rates["random"]
    ok = wins >= 18
    _verdict(ok, f"criterion 7: SMC beat random sampling on {wins}/20 seeds "
                 f"under equal {budget}-call budgets (need >= 18)", started)
    assert ok
