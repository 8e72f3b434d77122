"""Oracles: range check, pass rates, external commands."""

import json
import math
import shlex
import shutil
import sys
import threading
import time

import numpy as np
import pytest

from abcfuzz import (
    ConfigError,
    ExternalOracle,
    OracleSpawnError,
    OracleTimeoutError,
    ParticleSet,
    PriorConfig,
    RandomSource,
    RangeOracle,
    generate_prior,
    pass_rate,
)
from abcfuzz.cli import main

DEFAULT = RangeOracle()


class TestRangeOracle:
    @pytest.mark.parametrize("x0,expected", [
        (0.0, True),
        (0.5, True),
        (-0.5, True),
        (0.5 + 1e-9, False),
        (-3.7, False),
    ])
    def test_verdicts(self, x0, expected):
        assert DEFAULT(np.array([x0, 9.9])).passed is expected

    def test_dimension_selects_the_checked_coordinate(self):
        assert RangeOracle(dimension=1)(np.array([9.0, 0.1])).passed

    def test_dimension_out_of_range(self):
        with pytest.raises(ConfigError,
                           match="oracle dimension 1 out of range for 1-dim particle"):
            RangeOracle(dimension=1)(np.array([0.0]))

    def test_bounds_must_be_ordered(self):
        with pytest.raises(ConfigError):
            RangeOracle(low=1.0, high=-1.0)

    def test_same_particle_same_verdict(self):
        p = np.array([0.3, 1.0])
        assert DEFAULT(p) == DEFAULT(p)

    def test_moving_toward_midpoint_preserves_passing(self):
        rng = RandomSource(8)
        mid = (DEFAULT.low + DEFAULT.high) / 2
        for _ in range(200):
            x0 = float(rng.uniform()) * 2 - 1
            p = np.array([x0, 0.0])
            if DEFAULT(p).passed:
                closer = mid + (x0 - mid) * float(rng.uniform())
                assert DEFAULT(np.array([closer, 0.0])).passed


class TestPassRate:
    def test_reference_prior_rate_is_30_percent(self):
        # seed 0 keeps every unforced first coordinate outside the band
        prior = generate_prior(PriorConfig(seed=0))
        assert pass_rate(prior, RangeOracle()) == 0.3

    def test_fully_zeroed_population_rate_is_one(self):
        prior = generate_prior(PriorConfig(n_particles=8, zero_fraction=1.0, seed=1))
        assert pass_rate(prior, RangeOracle()) == 1.0

    def test_large_unmodified_prior_matches_gaussian_cdf(self):
        prior = generate_prior(PriorConfig(n_particles=100_000, n_dims=1,
                                           std_dev=10.0, zero_fraction=0.0, seed=3))
        expected = math.erf(0.05 / math.sqrt(2))  # P(|N(0,10)| <= 0.5)
        assert pass_rate(prior, RangeOracle()) == pytest.approx(expected, abs=0.005)

    def test_rate_is_the_exact_rational_mean_of_verdicts(self):
        ps = ParticleSet([[0.0], [3.0], [0.2], [-0.7]])
        oracle = RangeOracle()
        verdicts = [oracle(p).passed for p in ps]
        assert pass_rate(ps, oracle) == sum(verdicts) / len(verdicts) == 0.5


@pytest.mark.parametrize("sampler", ["smc", "mcmc"])
def test_misfit_oracle_fails_before_the_sampler_loop(monkeypatch, tmp_path, capsys, sampler):
    def never_scored(*args, **kwargs):
        raise AssertionError("the sampler scored a particle before checking its oracle")

    for name in ("abcfuzz.smc._score_rows", "abcfuzz.mcmc.log_likelihood_values",
                 "abcfuzz.mcmc._log_likelihood_row"):
        monkeypatch.setattr(name, never_scored)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"oracle": {"dimension": 5}}))
    out = tmp_path / "run"
    assert main(["run", sampler, "--dims", "2", "--steps", "200000", "--config", str(config),
                 "--out", str(out)]) == 2
    assert "oracle dimension 5 out of range" in capsys.readouterr().err
    assert not out.exists()


class TestExternalOracle:
    def test_always_pass_command(self):
        assert ExternalOracle("true")(np.array([1.0])).passed

    def test_always_fail_command(self):
        assert not ExternalOracle("false")(np.array([1.0])).passed

    def test_one_float_per_line_protocol(self):
        # the child sees exactly D lines, each parseable as a float
        script = ("import sys; lines = sys.stdin.read().splitlines(); "
                  "[float(l) for l in lines]; sys.exit(0 if len(lines) == 3 else 1)")
        oracle = ExternalOracle(shlex.join([sys.executable, "-c", script]))
        assert oracle(np.array([0.1, -2.5e-8, 1e300])).passed

    def test_full_precision_serialization(self):
        value = 0.1234567890123456789
        script = ("import sys; x = float(sys.stdin.readline()); "
                  f"sys.exit(0 if x == {value!r} else 1)")
        oracle = ExternalOracle(shlex.join([sys.executable, "-c", script]))
        assert oracle(np.array([value])).passed

    @pytest.mark.skipif(shutil.which("awk") is None, reason="awk not available")
    def test_differential_against_in_process_range_oracle(self):
        external = ExternalOracle("awk 'NR==1{exit !($1>=-0.5 && $1<=0.5)}'")
        in_process = RangeOracle()
        rng = RandomSource(17)
        for _ in range(1000):
            p = rng.standard_normal(3) * 0.6
            assert external(p).passed == in_process(p).passed

    def test_timeout_is_an_error_distinct_from_fail(self):
        oracle = ExternalOracle("sleep 5", timeout=0.2)
        with pytest.raises(OracleTimeoutError):
            oracle(np.array([1.0]))

    def test_timeout_holds_while_the_child_never_reads_a_large_payload(self):
        # the payload overfills the pipe buffer, so the write blocks until
        # the watchdog kills the child
        particle = np.full(8000, 0.12345678901234566)
        oracle = ExternalOracle("sleep 30", timeout=0.5)
        start = time.monotonic()
        with pytest.raises(OracleTimeoutError):
            oracle(particle)
        assert time.monotonic() - start < 10

    def test_child_exiting_without_reading_a_large_payload_passes(self):
        assert ExternalOracle("true")(np.full(8000, 0.5)).passed

    def test_watchdog_thread_is_joined_after_each_call(self):
        before = threading.active_count()
        assert ExternalOracle("true")(np.array([1.0])).passed
        assert threading.active_count() == before
        with pytest.raises(OracleTimeoutError):
            ExternalOracle("sleep 5", timeout=0.2)(np.array([1.0]))
        assert threading.active_count() == before

    def test_spawn_failure_is_an_environment_error(self):
        with pytest.raises(OracleSpawnError):
            ExternalOracle("/no/such/binary-zzz")(np.array([1.0]))

    def test_command_is_split_into_words_like_a_shell(self):
        assert ExternalOracle("sh -c 'exit 0'")(np.array([1.0])).passed
        assert not ExternalOracle("sh -c 'exit 1'")(np.array([1.0])).passed

    def test_config_validation(self):
        # a NUL would reach Popen, which cannot pass it to exec
        for command in ("", "   ", '"" -x', 7, None, ("true",), '"unterminated', "true a\0b"):
            with pytest.raises(ConfigError, match="command"):
                ExternalOracle(command)
        with pytest.raises(ConfigError):
            ExternalOracle("true", timeout=0.0)
        # past threading.TIMEOUT_MAX the watchdog's wait overflows
        for timeout in (True, "5", None, float("inf"), 1e10, 1e300):
            with pytest.raises(ConfigError, match="timeout"):
                ExternalOracle("true", timeout=timeout)
        assert ExternalOracle("true", timeout=5).timeout == 5
        limit = threading.TIMEOUT_MAX
        assert ExternalOracle("true", timeout=limit).timeout == limit

    def test_range_config_types(self):
        for kwargs in ({"low": "x"}, {"high": None}, {"dimension": True}, {"dimension": 0.0}):
            with pytest.raises(ConfigError, match=next(iter(kwargs))):
                RangeOracle(**kwargs)
