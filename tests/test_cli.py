"""CLI contract: artifacts, exit codes, determinism, config merging."""

import contextlib
import io
import json
import os
import re
import resource
import shlex
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from abcfuzz import (
    LikelihoodConfig,
    PriorConfig,
    RangeOracle,
    SmcConfig,
    generate_prior,
    pass_rate,
    read_particles_csv,
)
from abcfuzz import cli
from abcfuzz.cli import main
from support import REFUSING_STARTS, gone_within


def _read_report(outdir):
    return json.loads((outdir / "report.json").read_text())


def _without_timestamp(outdir):
    data = _read_report(outdir)
    data.pop("timestamp")
    return data


def _assert_rates_judge_prior_and_output(report, outdir):
    """The report's rates are the default oracle's over the generated prior
    and over posterior.csv."""
    prior = generate_prior(PriorConfig.from_dict(report["config_echo"]["prior"]))
    assert report["prior_pass_rate"] == pass_rate(prior, RangeOracle())
    assert report["posterior_pass_rate"] == pass_rate(
        read_particles_csv(outdir / "posterior.csv"), RangeOracle())


class TestGenPrior:
    def test_writes_all_artifacts_and_prints_matching_rate(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["gen-prior", "--seed", "0", "--out", str(out)]) == 0
        for name in ("prior.csv", "slice-indices.csv", "plot-prior-histogram.dat",
                     "plot-prior-surface.dat", "report.json"):
            assert (out / name).exists(), name
        report = _read_report(out)
        printed = capsys.readouterr().out.splitlines()[0]
        assert printed == f"prior pass rate: {report['pass_rate']!r} (n=10, oracle=range)"
        assert report["slice_indices"] == [0, 1, 2]
        assert len((out / "prior.csv").read_text().splitlines()) == 11

    def test_seed_determinism_gives_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-prior", "--seed", "9", "--out", str(a)]) == 0
        assert main(["gen-prior", "--seed", "9", "--out", str(b)]) == 0
        assert (a / "prior.csv").read_bytes() == (b / "prior.csv").read_bytes()
        assert _without_timestamp(a) == _without_timestamp(b)

    def test_invalid_count_exits_2_naming_the_flag(self, tmp_path, capsys):
        assert main(["gen-prior", "--n", "0", "--out", str(tmp_path)]) == 2
        assert "--n" in capsys.readouterr().err

    def test_prior_config_echo_round_trips(self, tmp_path):
        out = tmp_path / "run"
        main(["gen-prior", "--seed", "3", "--std", "2.5", "--out", str(out)])
        echo = _read_report(out)["config_echo"]["prior"]
        cfg = PriorConfig.from_dict(echo)
        assert cfg.std_dev == 2.5 and cfg.seed == 3

    def test_oracle_band_in_the_config_file_sets_the_pass_rate(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"oracle": {"low": -8, "high": 3}}))
        out = tmp_path / "run"
        assert main(["gen-prior", "--n", "200", "--config", str(config),
                     "--out", str(out)]) == 0
        report = _read_report(out)
        prior = read_particles_csv(out / "prior.csv")
        band = RangeOracle(low=-8, high=3)
        assert report["pass_rate"] == pass_rate(prior, band)
        assert report["pass_rate"] != pass_rate(prior, RangeOracle())
        assert report["config_echo"]["oracle"] == {"kind": "range", **band.to_dict()}
        assert "oracle=range" in capsys.readouterr().out

    def test_negative_number_in_exponent_form_is_a_flag_value(self, tmp_path):
        assert main(["gen-prior", "--mean", "-1e308", "--out", str(tmp_path / "a")]) == 0
        assert main(["gen-prior", "--mean=-1e308", "--out", str(tmp_path / "b")]) == 0
        assert _read_report(tmp_path / "a")["config_echo"]["prior"]["mean"] == -1e308
        assert ((tmp_path / "a" / "prior.csv").read_bytes()
                == (tmp_path / "b" / "prior.csv").read_bytes())
        assert main(["run", "smc", "--steps", "2", "--mean", "-1.5E+3",
                     "--out", str(tmp_path / "c")]) == 0

    def test_small_dims_skip_surface_plot(self, tmp_path):
        out = tmp_path / "run"
        assert main(["gen-prior", "--dims", "2", "--out", str(out)]) == 0
        assert not (out / "plot-prior-surface.dat").exists()


class TestRunSmc:
    def test_happy_path_artifacts_and_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["run", "smc", "--steps", "40", "--seed", "5", "--out", str(out)])
        assert code == 0
        report = _read_report(out)
        assert report["sampler"] == "smc"
        assert report["oracle_calls"] == 10 + 40
        assert 0.0 <= report["posterior_pass_rate"] <= 1.0
        assert len((out / "posterior.csv").read_text().splitlines()) == 41
        assert len((out / "diagnostics.csv").read_text().splitlines()) == 41
        assert (out / "plot-smc-weights.dat").exists()
        summary = capsys.readouterr().out.strip()
        assert summary == (f"smc steps=40 prior_pass_rate={report['prior_pass_rate']!r} "
                           f"posterior_pass_rate={report['posterior_pass_rate']!r} "
                           f"oracle_calls=50")

    def test_oracle_calls_are_n_plus_t(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "smc", "--n", "7", "--steps", "40", "--seed", "7",
                     "--out", str(out)]) == 0
        report = _read_report(out)
        assert report["oracle_calls"] == 7 + 40
        _assert_rates_judge_prior_and_output(report, out)

    def test_config_echo_round_trips_to_the_resolved_config(self, tmp_path):
        out = tmp_path / "run"
        main(["run", "smc", "--steps", "25", "--seed", "8", "--alpha", "2.0",
              "--out", str(out)])
        echo = _read_report(out)["config_echo"]
        cfg = SmcConfig.from_dict(echo["smc"])
        assert cfg.n_steps == 25 and cfg.seed == 8
        assert cfg.likelihood.alpha == 2.0
        assert cfg.likelihood.scale == pytest.approx(100.0)  # sqrt(100) * 10
        prior_cfg = PriorConfig.from_dict(echo["prior"])
        assert prior_cfg.seed == 9  # sampler seed + 1 by default

    def test_prior_file_is_honored(self, tmp_path):
        gen_out = tmp_path / "gen"
        main(["gen-prior", "--seed", "4", "--out", str(gen_out)])
        run_out = tmp_path / "run"
        code = main(["run", "smc", "--prior", str(gen_out / "prior.csv"),
                     "--steps", "10", "--seed", "4", "--out", str(run_out)])
        assert code == 0
        echo = _read_report(run_out)["config_echo"]["prior"]
        assert echo["file"] == str(gen_out / "prior.csv")
        assert echo["n_particles"] == 10

    def test_determinism_modulo_timestamp(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["run", "smc", "--steps", "30", "--seed", "6"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert _without_timestamp(a) == _without_timestamp(b)
        for name in ("posterior.csv", "diagnostics.csv", "plot-smc-weights.dat"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_exec_oracle(self, tmp_path):
        out = tmp_path / "run"
        code = main(["run", "smc", "--steps", "5", "--oracle", "exec:true",
                     "--out", str(out)])
        assert code == 0
        report = _read_report(out)
        assert report["posterior_pass_rate"] == 1.0
        assert report["config_echo"]["oracle"] == {
            "kind": "exec", "command": "true", "timeout": 5.0}

    def test_target_file(self, tmp_path):
        target = tmp_path / "target.csv"
        header = ",".join(f"x{i}" for i in range(100))
        target.write_text(header + "\n" + ",".join(["0.0"] * 100) + "\n")
        out = tmp_path / "run"
        assert main(["run", "smc", "--steps", "5", "--target", str(target),
                     "--out", str(out)]) == 0

    def test_mcmc_only_flags_rejected(self, tmp_path, capsys):
        assert main(["run", "smc", "--burn-in", "5", "--out", str(tmp_path)]) == 2
        assert "--burn-in" in capsys.readouterr().err

    def test_degenerate_prior_exits_4_naming_the_step(self, tmp_path, capsys):
        prior = tmp_path / "prior.csv"
        prior.write_text("x0,x1\n1e200,1e200\n1e200,1e200\n")
        code = main(["run", "smc", "--prior", str(prior), "--steps", "5",
                     "--out", str(tmp_path / "run")])
        assert code == 4
        assert "step 0" in capsys.readouterr().err


class TestRunMcmc:
    def test_oracle_calls_are_n_plus_chain_length(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "mcmc", "--steps", "60", "--burn-in", "20", "--seed", "12",
                     "--out", str(out)]) == 0
        report = _read_report(out)
        assert report["diagnostics"]["chain_length"] == 40
        assert report["oracle_calls"] == 10 + 40
        _assert_rates_judge_prior_and_output(report, out)

    def test_chain_length_is_steps_minus_burn_in(self, tmp_path):
        out = tmp_path / "run"
        code = main(["run", "mcmc", "--steps", "1000", "--burn-in", "100",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        report = _read_report(out)
        assert report["diagnostics"]["chain_length"] == 900
        assert len((out / "posterior.csv").read_text().splitlines()) == 901
        assert len((out / "diagnostics.csv").read_text().splitlines()) == 1001
        assert (out / "plot-mcmc-trace.dat").exists()

    def test_diagnostics_csv_columns(self, tmp_path):
        out = tmp_path / "run"
        main(["run", "mcmc", "--steps", "20", "--burn-in", "4", "--out", str(out)])
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == "step,x0,accepted_flag"
        assert {line.split(",")[2] for line in lines[1:]} <= {"0", "1"}

    def test_trace_all_writes_full_trace(self, tmp_path):
        out = tmp_path / "run"
        main(["run", "mcmc", "--steps", "12", "--burn-in", "2", "--trace-all",
              "--dims", "4", "--out", str(out)])
        full = read_particles_csv(out / "trace-full.csv")
        assert full.n == 12 and full.dim == 4

    def test_initial_index_flag(self, tmp_path):
        out = tmp_path / "run"
        code = main(["run", "mcmc", "--steps", "10", "--burn-in", "0",
                     "--initial-index", "0", "--step-std", "0",
                     "--out", str(out)])
        assert code == 0
        report = _read_report(out)
        assert report["diagnostics"]["acceptance_rate"] == 1.0
        assert report["config_echo"]["mcmc"]["initial_index"] == 0

    def test_burn_in_must_stay_below_steps(self, tmp_path, capsys):
        code = main(["run", "mcmc", "--steps", "10", "--burn-in", "10",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "burn_in" in capsys.readouterr().err

    def test_determinism_modulo_timestamp(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["run", "mcmc", "--steps", "30", "--burn-in", "5", "--seed", "1"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert _without_timestamp(a) == _without_timestamp(b)
        for name in ("posterior.csv", "diagnostics.csv", "plot-mcmc-trace.dat"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestCompare:
    def test_table_and_artifacts(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", "--budget", "200", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["method", "oracle_calls", "passing", "pass_rate"]
        assert lines[1].split()[0] == "random"
        assert lines[2].split()[0] == "smc"
        assert int(lines[1].split()[1]) == int(lines[2].split()[1]) == 200
        report = _read_report(out)
        assert report["budget"] == 200
        table = (out / "compare-table.csv").read_text().splitlines()
        assert table[0] == "method,oracle_calls,passing,pass_rate"
        assert table[1:] == [f"{r['method']},{r['oracle_calls']},{r['passing']},{r['pass_rate']!r}"
                             for r in report["results"]]

    def test_identical_seeds_identical_output_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["compare", "--budget", "80", "--seed", "7", "--out", str(a)]) == 0
        first = capsys.readouterr().out
        assert main(["compare", "--budget", "80", "--seed", "7", "--out", str(b)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert (a / "compare-table.csv").read_bytes() == (b / "compare-table.csv").read_bytes()
        assert _without_timestamp(a) == _without_timestamp(b)

    def test_zero_budget_exits_2(self, tmp_path, capsys):
        assert main(["compare", "--budget", "0", "--out", str(tmp_path)]) == 2
        assert "--budget" in capsys.readouterr().err


class TestConfigFileMerging:
    def _write_config(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return path

    def test_file_values_used_when_flags_absent(self, tmp_path):
        cfg = self._write_config(tmp_path, {"smc": {"n_steps": 17, "seed": 12}})
        out = tmp_path / "run"
        assert main(["run", "smc", "--config", str(cfg), "--out", str(out)]) == 0
        report = _read_report(out)
        assert report["config_echo"]["smc"]["n_steps"] == 17
        assert report["seed"] == 12

    def test_flags_override_file_values(self, tmp_path):
        cfg = self._write_config(tmp_path, {"smc": {"n_steps": 40}})
        out = tmp_path / "run"
        assert main(["run", "smc", "--config", str(cfg), "--steps", "20",
                     "--out", str(out)]) == 0
        assert _read_report(out)["config_echo"]["smc"]["n_steps"] == 20

    def test_oracle_section(self, tmp_path):
        cfg = self._write_config(tmp_path, {"oracle": {"kind": "range", "low": -1.0,
                                                       "high": 1.0}})
        out = tmp_path / "run"
        assert main(["run", "smc", "--config", str(cfg), "--steps", "5",
                     "--out", str(out)]) == 0
        assert _read_report(out)["config_echo"]["oracle"]["low"] == -1.0

    @pytest.mark.parametrize("command", [
        ["run", "smc", "--steps", "2"],
        ["run", "mcmc", "--steps", "2", "--burn-in", "0", "--oracle", "range"],
        ["compare", "--budget", "2"],
    ])
    def test_oracle_timeout_flag_with_the_range_oracle_exits_2(self, tmp_path, capsys,
                                                               command):
        out = tmp_path / "run"
        assert main([*command, "--oracle-timeout", "3", "--out", str(out)]) == 2
        assert "--oracle-timeout only applies to an exec oracle" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_timeout_file_key_with_the_range_oracle_is_ignored(self, tmp_path):
        cfg = self._write_config(tmp_path, {"oracle": {"kind": "range", "timeout": 3}})
        out = tmp_path / "run"
        assert main(["run", "smc", "--config", str(cfg), "--steps", "2",
                     "--out", str(out)]) == 0
        assert _read_report(out)["config_echo"]["oracle"] == {
            "kind": "range", "low": -0.5, "high": 0.5, "dimension": 0}

    def test_oracle_timeout_flag_sets_the_exec_timeout(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "smc", "--steps", "2", "--oracle", "exec:true",
                     "--oracle-timeout", "3", "--out", str(out)]) == 0
        assert _read_report(out)["config_echo"]["oracle"]["timeout"] == 3.0

    @pytest.mark.parametrize("command", [["gen-prior"], ["run", "smc", "--steps", "2"],
                                         ["run", "mcmc", "--steps", "2", "--burn-in", "0"]])
    def test_prior_seed_is_honoured(self, tmp_path, command):
        cfg = self._write_config(tmp_path, {"prior": {"seed": 41}})
        out = tmp_path / "run"
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 0
        assert _read_report(out)["config_echo"]["prior"]["seed"] == 41

    def test_compare_rejects_prior_seed(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, {"prior": {"seed": 41}})
        out = tmp_path / "run"
        assert main(["compare", "--budget", "2", "--config", str(cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "prior.seed" in err and "derives the prior seed from --seed" in err
        assert not out.exists()

    def test_unknown_section_key_exits_2(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, {"smc": {"steps": 9}})
        assert main(["run", "smc", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_invalid_file_value_exits_2(self, tmp_path):
        cfg = self._write_config(tmp_path, {"prior": {"n_particles": 0}})
        assert main(["gen-prior", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_missing_config_file_exits_3(self, tmp_path):
        assert main(["gen-prior", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("command, section", [
        (["gen-prior"], "smc"),
        (["run", "smc", "--steps", "2"], "mcmc"),
        (["run", "mcmc", "--steps", "2", "--burn-in", "0"], "smc"),
        (["compare", "--budget", "2"], "mcmc"),
    ])
    def test_unknown_key_in_a_section_the_command_does_not_read_exits_2(
            self, tmp_path, capsys, command, section):
        cfg = self._write_config(tmp_path, {section: {"bogus": 1}})
        assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert f"unknown {section} config keys: ['bogus']" in capsys.readouterr().err


# A config file whose one value nests deeper than the JSON decoder recurses.
_NESTED_MEAN = b'{"prior": {"mean": ' + b"[" * 2000 + b"0" + b"]" * 2000 + b"}}"


class TestConfigFile:
    """Faults of the file itself: each exits 2 with one line, before any output."""

    def _run(self, tmp_path, content: bytes, command=("run", "smc")):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        out = tmp_path / "run"
        code = main([*command, "--config", str(path), "--out", str(out)])
        return code, out

    def _assert_fault(self, tmp_path, capsys, content: bytes, message: str,
                      command=("run", "smc")):
        code, out = self._run(tmp_path, content, command)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("abc-fuzz: error: ") and len(err.splitlines()) == 1, err
        assert message in err
        assert not out.exists()

    def test_loads_sections(self, tmp_path):
        code, out = self._run(tmp_path, json.dumps(
            {"prior": {"n_particles": 5}, "smc": {"n_steps": 9}}).encode())
        assert code == 0
        echo = _read_report(out)["config_echo"]
        assert echo["prior"]["n_particles"] == 5
        assert echo["smc"]["n_steps"] == 9

    def test_unknown_section_is_an_error(self, tmp_path, capsys):
        self._assert_fault(tmp_path, capsys, json.dumps({"priors": {}}).encode(),
                           "unknown file config keys: ['priors']")

    def test_malformed_json_is_an_error(self, tmp_path, capsys):
        self._assert_fault(tmp_path, capsys, b"{not json", "config.json is not valid JSON: ")

    @pytest.mark.parametrize("content", [b"\xff{}", b'{"prior": {"seed": 1' + b"0" * 5000 + b"}}"],
                             ids=["not-utf-8", "int-past-the-digit-limit"])
    def test_undecodable_json_is_an_error(self, tmp_path, capsys, content):
        self._assert_fault(tmp_path, capsys, content, "config.json is not valid JSON: ")

    @pytest.mark.parametrize("command", [["run", "smc"], ["gen-prior"]], ids=["run", "gen-prior"])
    @pytest.mark.parametrize("content", [b"[" * 2000, _NESTED_MEAN],
                             ids=["nested-file", "nested-value"])
    def test_json_nested_past_the_recursion_limit_is_an_error(self, tmp_path, capsys, content,
                                                              command):
        self._assert_fault(tmp_path, capsys, content, "config.json is not valid JSON: ", command)

    def test_non_object_sections_are_errors(self, tmp_path, capsys):
        self._assert_fault(tmp_path, capsys, json.dumps({"prior": [1, 2]}).encode(),
                           "config section 'prior' must be a JSON object")

    def test_non_object_file_is_an_error(self, tmp_path, capsys):
        self._assert_fault(tmp_path, capsys, b"[1, 2]", "config.json must hold a JSON object")


# Keeps the regression cases small; each case's own values override it.
_SMALL_RUN = {"prior": {"n_particles": 2, "n_dims": 2}, "smc": {"n_steps": 2},
              "mcmc": {"n_steps": 2, "burn_in": 0}}

# (config file, sampler, text the error must show: the key and the value given)
_BAD_VALUES = [
    ({"prior": {"mean": "a"}}, "smc", ["mean", "'a'"]),
    ({"smc": {"step_std": None}}, "smc", ["step_std", "None"]),
    ({"oracle": {"low": "x"}}, "smc", ["low", "'x'"]),
    ({"prior": {"n_particles": True}}, "smc", ["n_particles", "True"]),
    ({"prior": {"zero_fraction": "0.3"}}, "smc", ["zero_fraction", "'0.3'"]),
    ({"likelihood": {"alpha": [1]}}, "smc", ["alpha", "[1]"]),
    ({"oracle": {"dimension": True}}, "smc", ["dimension", "True"]),
    ({"oracle": {"kind": "exec", "command": 5}}, "smc", ["command", "5"]),
    ({"oracle": {"kind": "exec", "command": "true", "timeout": "5"}}, "smc",
     ["timeout", "'5'"]),
    ({"oracle": {"kind": "exec", "command": "true", "timeout": True}}, "smc",
     ["timeout", "True"]),
    ({"mcmc": {"initial_index": True}}, "mcmc", ["initial_index", "True"]),
    # the sampler seed as given, not the prior seed 2.5 derived from it
    ({"smc": {"seed": 1.5}}, "smc", ["seed must be an integer, got 1.5"]),
]


def _config_file(directory, data):
    merged = {section: {**_SMALL_RUN.get(section, {}), **keys}
              for section, keys in {**_SMALL_RUN, **data}.items()}
    path = directory / "config.json"
    path.write_text(json.dumps(merged))
    return path


class TestConfigValueTypes:
    @pytest.mark.parametrize("config, sampler, shown", _BAD_VALUES,
                             ids=[json.dumps(case[0]) for case in _BAD_VALUES])
    def test_wrongly_typed_value_exits_2_naming_key_and_value(self, tmp_path, capsys,
                                                              config, sampler, shown):
        path = _config_file(tmp_path, config)
        code = main(["run", sampler, "--config", str(path), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2, err
        for text in shown:
            assert text in err

    def test_bad_value_exits_2_without_traceback_in_a_subprocess(self, tmp_path):
        path = _config_file(tmp_path, {"prior": {"mean": "a"}})
        proc = subprocess.run(
            [sys.executable, "-m", "abcfuzz.cli", "run", "smc", "--config", str(path),
             "--out", str(tmp_path / "run")],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "mean must be a finite number, got 'a'" in proc.stderr

    def test_nested_likelihood_in_a_sampler_section_is_unknown(self, tmp_path, capsys):
        path = _config_file(tmp_path, {"smc": {"likelihood": {"alpha": 1}}})
        assert main(["run", "smc", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "unknown smc config keys: ['likelihood']" in capsys.readouterr().err


_SECTION_KEYS = {
    "prior": ("n_particles", "n_dims", "mean", "std_dev", "zero_fraction", "seed"),
    "likelihood": ("target", "alpha", "scale"),
    "smc": ("n_steps", "step_std", "seed"),
    "mcmc": ("n_steps", "burn_in", "step_std", "initial_index", "seed"),
    "oracle": ("kind", "low", "high", "dimension", "command", "timeout"),
}
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                     st.text(max_size=4))
_JSON_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3))
_NOT_A_STRING = _JSON_VALUES.filter(lambda value: not isinstance(value, str))
# A command string would be run and a target string read as a file path,
# so those two keys get one fixed, harmless string each.
_VALUES_FOR = {
    "command": st.one_of(_NOT_A_STRING, st.just("true")),
    "target": st.one_of(_NOT_A_STRING, st.just("origin")),
    "kind": st.one_of(_JSON_VALUES, st.sampled_from(["range", "exec"])),
}
_SMALL_COMMANDS = (["run", "smc", "--steps", "2"], ["run", "mcmc", "--steps", "2"],
                   ["compare", "--budget", "2"])
# Keys the property test's flags override: --n, --dims, and --steps or --budget.
_FLAG_SET = {("prior", "n_particles"), ("prior", "n_dims"), ("smc", "n_steps"),
             ("mcmc", "n_steps")}
_ORACLE_KEYS = {"range": ("kind", "low", "high", "dimension"),
                "exec": ("kind", "command", "timeout")}


def _assert_echoed(config, command, echo):
    """Every config-file key the command reads is echoed as given, except
    keys a flag overrides and values echoed in resolved form."""
    sampler = "smc" if command[0] == "compare" else command[1]
    read = {"prior": echo["prior"], "likelihood": echo[sampler]["likelihood"],
            sampler: echo[sampler], "oracle": echo["oracle"]}
    kind = config.get("oracle", {}).get("kind", "range")
    for section, keys in config.items():
        for key, value in keys.items():
            resolved = ((key == "target" and value in (None, "origin"))
                        or (key == "scale" and value is None))
            if (section not in read or (section, key) in _FLAG_SET or resolved
                    or (section == "oracle" and key not in _ORACLE_KEYS[kind])):
                continue
            assert key in read[section] and read[section][key] == value, (section, key)


class TestConfigValueProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), command=st.sampled_from(_SMALL_COMMANDS))
    def test_any_json_value_in_any_key_never_escapes_the_exit_codes(
            self, tmp_path_factory, data, command):
        config = {"mcmc": {"burn_in": 0}}  # so that a two-step chain can run
        keys = st.sampled_from([(section, key) for section, names in _SECTION_KEYS.items()
                                for key in names])
        for section, key in data.draw(st.lists(keys, min_size=1, max_size=4, unique=True)):
            value = data.draw(_VALUES_FOR.get(key, _JSON_VALUES), label=f"{section}.{key}")
            config.setdefault(section, {})[key] = value
        directory = tmp_path_factory.mktemp("property")
        path = directory / "config.json"
        path.write_text(json.dumps(config))
        code = main([*command, "--config", str(path), "--n", "2", "--dims", "2",
                     "--out", str(directory / "run")])
        # 4 is the contract's answer to valid but extreme values, such as a
        # std_dev of 1e154, whose distances overflow and collapse every weight
        assert code in (0, 2, 4)
        if code == 0:
            _assert_echoed(config, command, _read_report(directory / "run")["config_echo"])


class TestExitCodes:
    def test_unwritable_output_exits_3(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        assert main(["gen-prior", "--out", str(blocker / "sub")]) == 3

    def test_bad_oracle_spec_exits_2(self, tmp_path, capsys):
        assert main(["run", "smc", "--oracle", "bogus", "--out", str(tmp_path)]) == 2
        assert "--oracle" in capsys.readouterr().err

    def test_steps_zero_exits_2(self, tmp_path, capsys):
        assert main(["run", "smc", "--steps", "0", "--out", str(tmp_path)]) == 2
        assert "--steps" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "gen-prior" in capsys.readouterr().out

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("first, second, code", [
        (signal.SIGINT, signal.SIGINT, 130),
        (signal.SIGTERM, signal.SIGTERM, 143),
        (signal.SIGHUP, signal.SIGINT, 129),
        (signal.SIGINT, signal.SIGTERM, 130),
    ], ids=["sigint", "sigterm", "sighup-then-sigint", "sigint-then-sigterm"])
    def test_a_second_stop_signal_while_the_first_is_reported_is_ignored(
            self, tmp_path, monkeypatch, first, second, code):
        class SignalledStderr(io.StringIO):
            def write(self, text):
                signal.raise_signal(second)  # a second signal, mid-message
                return super().write(text)

        def first_signal(cfg):
            signal.raise_signal(first)

        callers = {sig: signal.getsignal(sig) for sig in cli._STOP_SIGNALS}
        assert callers[signal.SIGINT] is signal.default_int_handler
        stderr = SignalledStderr()
        monkeypatch.setattr(cli, "generate_prior", first_signal)
        monkeypatch.setattr(sys, "stderr", stderr)
        try:
            got = main(["gen-prior", "--out", str(tmp_path / "run")])
        except KeyboardInterrupt:
            pytest.fail("the second signal escaped main")
        assert got == code
        word = "interrupted" if first == signal.SIGINT else "terminated"
        assert stderr.getvalue() == f"abc-fuzz: {word}\n"
        assert {sig: signal.getsignal(sig) for sig in cli._STOP_SIGNALS} == callers

    def test_a_stop_signal_the_caller_handles_is_left_to_it(self, tmp_path, monkeypatch):
        received, generate = [], cli.generate_prior

        def signalled(cfg):
            signal.raise_signal(signal.SIGTERM)
            return generate(cfg)

        monkeypatch.setattr(cli, "generate_prior", signalled)
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: received.append(signum))
        try:
            assert main(["gen-prior", "--out", str(tmp_path / "run")]) == 0
            assert received == [signal.SIGTERM]
        finally:
            signal.signal(signal.SIGTERM, previous)

    @pytest.mark.parametrize("flag", ["--prior", "--target"])
    def test_ragged_particle_csv_exits_2_without_traceback(self, tmp_path, flag):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("x0,x1,x2\n1.0,2.0,3.0\n4.0,5.0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "abcfuzz.cli", "run", "smc", "--dims", "3",
             "--steps", "2", flag, str(ragged), "--out", str(tmp_path / "run")],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "ragged.csv" in proc.stderr


    def test_unclosed_quote_in_exec_oracle_exits_2_without_traceback(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "abcfuzz.cli", "run", "smc", "--steps", "2",
             "--oracle", 'exec:"unterminated', "--out", str(tmp_path / "run")],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "exec oracle command" in proc.stderr


class TestOracleTimeoutOnOutput:
    """An exec oracle that passes the prior, then times out on the first
    output particle: exit 3, one stderr line, and no output artifact."""

    @pytest.mark.parametrize("sampler, extra", [
        ("smc", []),
        ("mcmc", ["--burn-in", "1"]),
    ])
    def test_timeout_after_the_prior_exits_3_without_output(self, tmp_path, capsys,
                                                            sampler, extra):
        counter = tmp_path / "calls"
        # the first three calls (the prior's) pass; later calls outlive the timeout
        script = (f"n=$(cat {shlex.quote(str(counter))} 2>/dev/null || echo 0); n=$((n+1)); "
                  f"echo $n > {shlex.quote(str(counter))}; [ $n -le 3 ] || exec sleep 5")
        out = tmp_path / "run"
        code = main(["run", sampler, "--n", "3", "--dims", "2", "--steps", "3", *extra,
                     "--oracle", "exec:" + shlex.join(["sh", "-c", script]),
                     "--oracle-timeout", "0.5", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "abc-fuzz: environment error: oracle command 'sh' exceeded 0.5 s\n"
        assert counter.read_text() == "4\n"
        # the SMC posterior sink discarded its .tmp file and the directory it made
        assert not out.exists()

    def test_timeout_kills_the_oracle_childs_own_children(self, tmp_path, capsys):
        pid_file = tmp_path / "grandchild.pid"
        script = f"sleep 4.321 & echo $! > {shlex.quote(str(pid_file))}; wait"
        try:
            code = main(["run", "smc", "--n", "2", "--dims", "1", "--steps", "1",
                         "--oracle", "exec:" + shlex.join(["sh", "-c", script]),
                         "--oracle-timeout", "1", "--out", str(tmp_path / "run")])
            assert code == 3
            assert capsys.readouterr().err == (
                "abc-fuzz: environment error: oracle command 'sh' exceeded 1.0 s\n")
            assert gone_within(int(pid_file.read_text()), 1)
        except BaseException:  # a failure leaves no sleep running
            with contextlib.suppress(OSError, ValueError):
                os.kill(int(pid_file.read_text()), signal.SIGKILL)
            raise


class TestStreamedRunFailure:
    """An SMC run that degenerates once its posterior sink has started
    writing (at step 903 here) removes the directories the sink made, and
    keeps a --out directory that existed before the run."""

    ARGS = ["run", "smc", "--step-std", "1e152", "--steps", "2000"]

    def test_exit_4_leaves_no_output_directory(self, tmp_path, capsys):
        assert main([*self.ARGS, "--out", str(tmp_path / "made" / "run")]) == 4
        assert capsys.readouterr().err.startswith("abc-fuzz: degeneracy (step 903)")
        assert list(tmp_path.iterdir()) == []

    def test_exit_4_keeps_an_existing_output_directory(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        assert main([*self.ARGS, "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("abc-fuzz: degeneracy (step 903)")
        assert list(tmp_path.iterdir()) == [out]
        assert list(out.iterdir()) == []


_HUGE = str(10**20)


class TestSizeLimits:
    @pytest.mark.parametrize("command, key", [
        (["gen-prior", "--n", _HUGE], "n_particles"),
        (["run", "smc", "--n", _HUGE, "--steps", "2"], "n_particles"),
        (["run", "smc", "--steps", _HUGE], "n_steps"),
        (["run", "mcmc", "--steps", _HUGE], "n_steps"),
    ])
    def test_size_numpy_cannot_address_exits_2_naming_the_key(self, tmp_path, capsys,
                                                               command, key):
        assert main([*command, "--out", str(tmp_path / "run")]) == 2
        assert f"{key} ({_HUGE}) times 100 dims exceeds" in capsys.readouterr().err

    def test_size_that_cannot_be_allocated_exits_3(self, tmp_path, capsys):
        # 10**14 doubles: 728 TiB, more than any address space maps, so the
        # allocation fails at once without touching memory
        code = main(["run", "smc", "--n", str(10**12), "--dims", "100", "--steps", "2",
                     "--out", str(tmp_path / "run")])
        assert code == 3
        assert "out of memory" in capsys.readouterr().err

    def test_steps_whose_series_cannot_be_allocated_exit_3(self, tmp_path):
        # 10**12 steps: the posterior ring stays a few chunks, and the 8 TB
        # weight-sum series fails at once, in a child with 1 GiB of address
        # space and 10 s to run
        out = tmp_path / "run"
        proc = _limited_child(["run", "smc", "--steps", str(10**12), "--out", str(out)])
        assert proc.returncode == 3, proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("abc-fuzz: environment error: out of memory: Unable to allocate")
        assert not out.exists()

    @pytest.mark.parametrize("args, code, shown", [
        (["--n", str(10**12), "--dims", "100"], 3, "out of memory: Unable to allocate"),
        (["--std", "1e308"], 2, "particle values must be finite"),
    ])
    def test_stderr_is_one_line_in_a_subprocess(self, tmp_path, args, code, shown):
        proc = subprocess.run(
            [sys.executable, "-m", "abcfuzz.cli", "run", "smc", *args, "--steps", "2",
             "--out", str(tmp_path / "run")],
            capture_output=True, text=True)
        assert proc.returncode == code
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert shown in proc.stderr


# Runs the command in argv[1:] and prints its exit code and peak resident
# set in KiB, as os.wait4 reports it. A child forked straight from pytest
# would report pytest's own high-water mark, which hides the CLI's.
_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


class TestFlatMemory:
    def test_smc_peak_memory_does_not_grow_with_steps(self, tmp_path):
        # the posterior streams through the sink's ring: ten times the steps
        # adds only the 16-byte-a-step weight-sum and ESS series (0.3 MB)
        peaks = {}
        for steps in (2000, 20000):
            proc = subprocess.run(
                [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "abcfuzz.cli",
                 "run", "smc", "--steps", str(steps), "--out", str(tmp_path / str(steps))],
                capture_output=True, text=True, timeout=120)
            code, peak = map(int, proc.stdout.split())
            assert code == 0, proc.stderr
            peaks[steps] = peak / 1024
        assert abs(peaks[20000] - peaks[2000]) <= 4, peaks


class TestUsageErrorsBeforeOutput:
    """A run that exits 2 leaves no output directory, and names what the user gave."""

    @pytest.mark.parametrize("sampler", ["smc", "mcmc"])
    def test_steps_too_large_leave_no_directory(self, tmp_path, sampler):
        out = tmp_path / "X"
        assert main(["run", sampler, "--steps", _HUGE, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("sampler", ["smc", "mcmc"])
    def test_misfit_oracle_leaves_no_directory(self, tmp_path, sampler):
        config = tmp_path / "F.json"
        config.write_text(json.dumps({"oracle": {"dimension": 5}}))
        out = tmp_path / "X"
        assert main(["run", sampler, "--dims", "2", "--config", str(config),
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [(["gen-prior"], "--out"),
                                               (["gen-prior"], "--config"),
                                               (["run", "smc"], "--prior"),
                                               (["run", "smc"], "--target")])
    def test_empty_path_flag_exits_2_naming_it(self, tmp_path, monkeypatch, capsys, command,
                                               flag):
        monkeypatch.chdir(tmp_path)
        assert main([*command, flag, ""]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(f"error: argument {flag}: must not be empty"), err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", [["run", "smc", "--steps", "1"],
                                         ["run", "mcmc", "--steps", "1", "--burn-in", "0"],
                                         ["compare", "--budget", "2"]])
    def test_empty_target_key_exits_2_naming_it(self, tmp_path, capsys, command):
        config = tmp_path / "F.json"
        config.write_text(json.dumps({"likelihood": {"target": ""}}))
        out = tmp_path / "X"
        assert main([*command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("abc-fuzz: error: likelihood target must be 'origin' or a particle "
                       "CSV path, got ''\n"), err
        assert not out.exists()

    @pytest.mark.parametrize("command, source", [
        (["run", "smc", "--steps", "1"], "flag"),
        (["gen-prior"], "file"),
        (["run", "mcmc", "--steps", "1", "--burn-in", "0"], "file"),
        (["compare", "--budget", "2"], "file"),
    ])
    def test_oracle_timeout_past_the_watchdog_limit_exits_2(self, tmp_path, command, source):
        # a longer timeout would overflow the watchdog thread's wait and kill it
        if source == "flag":
            given = ["--oracle", "exec:true", "--oracle-timeout", "1e10"]
        else:
            config = tmp_path / "F.json"
            config.write_text(json.dumps(
                {"oracle": {"kind": "exec", "command": "true", "timeout": 1e300}}))
            given = ["--config", str(config)]
        out = tmp_path / "X"
        proc = subprocess.run(
            [sys.executable, "-m", "abcfuzz.cli", *command, "--n", "2", "--dims", "2", *given,
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("abc-fuzz: error: timeout must lie in [0, "), proc.stderr
        assert not out.exists()

    def test_budget_too_large_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "X"
        assert main(["compare", "--budget", _HUGE, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--budget ({_HUGE}) times 100 dims exceeds" in err
        assert "n_particles" not in err
        assert not out.exists()

    @pytest.mark.parametrize("source, name", [("flag", "--target"),
                                              ("file", "likelihood.target")])
    def test_target_of_the_wrong_size_exits_2_naming_its_source(self, tmp_path, capsys,
                                                                source, name):
        if source == "flag":
            target = tmp_path / "target.csv"
            target.write_text("x0,x1\n1.0,2.0\n")
            given = ["--target", str(target)]
        else:
            config = tmp_path / "F.json"
            config.write_text(json.dumps({"likelihood": {"target": [1, 2]}}))
            given = ["--config", str(config)]
        out = tmp_path / "X"
        assert main(["run", "smc", "--steps", "1", *given, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"abc-fuzz: error: {name} has 2 dims but the prior has 100\n")
        assert not out.exists()

    def test_prior_overflow_names_std_dev_and_mean(self, tmp_path, capsys):
        out = tmp_path / "X"
        assert main(["run", "smc", "--std", "1e308", "--steps", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "std_dev (1e+308)" in err and "mean (0.0)" in err
        assert not out.exists()


# Runs main in a child and prints which scipy modules it loaded.
_MAIN_LISTING_SCIPY = (
    "import sys; from abcfuzz.cli import main; code = main(sys.argv[1:]); "
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); sys.exit(code)")
# Runs main in a child whose scipy.special cannot be imported.
_MAIN_WITHOUT_SCIPY = ("import sys; sys.modules['scipy.special'] = None; "
                       "from abcfuzz.cli import main; sys.exit(main(sys.argv[1:]))")


def _child(code, args):
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)


def _small_prior_file(directory, text="x0,x1\n0.5,1.5\n2.5,3.5\n"):
    path = directory / "prior.csv"
    path.write_text(text)
    return path


class TestLazyScipy:
    """scipy.special loads at the first normal draw, so config faults and
    --version never load it, and a missing scipy is an environment fault."""

    @pytest.mark.parametrize("args", [
        ["run", "smc", "--steps", "0"],
        ["run", "mcmc", "--steps", "3", "--burn-in", "5"],
        ["run", "smc", "--oracle-timeout", "3"],
        ["compare", "--budget", "5", "--oracle-timeout", "3"],
        ["run", "smc", "--steps", _HUGE],
        ["run", "mcmc", "--steps", _HUGE],
    ], ids=["steps-0", "burn-in-past-steps", "run-range-timeout", "compare-range-timeout",
            "smc-steps-too-large", "mcmc-steps-too-large"])
    def test_config_fault_exits_2_before_loading_scipy(self, tmp_path, args):
        out = tmp_path / "run"
        proc = _child(_MAIN_LISTING_SCIPY, [*args, "--out", str(out)])
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == "[]\n"
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        json.dumps({"prior": [1]}).encode(),
        json.dumps({"likelihood": {"target": ""}}).encode(),
        _NESTED_MEAN,
        json.dumps({"oracle": {"kind": "exec", "command": "true a\0b"}}).encode(),
    ], ids=["section-not-an-object", "empty-target", "nested-value", "nul-in-exec-command"])
    def test_config_file_fault_exits_2_before_loading_scipy(self, tmp_path, config):
        path = tmp_path / "F.json"
        path.write_bytes(config)
        out = tmp_path / "run"
        proc = _child(_MAIN_LISTING_SCIPY, ["run", "smc", "--config", str(path),
                                            "--out", str(out)])
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == "[]\n"
        assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_version_runs_without_scipy(self):
        proc = _child(_MAIN_WITHOUT_SCIPY, ["--version"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("abc-fuzz ")

    @pytest.mark.parametrize("args", [
        ["run", "smc", "--steps", "2"],
        ["run", "mcmc", "--steps", "2", "--burn-in", "0"],
        ["run", "smc", "--prior", "PRIOR", "--steps", "2"],
        ["gen-prior"],
        ["compare", "--budget", "2"],
    ], ids=["smc", "mcmc", "smc-prior-file", "gen-prior", "compare"])
    def test_first_draw_without_scipy_exits_3(self, tmp_path, args):
        prior = _small_prior_file(tmp_path)
        out = tmp_path / "run"
        args = [str(prior) if arg == "PRIOR" else arg for arg in args]
        proc = _child(_MAIN_WITHOUT_SCIPY, [*args, "--out", str(out)])
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("abc-fuzz: environment error: normal draws need scipy")
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert not out.exists()


class TestNdtriAlone:
    """A run that draws loads scipy's ufunc module, never the scipy.special
    package, which would load some 280 modules more."""

    @pytest.mark.parametrize("args", [
        ["run", "smc", "--steps", "2"],
        ["run", "mcmc", "--prior", "PRIOR", "--steps", "2", "--burn-in", "0"],
    ], ids=["smc", "mcmc-prior-file"])
    def test_run_loads_the_ufunc_module_alone(self, tmp_path, args):
        prior = _small_prior_file(tmp_path)
        args = [str(prior) if arg == "PRIOR" else arg for arg in args]
        proc = _child(_MAIN_LISTING_SCIPY, [*args, "--out", str(tmp_path / "run")])
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.splitlines()[-1]
        assert "'scipy.special._ufuncs'" in loaded and "'scipy.special'" not in loaded


def _limited_child(args):
    """_MAIN_LISTING_SCIPY in a child with 1 GiB of address space and 10 s to run."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    return subprocess.run([sys.executable, "-c", _MAIN_LISTING_SCIPY, *args],
                          capture_output=True, text=True, timeout=10, preexec_fn=limit)


class TestInputFiles:
    """--config, --prior, --target and a likelihood.target key must name a
    regular file, and a config or target file may hold at most 16 MiB:
    anything else exits 2 at once with one line, leaving no output and
    loading no scipy."""

    @pytest.fixture(params=["dev-zero", "fifo", "directory"])
    def not_regular(self, request, tmp_path):
        if request.param == "dev-zero":
            return "/dev/zero"
        path = tmp_path / request.param
        if request.param == "fifo":
            os.mkfifo(path)
        else:
            path.mkdir()
        return str(path)

    def _assert_refused(self, tmp_path, args, message):
        out = tmp_path / "run"
        proc = _limited_child([*args, "--out", str(out)])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == [f"abc-fuzz: error: {message}"]
        assert proc.stdout == "[]\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        (["gen-prior"], "--config"),
        (["run", "smc"], "--config"),
        (["run", "mcmc"], "--prior"),
        (["run", "smc"], "--target"),
        (["compare", "--budget", "5"], "--target"),
    ], ids=["gen-prior-config", "run-config", "run-prior", "run-target", "compare-target"])
    def test_flag_naming_no_regular_file_exits_2(self, tmp_path, not_regular, command, flag):
        self._assert_refused(tmp_path, [*command, flag, not_regular],
                             f"{flag} {not_regular} is not a regular file")

    def test_target_key_naming_no_regular_file_exits_2(self, tmp_path, not_regular):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"likelihood": {"target": not_regular}}))
        self._assert_refused(tmp_path, ["run", "smc", "--config", str(config)],
                             f"likelihood.target {not_regular} is not a regular file")

    @pytest.mark.parametrize("flag", ["--config", "--target"])
    def test_file_past_the_cap_exits_2(self, tmp_path, flag):
        path = tmp_path / "big"
        with open(path, "wb") as fh:
            fh.truncate(cli._INPUT_CAP + 1)  # sparse: no 16 MiB written
        self._assert_refused(tmp_path, ["run", "smc", flag, str(path)],
                             f"{flag} {path} is larger than the 16 MiB cap")

    def test_config_file_at_the_cap_is_read(self, tmp_path):
        path = tmp_path / "config.json"
        text = json.dumps({"smc": {"n_steps": 2}})
        path.write_text(text + " " * (cli._INPUT_CAP - len(text)))
        assert main(["run", "smc", "--config", str(path), "--out", str(tmp_path / "run")]) == 0

    def test_nul_in_the_target_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"likelihood": {"target": "a\0b"}}))
        out = tmp_path / "run"
        assert main(["run", "smc", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "abc-fuzz: error: likelihood.target 'a\\x00b' is not a valid path: "
            "embedded null byte\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, message", [
        ("--config", "[Errno 2] No such file or directory: '{}'"),
        ("--prior", "{} not found."),
        ("--target", "{} not found."),
    ])
    def test_missing_file_still_exits_3(self, tmp_path, capsys, flag, message):
        path = str(tmp_path / "absent")
        out = tmp_path / "run"
        assert main(["run", "smc", flag, path, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"abc-fuzz: environment error: {message.format(path)}\n")
        assert not out.exists()


# Runs main in a child whose scipy.special cannot be imported, then prints
# which of scipy, mmap and multiprocessing it loaded.
_MAIN_WITHOUT_SCIPY_LISTING = """
import sys
sys.modules["scipy.special"] = None
from abcfuzz.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
loaded = {name.split(".")[0] for name, module in sys.modules.items() if module is not None}
print(sorted(loaded & {"scipy", "mmap", "multiprocessing"}))
sys.exit(code)
"""


class TestPriorReadWithoutScipy:
    """The CSV reader loads no scipy, so a scipy that cannot be imported is
    reported at the first draw, after the file is read."""

    def test_malformed_file_still_exits_2(self, tmp_path):
        prior = _small_prior_file(tmp_path, "x0,x1\n0.5,1.5\n2.5,3.5\n4.5\n")
        proc = _child(_MAIN_WITHOUT_SCIPY_LISTING,
                      ["run", "mcmc", "--prior", str(prior), "--out", str(tmp_path / "run")])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"abc-fuzz: error: particle CSV {prior} is malformed")
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

    def test_clean_file_exits_3_at_the_first_draw(self, tmp_path):
        prior = _small_prior_file(tmp_path)
        proc = _child(_MAIN_WITHOUT_SCIPY_LISTING,
                      ["run", "mcmc", "--prior", str(prior), "--out", str(tmp_path / "run")])
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("abc-fuzz: environment error: normal draws need scipy")
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

    @pytest.mark.parametrize("args", [[], ["--version"], ["run", "--help"]],
                             ids=["import", "version", "run-help"])
    def test_startup_loads_no_scipy_mmap_or_multiprocessing(self, args):
        proc = _child(_MAIN_WITHOUT_SCIPY_LISTING, args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("rows", [2, 3000], ids=["small", "3000-rows"])
    def test_read_loads_no_scipy(self, tmp_path, rows):
        text = "x0,x1\n" + "0.5,1.5\n" * rows
        code = ("import sys; from abcfuzz import report; "
                "report.read_particles_csv(sys.argv[1]); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = _child(code, [str(_small_prior_file(tmp_path, text))])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


# Runs main in a child whose orjson cannot be imported.
_MAIN_WITHOUT_ORJSON = ("import sys; sys.modules['orjson'] = None; "
                        "from abcfuzz.cli import main; sys.exit(main(sys.argv[1:]))")
# Runs main in a child and prints whether it loaded orjson.
_MAIN_LISTING_ORJSON = ("import sys; from abcfuzz.cli import main; code = main(sys.argv[1:]); "
                        "print('orjson' in sys.modules); sys.exit(code)")
# An orjson package that is found, but whose import fails.
_FAILING_ORJSON = 'raise ImportError("this orjson cannot be loaded")\n'


def _assert_names_orjson_and_leaves_nothing(proc, out):
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("abc-fuzz: environment error: CSV output needs orjson")
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert not out.exists()


class TestLazyOrjson:
    """orjson formats every CSV matrix and loads at the first one: a command
    that cannot find it exits 3 before its first artifact, and --version,
    config faults and compare, which writes line tables alone, never load it."""

    @pytest.mark.parametrize("args", [
        ["run", "smc", "--steps", "5"],
        ["run", "mcmc", "--steps", "5", "--burn-in", "0"],
        ["gen-prior"],
    ], ids=["smc", "mcmc", "gen-prior"])
    def test_missing_orjson_exits_3_before_any_artifact(self, tmp_path, args):
        out = tmp_path / "run"
        _assert_names_orjson_and_leaves_nothing(
            _child(_MAIN_WITHOUT_ORJSON, [*args, "--out", str(out)]), out)

    def test_compare_runs_without_orjson(self, tmp_path):
        out = tmp_path / "run"
        proc = _child(_MAIN_WITHOUT_ORJSON, ["compare", "--budget", "5", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert (out / "compare-table.csv").exists()

    @pytest.mark.parametrize("args, code", [
        (["--version"], 0),
        (["run", "mcmc", "--steps", "3", "--burn-in", "5"], 2),
    ], ids=["version", "config-fault"])
    def test_startup_and_config_faults_load_no_orjson(self, args, code):
        proc = _child(_MAIN_LISTING_ORJSON, args)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_small_write_loads_orjson(self, tmp_path):
        proc = _child(_MAIN_LISTING_ORJSON, ["gen-prior", "--out", str(tmp_path / "run")])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "True"

    def test_orjson_that_cannot_be_imported_exits_3_without_traceback(self, tmp_path):
        # found, so the run starts, but the first matrix formatted fails to load it
        (tmp_path / "stub" / "orjson").mkdir(parents=True)
        (tmp_path / "stub" / "orjson" / "__init__.py").write_text(_FAILING_ORJSON)
        out = tmp_path / "run"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(tmp_path / "stub"), *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run(
            [sys.executable, "-m", "abcfuzz.cli", "gen-prior", "--n", "3000", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=60)
        _assert_names_orjson_and_leaves_nothing(proc, out)
        assert "this orjson cannot be loaded" in proc.stderr


class TestPriorFileStd:
    """The std of a --prior file is read only for a derived scale, and its
    overflow prints nothing of its own."""

    @pytest.mark.parametrize("args, code, shown", [
        ([], 2, "abc-fuzz: error: likelihood scale derived as sqrt(n_dims) * std overflows"),
        (["--scale", "1", "--initial-index", "0"], 4, "abc-fuzz: degeneracy"),
    ], ids=["derived-scale", "given-scale"])
    def test_huge_prior_file_prints_one_line(self, tmp_path, args, code, shown):
        prior = _small_prior_file(tmp_path, "x0,x1\n1e308,1e308\n1e308,1e308\n")
        proc = subprocess.run(
            [sys.executable, "-m", "abcfuzz.cli", "run", "mcmc", "--prior", str(prior), *args,
             "--out", str(tmp_path / "run")],
            capture_output=True, text=True)
        assert proc.returncode == code
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith(shown)

    def test_constant_prior_file_gets_the_zero_std_scale(self, tmp_path):
        # a file whose values are all equal has std 0, like a generated --std 0
        # prior: both derive the scale LikelihoodConfig.for_prior gives std 0
        prior = _small_prior_file(tmp_path, "x0,x1,x2,x3\n0.25,0.25,0.25,0.25\n"
                                            "0.25,0.25,0.25,0.25\n")
        file_out, generated_out = tmp_path / "file", tmp_path / "generated"
        args = ["run", "mcmc", "--steps", "2", "--burn-in", "0"]
        assert main([*args, "--prior", str(prior), "--out", str(file_out)]) == 0
        assert main([*args, "--dims", "4", "--std", "0", "--out", str(generated_out)]) == 0
        scales = [_read_report(out)["config_echo"]["mcmc"]["likelihood"]["scale"]
                  for out in (file_out, generated_out)]
        assert scales == [LikelihoodConfig.for_prior(4, 0.0).scale] * 2 == [1.0, 1.0]

    @pytest.mark.parametrize("scale_from", ["flag", "file"])
    def test_std_is_not_read_for_a_given_scale(self, tmp_path, monkeypatch, scale_from):
        def unexpected(particles):
            raise AssertionError("the prior file's std was computed")

        monkeypatch.setattr(cli, "_estimated_std", unexpected)
        out = tmp_path / "run"
        args = ["run", "mcmc", "--prior", str(_small_prior_file(tmp_path)), "--steps", "2",
                "--burn-in", "0", "--out", str(out)]
        if scale_from == "flag":
            args += ["--scale", "2"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"likelihood": {"scale": 2}}))
            args += ["--config", str(config)]
        assert main(args) == 0
        assert _read_report(out)["config_echo"]["mcmc"]["likelihood"]["scale"] == 2


_MAX = repr(sys.float_info.max)


class TestNumericExtremes:
    """Flags at the float limits: no numpy warning reaches stderr (tier-1
    turns one into an error), and a derived scale that overflows names
    where its std came from."""

    @pytest.mark.parametrize("args, code", [
        (["run", "smc", "--scale", "5e-324", "--steps", "3"], 4),
        (["run", "mcmc", "--scale", "5e-324", "--steps", "3", "--burn-in", "1"], 4),
        (["run", "smc", "--alpha", "1e308", "--steps", "3"], 0),
        (["run", "mcmc", "--alpha", "1e308", "--steps", "3", "--burn-in", "1"], 4),
        (["run", "smc", "--step-std", "1e308", "--steps", "3"], 4),
        (["run", "smc", "--mean", _MAX, "--std", "0", "--step-std", "1e300", "--dims", "1",
          "--steps", "2"], 4),
        (["compare", "--budget", "2", "--mean", _MAX, "--std", "0", "--step-std", "1e300",
          "--dims", "1"], 4),
    ], ids=["smc-tiny-scale", "mcmc-tiny-scale", "smc-huge-alpha", "mcmc-huge-alpha",
            "smc-huge-step-std", "smc-moved-past-the-ceiling", "compare-moved-past-the-ceiling"])
    def test_overflowing_score_prints_at_most_one_line(self, tmp_path, capsys, args, code):
        assert main([*args, "--out", str(tmp_path / "run")]) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == (0 if code == 0 else 1), err
        if code == 4:
            assert err.startswith("abc-fuzz: degeneracy (step 0)")

    @pytest.mark.parametrize("args, step", [
        (["run", "smc", "--n", "3", "--dims", "2", "--steps", "3"], 0),
        (["run", "mcmc", "--dims", "1", "--steps", "3", "--burn-in", "0"], 1),
        (["compare", "--budget", "3", "--n", "3", "--dims", "2"], 0),
    ], ids=["smc", "mcmc", "compare"])
    def test_nan_score_names_alpha(self, tmp_path, capsys, args, step):
        # a step std at the float ceiling moves a first coordinate to inf,
        # and alpha 0 times inf is NaN
        out = tmp_path / "run"
        assert main([*args, "--alpha", "0", "--step-std", _MAX, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"abc-fuzz: error: log-likelihood is NaN at step {step}: a particle coordinate "
            "overflowed to inf, and with alpha 0.0 its score has no value\n")

    @pytest.mark.parametrize("args, shown", [
        (["compare", "--budget", "5", "--std", "1e308"], "sqrt(100) * 1e+308"),
        (["run", "smc", "--std", "1e307", "--dims", "1000", "--steps", "2"],
         "sqrt(1000) * 1e+307"),
    ], ids=["compare", "run-smc"])
    def test_derived_scale_overflow_names_the_std(self, tmp_path, capsys, args, shown):
        out = tmp_path / "run"
        assert main([*args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("abc-fuzz: error: likelihood scale derived as sqrt(n_dims) * std "
                       f"overflows: {shown}, std from --std/std_dev; set --scale or "
                       "likelihood.scale\n")
        assert not out.exists()

    @pytest.mark.parametrize("args, moments", [
        (["--std", "0", "--step-std", "3e153", "--scale", "1e160", "--initial-index", "0",
          "--steps", "400"], "std"),
        (["--mean", "1.5e308", "--std", "0", "--target", "TARGET", "--scale", "1",
          "--steps", "50"], "mean and std"),
    ], ids=["squares-overflow", "sum-overflows"])
    def test_overflowing_trace_summary_leaves_no_artifact(self, tmp_path, capsys, args,
                                                           moments):
        # every state is finite, but the summary's sums of them overflow
        target = tmp_path / "target.csv"
        target.write_text("x0\n1.5e308\n")
        args = [str(target) if word == "TARGET" else word for word in args]
        out = tmp_path / "run"
        assert main(["run", "mcmc", "--dims", "1", "--alpha", "0", "--burn-in", "2", *args,
                     "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"abc-fuzz: degeneracy: trace summary overflows the float range in {moments}\n")
        assert not out.exists()

    def test_derived_scale_overflow_names_the_prior_file(self, tmp_path, capsys):
        prior = _small_prior_file(tmp_path, "x0,x1\n1e308,1e308\n1e308,1e308\n")
        out = tmp_path / "run"
        assert main(["run", "mcmc", "--prior", str(prior), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("abc-fuzz: error: likelihood scale derived as sqrt(n_dims) * std "
                       f"overflows: sqrt(2) * inf, std of the values in --prior file {prior}; "
                       "set --scale or likelihood.scale\n")
        assert not out.exists()


# 1e154 is about sqrt(max): its square overflows while the value stays finite
_LIMITS = (0.0, 5e-324, 1e-300, 1e154, 1e300, 1e307, 1e308, sys.float_info.max)
_REAL = st.sampled_from([*_LIMITS, *(-v for v in _LIMITS)])
# a size between 3 and 10**20 could allocate gigabytes or run for minutes
_SIZE = st.sampled_from([0, 1, 2, 3, 10**20, 2**64])
_SEED = st.sampled_from([0, 2**64 - 1, 2**64])
_PRIOR_FLAGS = {"--n": _SIZE, "--dims": _SIZE, "--mean": _REAL, "--std": _REAL,
                "--zero-fraction": _REAL}
_SAMPLER_FLAGS = {**_PRIOR_FLAGS, "--step-std": _REAL, "--alpha": _REAL, "--scale": _REAL,
                  "--seed": _SEED, "--oracle-timeout": _REAL}
_NONNEGATIVE = st.sampled_from(_LIMITS)
_POSITIVE = st.sampled_from(_LIMITS[1:])
# The limits each real flag's parser accepts; --oracle-timeout accepts
# positive values, and with the range oracle every one of them exits 2.
_ACCEPTED_REALS = {"--mean": _REAL, "--std": _NONNEGATIVE, "--step-std": _NONNEGATIVE,
                   "--alpha": _NONNEGATIVE, "--scale": st.sampled_from(_LIMITS[1:]),
                   "--zero-fraction": st.sampled_from(_LIMITS[:3])}
# Per command: its size flags with the small value each takes unless drawn
# (so no default size applies), and every numeric flag with its values.
_NUMERIC_FLAGS = {
    ("gen-prior",): ({"--n": 1, "--dims": 1}, {**_PRIOR_FLAGS, "--seed": _SEED}),
    ("run", "smc"): ({"--n": 1, "--dims": 1, "--steps": 1},
                     {**_SAMPLER_FLAGS, "--steps": _SIZE, "--prior-seed": _SEED}),
    ("run", "mcmc"): ({"--n": 1, "--dims": 1, "--steps": 1, "--burn-in": 0},
                      {**_SAMPLER_FLAGS, "--steps": _SIZE, "--prior-seed": _SEED,
                       "--burn-in": _SIZE, "--initial-index": _SIZE}),
    ("compare",): ({"--budget": 1, "--n": 1, "--dims": 1}, {**_SAMPLER_FLAGS, "--budget": _SIZE}),
}
# The sampler commands again, each particle judged by a child process, with
# --oracle-timeout drawn from the positive limits, which its parser accepts.
_EXEC_TRUE = "--oracle=exec:true"
_NUMERIC_FLAGS.update({
    (*command, _EXEC_TRUE): (small, {**limits, "--oracle-timeout": _POSITIVE})
    for command, (small, limits) in list(_NUMERIC_FLAGS.items()) if command != ("gen-prior",)
})


def _names_of(flags) -> list:
    """The flags given plus the config keys they set, per cli._FLAG_FIELDS."""
    names = list(flags)
    for flag in flags:
        dest = flag[2:].replace("-", "_")
        names += [fields[dest] for fields in cli._FLAG_FIELDS.values() if dest in fields]
    return names


def _mentions(text: str, names) -> bool:
    return any(re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", text) for name in names)


def _run_at_limits(tmp_path_factory, command, flags):
    """Run ``command`` with ``flags`` in process and check the exit-code
    contract: 0, 2, 3 or 4, no traceback or warning, nothing on stderr on
    success, and otherwise one line that says which flag or key is at fault."""
    # each value as a separate word, so a negative one in exponent form
    # ("-1e308") must still be read as the flag's value
    argv = [*command, *(word for flag, value in flags.items() for word in (flag, repr(value))),
            "--out", str(tmp_path_factory.mktemp("limits") / "run")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err and "Warning" not in err, err
    if code == 0:
        assert err == ""
        return
    lines = err.splitlines()
    if lines[0].startswith("usage: "):  # argparse names the flag it rejects
        assert code == 2
        assert re.fullmatch(r"abc-fuzz [\w -]+: error: argument --[\w-]+: .+", lines[-1]), err
        assert _mentions(lines[-1], flags), err
        assert "expected one argument" not in lines[-1], err  # a value read as a flag
        assert not any("error:" in line for line in lines[:-1]), err
        return
    assert len(lines) == 1, err
    if code == 2:
        assert lines[0].startswith("abc-fuzz: error: "), err
        assert _mentions(lines[0], _names_of(flags)) or "overflows" in lines[0], err
    elif code == 3:
        assert lines[0].startswith("abc-fuzz: environment error: "), err
    else:
        assert lines[0].startswith("abc-fuzz: degeneracy"), err


class TestNumericFlagsProperty:
    """Numeric flags at the float and integer limits keep the exit-code contract."""

    @pytest.mark.parametrize("command", list(_NUMERIC_FLAGS), ids=" ".join)
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_any_limit_keeps_the_exit_code_contract(self, tmp_path_factory, command, data):
        small, limits = _NUMERIC_FLAGS[command]
        # a few flags at their limits, so that most runs get past argparse
        drawn = data.draw(st.lists(st.sampled_from(sorted(limits)), max_size=3, unique=True))
        flags = {**small, **{flag: data.draw(limits[flag], label=flag) for flag in drawn}}
        _run_at_limits(tmp_path_factory, command, flags)

    @pytest.mark.parametrize("command", list(_NUMERIC_FLAGS), ids=" ".join)
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_accepted_limits_together_keep_the_exit_code_contract(self, tmp_path_factory,
                                                                   command, data):
        # every real flag at once, each at a limit its parser accepts, so the
        # samplers run with every value near the float ceiling or floor
        small, limits = _NUMERIC_FLAGS[command]
        accepted = _ACCEPTED_REALS
        if _EXEC_TRUE in command:
            accepted = {**accepted, "--oracle-timeout": _POSITIVE}
        flags = dict(small)
        for flag in sorted(limits.keys() & accepted.keys()):
            flags[flag] = data.draw(accepted[flag], label=flag)
        _run_at_limits(tmp_path_factory, command, flags)


# Runs main in a child whose process starts all raise, then prints the starts tried.
_MAIN_REFUSING_STARTS = REFUSING_STARTS + """
from abcfuzz.cli import main
code = main(sys.argv[1:])
print(tried)
sys.exit(code)
"""


class TestEnvironment:
    def test_out_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ABC_FUZZ_OUT", str(tmp_path / "root"))
        assert main(["gen-prior", "--seed", "5"]) == 0
        assert (tmp_path / "root" / "gen-prior-seed5" / "report.json").exists()

    def test_empty_out_root_env_var_means_unset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ABC_FUZZ_OUT", "")
        monkeypatch.chdir(tmp_path)
        assert main(["gen-prior", "--seed", "5"]) == 0
        assert (tmp_path / "out" / "gen-prior-seed5" / "report.json").exists()

    def test_cli_import_loads_no_writer_pool_module(self, tmp_path):
        # scipy loads at the first normal draw; mmap and multiprocessing never
        # load, and 3000x100 CSV matrices, 300000 cells, are written in process
        startup = [["-c", "import abcfuzz.cli"], ["-m", "abcfuzz.cli", "--version"],
                   ["-m", "abcfuzz.cli", "run", "--help"]]
        writes = [["-c", _MAIN_REFUSING_STARTS, *args, "--out", str(tmp_path / args[0])]
                  for args in (["run", "smc", "--steps", "3000"], ["gen-prior", "--n", "3000"])]
        for argv in startup + writes:
            proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                      if line.startswith("import time:")}
            assert "abcfuzz.core" in loaded
            unwanted = {"mmap", "multiprocessing"} | ({"scipy"} if argv in startup else set())
            assert not {name.split(".")[0] for name in loaded} & unwanted, argv
            if argv in writes:
                assert proc.stdout.splitlines()[-1] == "[]", argv  # no process start tried

    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "abcfuzz.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "abc-fuzz" in proc.stdout


def _env_without_blas_threads(**extra):
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    return {**env, **extra}


class TestBlasThreads:
    """The CLI runs on one OpenBLAS thread unless its caller chose a count, and
    an exec-oracle child gets the caller's environment either way."""

    @staticmethod
    def _run_with_oracle(tmp_path, script, env):
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "abcfuzz.cli", "run", "smc", "--n", "3", "--dims", "2",
             "--steps", "2", "--oracle", "exec:" + shlex.join(["sh", "-c", script]),
             "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return _read_report(out)

    @pytest.mark.parametrize("caller, script", [
        (None, 'test -z "${OPENBLAS_NUM_THREADS+x}"'),
        ("3", 'test "$OPENBLAS_NUM_THREADS" = 3'),
    ], ids=["unset", "caller-3"])
    def test_exec_oracle_child_sees_the_callers_value(self, tmp_path, caller, script):
        extra = {} if caller is None else {"OPENBLAS_NUM_THREADS": caller}
        report = self._run_with_oracle(tmp_path, script, _env_without_blas_threads(**extra))
        assert report["prior_pass_rate"] == report["posterior_pass_rate"] == 1.0

    def test_exec_oracle_child_environment_equals_the_callers(self, tmp_path):
        dump = tmp_path / "env.json"
        env = _env_without_blas_threads()
        self._run_with_oracle(tmp_path, f"{shlex.quote(sys.executable)} -c "
                              f"'import json, os; print(json.dumps(dict(os.environ)))' "
                              f"> {shlex.quote(str(dump))}", env)
        child = json.loads(dump.read_text())
        for added in ("PWD", "SHLVL", "_"):  # set by the shell between the two
            child.pop(added, None)
            env.pop(added, None)
        assert child == env

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_one_thread_after_a_first_normal_draw(self):
        code = ("import os, sys, abcfuzz.cli; from abcfuzz import RandomSource; "
                "RandomSource(0).standard_normal(1); assert 'scipy' in sys.modules; "
                "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_env_without_blas_threads())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "1"]
