"""Report persistence: JSON round-trips, CSV dumps, plot-data files."""

import ast
import contextlib
import errno
import json
import os
import signal
import subprocess
import sys
import time
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from abcfuzz import (
    ENGINE_VERSION,
    ConfigError,
    LikelihoodConfig,
    McmcConfig,
    ParticleSet,
    PriorConfig,
    SmcConfig,
    emit_plot_data,
    generate_prior,
    read_particles_csv,
    run_mcmc,
    run_smc,
    write_particles_csv,
    write_report,
)
from abcfuzz import cli, core, report, smc
from abcfuzz.cli import main
from abcfuzz.report import write_csv, write_json, write_lines
from support import REFUSING_STARTS, assert_read_only, running


def _payload(**overrides):
    return {
        "sampler": "smc",
        "seed": 42,
        "config_echo": {"smc": {"n_steps": 10}},
        "prior_pass_rate": 0.3,
        "posterior_pass_rate": 0.897,
        "oracle_calls": 20,
        "diagnostics": {"ess_final": 5.5},
        **overrides,
    }


def _read_back(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _without_timestamp(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith('  "timestamp": '))


class TestWriteReport:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(_payload(), path)
        data = _read_back(path)
        assert data.pop("engine_version") == ENGINE_VERSION
        stamp = datetime.fromisoformat(data.pop("timestamp"))
        assert stamp.utcoffset() == timedelta(0)
        assert data == _payload()

    def test_posterior_rate_survives_at_full_precision(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(_payload(posterior_pass_rate=0.897), path)
        assert _read_back(path)["posterior_pass_rate"] == 0.897

    def test_same_content_differs_only_in_timestamp(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(_payload(), a)
        write_report(_payload(), b)
        assert _without_timestamp(a.read_text()) == _without_timestamp(b.read_text())
        assert a.read_text() != _without_timestamp(a.read_text())

    def test_stable_key_order(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(_payload(), path)
        first = _without_timestamp(path.read_text())
        write_report(_payload(), path)
        assert _without_timestamp(path.read_text()) == first
        keys = list(_read_back(path).keys())
        assert keys == sorted(keys)

    def test_files_end_with_newline(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(_payload(), path)
        assert path.read_bytes().endswith(b"\n")


# Reads the particle CSV named by its first argument in a child whose process
# starts all raise, then prints the matrix shape, the process starts tried
# and which of mmap and multiprocessing the child loaded.
_READ_IN_A_CHILD = REFUSING_STARTS + """
from abcfuzz import read_particles_csv
print(read_particles_csv(sys.argv[1]).values.shape)
print(tried)
print(sorted({"mmap", "multiprocessing"} & set(sys.modules)))
"""


class TestParticleCsv:
    def test_round_trip_is_bitwise_lossless(self, tmp_path):
        prior = generate_prior(PriorConfig(n_particles=6, n_dims=5, seed=3))
        path = tmp_path / "particles.csv"
        write_particles_csv(prior, path)
        loaded = read_particles_csv(path)
        assert loaded.values.tobytes() == prior.values.tobytes()

    def test_header_and_trailing_newline(self, tmp_path):
        path = tmp_path / "particles.csv"
        write_particles_csv(ParticleSet([[1.0, 2.0]]), path)
        text = path.read_text()
        assert text.startswith("x0,x1\n")
        assert text.endswith("\n")
        assert len(text.splitlines()) == 2

    def test_bad_cells_rejected(self, tmp_path):
        path = tmp_path / "particles.csv"
        path.write_text("x0,x1\n1.0,oops\n")
        with pytest.raises(ConfigError):
            read_particles_csv(path)

    def test_missing_rows_rejected(self, tmp_path):
        path = tmp_path / "particles.csv"
        path.write_text("x0,x1\n")
        with pytest.raises(ConfigError, match="particles.csv"):
            read_particles_csv(path)

    def test_ragged_rows_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x0,x1\n1.0,2.0\n3.0\n")
        with pytest.raises(ConfigError, match="ragged.csv"):
            read_particles_csv(path)

    def test_non_finite_cells_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("x0,x1\n1.0,inf\n")
        with pytest.raises(ConfigError, match="inf.csv"):
            read_particles_csv(path)

    def test_blank_lines_and_single_column_load(self, tmp_path):
        path = tmp_path / "column.csv"
        path.write_text("x0\n1.5\n\n-2.0\n")
        assert read_particles_csv(path).values.tolist() == [[1.5], [-2.0]]

    def test_read_set_is_read_only(self, tmp_path):
        path = tmp_path / "prior.csv"
        write_particles_csv(generate_prior(PriorConfig(n_particles=40, n_dims=10, seed=8)), path)
        assert_read_only(read_particles_csv(path))

    def test_large_read_starts_no_process(self, tmp_path):
        # a 3000x100 prior is parsed in process: the read loads neither
        # multiprocessing nor mmap, and forks nothing
        path = tmp_path / "prior.csv"
        rows, cols = 3000, 100
        np.savetxt(path, np.random.default_rng(1).normal(size=(rows, cols)), delimiter=",",
                   header=",".join(f"x{i}" for i in range(cols)), comments="")
        proc = subprocess.run([sys.executable, "-c", _READ_IN_A_CHILD, str(path)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [f"{(rows, cols)}", "[]", "[]"]


@pytest.fixture(scope="module")
def small_prior():
    return generate_prior(PriorConfig(n_particles=10, n_dims=6, seed=1))


@pytest.fixture(scope="module")
def smc_result(small_prior):
    cfg = SmcConfig(likelihood=LikelihoodConfig.for_prior(6, 10.0), n_steps=12, seed=2)
    return run_smc(small_prior, cfg)


@pytest.fixture(scope="module")
def mcmc_result(small_prior):
    cfg = McmcConfig(likelihood=LikelihoodConfig.for_prior(6, 10.0),
                     n_steps=15, burn_in=3, seed=2)
    return run_mcmc(small_prior, cfg)


class TestPlotData:
    def test_histogram_rows_and_slice_flags(self, tmp_path, small_prior):
        path = tmp_path / "hist.dat"
        emit_plot_data(small_prior, "prior-histogram-data", path, zeroed=3)
        lines = path.read_text().splitlines()
        assert lines[0] == "x0,in_slice"
        assert len(lines) == 1 + small_prior.n
        flags = [int(line.split(",")[1]) for line in lines[1:]]
        assert flags == [1, 1, 1] + [0] * 7

    def test_surface_columns_equal_dims_1_to_3_verbatim(self, tmp_path, small_prior):
        path = tmp_path / "surface.dat"
        emit_plot_data(small_prior, "dims-1-3-surface-data", path)
        rows = np.array([[float(c) for c in line.split(",")]
                         for line in path.read_text().splitlines()[1:]])
        np.testing.assert_array_equal(rows, small_prior.values[:, 1:4])

    def test_surface_needs_at_least_four_dims(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_plot_data(ParticleSet([[1.0, 2.0, 3.0]]), "dims-1-3-surface-data",
                           tmp_path / "surface.dat")

    def test_trace_rows_match_step_count(self, tmp_path, mcmc_result):
        path, trace = tmp_path / "trace.dat", mcmc_result.trace_dim0
        write_lines([range(trace.size), trace], [(path, "step,x0", None)])
        lines = path.read_text().splitlines()
        assert lines[0] == "step,x0"
        assert len(lines) == 1 + 15
        assert float(lines[1].split(",")[1]) == trace[0]
        assert path.read_text() == _joined("step,x0", zip(range(15), trace.tolist()))

    def test_weights_file_has_delta_column(self, tmp_path, smc_result):
        path = tmp_path / "weights.dat"
        sums, ess = smc_result.weight_sum_series, smc_result.ess_series
        delta = np.abs(np.diff(sums, prepend=np.nan))
        write_lines([range(sums.size), sums, ess],
                    [(path, "step,log_weight_sum,ess,delta", delta)])
        lines = path.read_text().splitlines()
        assert lines[0] == "step,log_weight_sum,ess,delta"
        assert len(lines) == 1 + 12
        first = lines[1].split(",")
        assert first[3] == "nan"  # no previous step to diff against
        second = lines[2].split(",")
        assert float(second[3]) == abs(sums[1] - sums[0])
        assert path.read_text() == _joined("step,log_weight_sum,ess,delta", zip(
            range(12), sums.tolist(), ess.tolist(), delta.tolist()))

    def test_kind_result_mismatch_rejected(self, tmp_path, smc_result, small_prior):
        with pytest.raises(ConfigError):
            emit_plot_data(smc_result, "mcmc-trace-data", tmp_path / "x.dat")
        with pytest.raises(ConfigError):
            emit_plot_data(small_prior, "smc-weights-data", tmp_path / "x.dat")
        with pytest.raises(ConfigError):
            emit_plot_data(small_prior, "no-such-kind", tmp_path / "x.dat")
        with pytest.raises(ConfigError, match="needs a ParticleSet"):
            emit_plot_data(smc_result, "prior-histogram-data", tmp_path / "x.dat")


def test_report_imports_only_core():
    # the file layer knows no sampler: each series writer takes plain arrays
    tree = ast.parse(Path(report.__file__).read_text(encoding="utf-8"))
    relative = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level]
    assert relative and set(relative) == {"core"}


def test_write_json_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        write_json({"x": float("nan")}, tmp_path / "bad.json")


# repr prints the first three past the ends of [1e-4, 1e16) with an
# exponent; the last three are the ends themselves, printed without one.
SPECIAL_VALUES = [-0.0, 5e-324, 1e16, 1e-05, 1.7976931348623157e308,
                  1e-4, 9.999999999999999e-05, 9999999999999998.0]


@pytest.fixture
def small_chunks(monkeypatch):
    """6-cell chunks, so that small matrices cross chunk boundaries. Returns
    the list of the row counts of the chunks formatted, in order."""
    monkeypatch.setattr(report, "CHUNK_CELLS", 6)
    formatted, format_rows = [], report._format_rows

    def logged(rows):
        formatted.append(len(rows))
        return format_rows(rows)

    monkeypatch.setattr(report, "_format_rows", logged)
    return formatted


def _interrupting(function):
    """Wrap ``function`` so that its first call sends this process one SIGINT."""
    sent = []

    def interrupt(*args):
        if not sent:
            sent.append(signal.SIGINT)
            os.kill(os.getpid(), signal.SIGINT)
        return function(*args)

    return interrupt


def _failing_second_call(function):
    """Wrap ``function`` so that its second call raises a full disk's OSError."""
    calls = []

    def fail(*args):
        calls.append(len(calls))
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return function(*args)

    return fail


class TestCsvWriter:
    @pytest.mark.parametrize("matrix", [
        np.arange(21.0).reshape(7, 3) / 7,          # 2 rows a chunk, partial last chunk
        np.array([[0.1, -2.5, 3e-300, 7.0, 1e100, 0.3, 0.7, -1.0]]),  # one row
        np.linspace(-1.0, 1.0, 10).reshape(10, 1),   # one column
        np.array([SPECIAL_VALUES] * 3),
        np.array([SPECIAL_VALUES] * 3).T.copy(),
    ], ids=["partial-last-chunk", "one-row", "one-column", "special-rows", "special-columns"])
    def test_chunked_bytes_equal_per_row_repr(self, tmp_path, small_chunks, matrix):
        path = tmp_path / "chunked.csv"
        write_csv(path, ["h"], matrix)
        assert sum(small_chunks) == len(matrix)
        assert path.read_bytes() == b"h\n" + _per_row_text(matrix).encode("ascii")

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, object])
    def test_matrices_other_than_float64_are_rejected(self, tmp_path, small_chunks, dtype):
        # the formatter prints float64 texts and compares rows by their 64-bit patterns
        with pytest.raises(ConfigError, match="float64 values, got"):
            with cli._staged(tmp_path / "run") as stage:
                write_csv(stage / "m.csv", ["h"], np.ones((3, 2), dtype=dtype))
        assert list(tmp_path.iterdir()) == []

    def test_special_values_keep_their_repr(self, tmp_path, small_chunks):
        path = tmp_path / "special.csv"
        write_csv(path, ["h"], np.array([SPECIAL_VALUES] * 2))
        line = ",".join(map(repr, SPECIAL_VALUES))
        assert path.read_text() == f"h\n{line}\n{line}\n"
        assert line == ("-0.0,5e-324,1e+16,1e-05,1.7976931348623157e+308,"
                        "0.0001,9.999999999999999e-05,9999999999999998.0")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_cells_keep_their_repr(self, tmp_path, small_chunks, value):
        # such a row is joined from repr, the rows around it by orjson
        matrix = np.array([[0.5, 1.0], [value, 2.0], [value, 2.0], [0.25, value]])
        path = tmp_path / "m.csv"
        write_csv(path, ["h"], matrix)
        assert path.read_bytes() == b"h\n" + _per_row_text(matrix).encode("ascii")
        assert repr(value).encode() in path.read_bytes()

    @pytest.mark.parametrize("layout", [
        lambda m: m.copy(),
        np.asfortranarray,
        lambda m: np.repeat(m, 2, axis=1)[:, ::2],
        lambda m: m[::-1],
    ], ids=["c-order", "fortran-order", "strided-columns", "reversed-rows"])
    def test_any_memory_layout_writes_its_rows(self, tmp_path, small_chunks, layout):
        matrix = layout(np.vstack([np.arange(21.0).reshape(7, 3) / 7, [SPECIAL_VALUES[:3]] * 2]))
        path = tmp_path / "m.csv"
        write_csv(path, ["h"], matrix)
        assert sum(small_chunks) == 9
        assert path.read_bytes() == b"h\n" + _per_row_text(matrix).encode("ascii")

    def test_an_empty_matrix_writes_the_header_alone(self, tmp_path, small_chunks):
        write_csv(tmp_path / "m.csv", ["x0", "x1"], np.empty((0, 2)))
        assert (tmp_path / "m.csv").read_bytes() == b"x0,x1\n"
        assert small_chunks == []

    def test_particle_csv_round_trips_across_chunks(self, tmp_path, small_chunks):
        prior = generate_prior(PriorConfig(n_particles=9, n_dims=4, seed=5))
        path = tmp_path / "prior.csv"
        write_particles_csv(prior, path)
        assert read_particles_csv(path).values.tobytes() == prior.values.tobytes()

    def test_failed_write_exits_3_without_traceback(self, tmp_path, monkeypatch, capfd,
                                                    small_chunks):
        monkeypatch.setattr(report, "_format_rows", _failing_second_call(report._format_rows))
        out = tmp_path / "run"
        assert main(["gen-prior", "--n", "40", "--dims", "10", "--out", str(out)]) == 3
        # named as the output directory, never as the staging directory
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(out))
        assert capfd.readouterr().err == f"abc-fuzz: environment error: {full}\n"
        assert not out.exists()

    def test_one_interrupt_leaves_no_tmp(self, tmp_path, monkeypatch, small_chunks):
        monkeypatch.setattr(report, "_format_rows", _interrupting(report._format_rows))
        with pytest.raises(KeyboardInterrupt):
            with cli._staged(tmp_path / "run") as stage:
                write_csv(stage / "big.csv", ["h"], np.ones((200, 3)))
        assert list(tmp_path.iterdir()) == []

    def test_interrupt_through_main_exits_130_without_traceback(self, tmp_path, monkeypatch,
                                                                 capfd, small_chunks):
        monkeypatch.setattr(report, "_format_rows", _interrupting(report._format_rows))
        out = tmp_path / "run"
        assert main(["gen-prior", "--n", "40", "--dims", "10", "--out", str(out)]) == 130
        err = capfd.readouterr().err
        assert err == "abc-fuzz: interrupted\n"
        assert not out.exists()


# Runs the command in argv[2:] in a child whose writer, on 6-cell chunks,
# creates the file argv[1], then holds each chunk for 0.5 s before formatting
# it, so that the child can be signalled while it writes.
_HOLDING_WRITER = """
import sys, time
from pathlib import Path
from abcfuzz import report
from abcfuzz.cli import main
report.CHUNK_CELLS = 6
format_rows = report._format_rows

def held(rows):
    Path(sys.argv[1]).touch()
    time.sleep(0.5)
    return format_rows(rows)

report._format_rows = held
sys.exit(main(sys.argv[2:]))
"""


def _holding_gen_prior(tmp_path, n=40, preexec_fn=None):
    """gen-prior of ``n`` rows in a _HOLDING_WRITER child, in a session of
    its own, once its writer holds a chunk."""
    held = tmp_path / "writer-holds"
    proc = subprocess.Popen(
        [sys.executable, "-c", _HOLDING_WRITER, str(held),
         "gen-prior", "--n", str(n), "--dims", "10", "--out", str(tmp_path / "run")],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, start_new_session=True,
        preexec_fn=preexec_fn)
    deadline = time.monotonic() + 10
    while not held.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    return proc


def _exited(proc):
    """``proc``'s return code and stderr once it exits, killed after 10 s."""
    try:
        _, err = proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
    return proc.returncode, err


class TestStopSignals:
    """SIGTERM and SIGHUP exit like Ctrl-C: 128 + signum, one line on
    stderr, and no staging directory or oracle child left."""

    @pytest.mark.usefixtures("default_sighup")
    @pytest.mark.parametrize("signum, code", [(signal.SIGTERM, 143), (signal.SIGHUP, 129)],
                             ids=["sigterm", "sighup"])
    def test_signal_while_the_writer_writes_leaves_no_tmp(self, tmp_path, signum, code):
        proc = _holding_gen_prior(tmp_path)
        proc.send_signal(signum)
        returncode, err = _exited(proc)
        assert returncode == code, err
        assert err == "abc-fuzz: terminated\n"
        assert not list(tmp_path.rglob(".partial-*"))
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGHUP],
                             ids=["sigterm", "sighup"])
    def test_a_signal_the_caller_ignores_stays_ignored(self, tmp_path, signum):
        # as under nohup: the run outlives a hangup
        proc = _holding_gen_prior(tmp_path, n=4,
                                  preexec_fn=lambda: signal.signal(signum, signal.SIG_IGN))
        os.killpg(proc.pid, signum)
        returncode, err = _exited(proc)
        assert returncode == 0, err
        assert err == ""
        assert len((tmp_path / "run" / "prior.csv").read_text().splitlines()) == 5
        assert (tmp_path / "run" / "report.json").exists()
        assert not list((tmp_path / "run").glob(".partial-*"))

    @pytest.mark.usefixtures("default_sighup")
    @pytest.mark.parametrize("signum, code", [(signal.SIGTERM, 143), (signal.SIGHUP, 129)],
                             ids=["sigterm", "sighup"])
    def test_signal_during_a_verdict_kills_the_oracle_child(self, tmp_path, signum, code):
        returncode, err, gone = _signalled_mid_verdict(
            tmp_path, "echo $$ > {pid_file}; exec sleep 30", signum)
        assert gone
        assert returncode == code, err
        assert err == "abc-fuzz: terminated\n"

    def test_signal_during_a_verdict_kills_the_oracle_childs_children(self, tmp_path):
        returncode, err, gone = _signalled_mid_verdict(
            tmp_path, "sleep 30 & echo $! > {pid_file}; wait", signal.SIGTERM)
        assert gone
        assert returncode == 143, err


def _signalled_mid_verdict(tmp_path, script, signum):
    """``run smc`` with the exec oracle ``sh -c 'read x; SCRIPT'``, where
    SCRIPT writes the pid to watch to ``{pid_file}``, sent ``signum`` once
    that pid is written: the CLI's exit code and stderr, and whether the
    watched process stopped within 1 s of the signal."""
    # the child reads a payload line first, so once its pid is written
    # the parent is inside the verdict, past the spawn
    pid_file = tmp_path / "child.pid"
    command = f"sh -c 'read x; {script.format(pid_file=pid_file)}'"
    with subprocess.Popen(
            [sys.executable, "-m", "abcfuzz.cli", "run", "smc", "--oracle",
             f"exec:{command}", "--oracle-timeout", "60", "--out", str(tmp_path / "run")],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True) as proc:
        try:
            deadline = time.monotonic() + 10
            while not (pid_file.exists() and pid_file.read_text().strip()):
                assert time.monotonic() < deadline, "the oracle child never started"
                time.sleep(0.01)
            child = int(pid_file.read_text())
            proc.send_signal(signum)
            signalled = time.monotonic()
            _, err = proc.communicate(timeout=10)
            while running(child) and time.monotonic() - signalled < 1:
                time.sleep(0.01)
            gone = not running(child)
        except BaseException:  # leave neither process running
            proc.kill()
            with contextlib.suppress(OSError, ValueError):
                os.kill(int(pid_file.read_text()), signal.SIGKILL)
            raise
    if not gone:  # the caller fails; leave no process running
        with contextlib.suppress(ProcessLookupError):
            os.kill(child, signal.SIGKILL)
    return proc.returncode, err, gone


def _per_row_text(matrix) -> str:
    """The plain formatter: every row printed on its own."""
    return "".join(",".join(map(repr, row)) + "\n" for row in matrix.tolist())


def _csv_bytes(tmp_path, matrix, chunk_rows) -> bytes:
    """The bytes of ``matrix`` written in chunks of ``chunk_rows`` rows under the header "h"."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "CHUNK_CELLS", chunk_rows * matrix.shape[1])
        write_csv(tmp_path / "m.csv", ["h"], matrix)
    return (tmp_path / "m.csv").read_bytes()


# Runs of one row: a matrix whose rows mostly repeat the row before them,
# as a Metropolis chain's rejected proposals do.
_RUN_CELLS = st.sampled_from([0.0, *SPECIAL_VALUES])
_RUNS_OF_ROWS = st.integers(1, 3).flatmap(lambda cols: st.lists(
    st.tuples(st.lists(_RUN_CELLS, min_size=cols, max_size=cols), st.integers(1, 4)),
    min_size=1, max_size=6))


class TestRepeatedRows:
    """A row whose bits equal the previous row's reuses its text; the bytes
    equal a plain per-row formatter's, in chunks of any size."""

    @settings(max_examples=30, deadline=None)
    @given(runs=_RUNS_OF_ROWS, chunk_rows=st.integers(1, 5))
    def test_runs_of_rows_print_like_every_row(self, tmp_path_factory, runs, chunk_rows):
        matrix = np.array([row for row, count in runs for _ in range(count)])
        text = _per_row_text(matrix).encode("ascii")
        assert report._format_rows(matrix) == text
        assert _csv_bytes(tmp_path_factory.mktemp("runs"), matrix, chunk_rows) == b"h\n" + text

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3], ids=["one-row-chunks", "2", "3"])
    def test_zero_and_negative_zero_rows_print_apart(self, tmp_path, chunk_rows):
        matrix = np.array([[0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.0, -0.0]])
        assert _csv_bytes(tmp_path, matrix, chunk_rows) == (
            b"h\n0.0,1.0\n-0.0,1.0\n-0.0,1.0\n0.0,1.0\n0.0,-0.0\n")

    @pytest.mark.parametrize("chunk_rows", [1, 2, 4], ids=["one-row-chunks", "2", "4"])
    def test_repeats_across_a_chunk_boundary(self, tmp_path, chunk_rows):
        # rows 1-5 repeat one state, so every chunk boundary falls inside a run
        matrix = np.array([[0.5, 2.0]] + [[1e-05, -3.0]] * 5 + [[0.5, 2.0]] * 2)
        assert _csv_bytes(tmp_path, matrix, chunk_rows) == (
            b"h\n" + _per_row_text(matrix).encode("ascii"))

    def test_a_strided_view_compares_its_own_cells(self):
        # columns 1 and 3 repeat while the skipped columns do not
        matrix = np.array([[1.0, 2.0, 3.0, 4.0], [9.0, 2.0, 8.0, 4.0], [7.0, 2.0, 6.0, 4.0]])
        assert report._format_rows(matrix[:, 1::2]) == b"2.0,4.0\n" * 3
        assert report._format_rows(matrix[:, ::2]) == _per_row_text(matrix[:, ::2]).encode()


def _neighbours(values) -> list:
    """Each of ``values``, the float64 on either side of it, and their negations."""
    values = np.array(values, dtype=np.float64)
    around = np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])
    return [*around, *-around]


def _integers_to_2_53() -> list:
    """Integer floats around each power of two and of ten up to 2**53, and
    integers drawn below it."""
    edges = [base**k + step for base, top in ((2, 53), (10, 15)) for k in range(top + 1)
             for step in (-1, 0, 1)]
    drawn = np.random.default_rng(53).integers(0, 2**53, 2000).tolist()
    return [float(n) for n in [*edges, *drawn] if 0 <= n <= 2**53]


# Cells where shortest round-trip digits change length or notation: every
# decade from 1e-5 to 1e16 and every power of two, subnormals included,
# each with its neighbours; and integers up to 2**53.
_EDGE_CELLS = {
    "decades": _neighbours([float(f"1e{k}") for k in range(-5, 17)]),
    "powers-of-two": _neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
    "integers": _integers_to_2_53(),
}
# Rows that mix cells repr prints with an exponent and cells it prints
# without one, among rows of the latter alone and runs of repeated rows.
_MIXED_ROWS = np.array([
    [0.5, 1e-05, -3.0],
    [0.5, 1e-05, -3.0],
    [0.5, 2.0, -3.0],
    [1e16, 2.0, -0.0],
    [9999999999999998.0, 1e-4, 0.0],
    [9.999999999999999e-05, 1.0, 1.0],
    [1.0, 1.0, 1.0],
    [1.0, 1.0, 1.0],
    [-1.7976931348623157e308, 5e-324, 0.25],
    [123456789.125, -1.5e-7, 2.0**53],
])


def _assert_formatted_as_repr(tmp_path, matrix, chunk_rows):
    """_format_rows, and the writer in chunks of ``chunk_rows`` rows, both
    print ``matrix`` as the plain per-row repr join does."""
    text = _per_row_text(matrix).encode("ascii")
    assert report._format_rows(matrix) == text
    assert _csv_bytes(tmp_path, matrix, chunk_rows) == b"h\n" + text


class TestFormatterMatchesRepr:
    """orjson prints every finite float64 as repr does, and a row with a cell
    that repr prints with an exponent is printed by repr itself."""

    @settings(max_examples=60, deadline=None)
    @given(matrix=arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 5)),
                         elements=st.floats(allow_nan=False, allow_infinity=False)),
           chunk_rows=st.integers(1, 4))
    def test_drawn_matrices(self, tmp_path_factory, matrix, chunk_rows):
        _assert_formatted_as_repr(tmp_path_factory.mktemp("drawn"), matrix, chunk_rows)

    @pytest.mark.parametrize("cells", _EDGE_CELLS.values(), ids=_EDGE_CELLS.keys())
    @pytest.mark.parametrize("cols", [1, 7])
    def test_edge_cells(self, tmp_path, cells, cols):
        matrix = np.resize(np.array(cells), (-(-len(cells) // cols), cols))
        _assert_formatted_as_repr(tmp_path, matrix, chunk_rows=256)

    @pytest.mark.parametrize("chunk_rows", [1, 3, 10])
    def test_rows_mixing_exponent_and_plain_cells(self, tmp_path, chunk_rows):
        _assert_formatted_as_repr(tmp_path, _MIXED_ROWS, chunk_rows)


def _joined(header, rows) -> str:
    """The reference text of a line table: each cell's ``str``, comma-separated."""
    return "".join(f"{line}\n" for line in [header, *(",".join(map(str, row)) for row in rows)])


class TestWriteLines:
    """Each line of a line table is its row's cells as ``str`` gives them,
    comma-separated, in every file it is written to and across batches."""

    @settings(max_examples=30, deadline=None)
    @given(cells=st.lists(st.tuples(_RUN_CELLS, st.booleans()), min_size=1, max_size=8))
    def test_trace_files_match_joined_text(self, tmp_path_factory, cells):
        out = tmp_path_factory.mktemp("trace")
        trace = np.array([x0 for x0, _ in cells])
        accepted = np.array([flag for _, flag in cells]).astype(int)
        steps = range(trace.size)
        write_lines([steps, trace], [(out / "trace.dat", "step,x0", None),
                                     (out / "diagnostics.csv", "step,x0,accepted_flag", accepted)])
        assert (out / "trace.dat").read_text() == _joined("step,x0", zip(steps, trace.tolist()))
        assert (out / "diagnostics.csv").read_text() == _joined(
            "step,x0,accepted_flag", zip(steps, trace.tolist(), accepted.tolist()))

    def test_a_string_column_across_batches(self, tmp_path, monkeypatch):
        monkeypatch.setattr(report, "LINE_BATCH", 3)
        names = ("random", "smc", "a", "b", "c", "d", "e")
        counts, rates = (5, 0, 7, 1, 2, 3, 4), np.linspace(0.0, 1.0, 7)
        path = tmp_path / "table.csv"
        write_lines([names, counts, rates], [(path, "method,passing,pass_rate", None)])
        assert path.read_text() == _joined("method,passing,pass_rate",
                                           zip(names, counts, rates.tolist()))

    def test_a_tail_of_special_values_across_batches(self, tmp_path, monkeypatch):
        monkeypatch.setattr(report, "LINE_BATCH", 3)
        tail = np.array([np.nan, -0.0, 5e-324, 1e16, np.nan, -0.0, 5e-324])
        values = np.array(SPECIAL_VALUES + [0.5, -2.0])
        steps = range(values.size)
        write_lines([steps, values], [(tmp_path / "tail.dat", "step,x,t", tail),
                                      (tmp_path / "plain.dat", "step,x", None)])
        assert (tmp_path / "tail.dat").read_text() == _joined(
            "step,x,t", zip(steps, values.tolist(), tail.tolist()))
        assert (tmp_path / "plain.dat").read_text() == _joined(
            "step,x", zip(steps, values.tolist()))
        assert (tmp_path / "tail.dat").read_text().splitlines()[1:5] == [
            "0,-0.0,nan", "1,5e-324,-0.0", "2,1e+16,5e-324", "3,1e-05,1e+16"]

    def test_no_rows_leave_the_header_alone(self, tmp_path):
        write_lines([range(0)], [(tmp_path / "slice-indices.csv", "index", None)])
        assert (tmp_path / "slice-indices.csv").read_bytes() == b"index\n"


# A 3x2 population: 6-cell chunks hold 3 posterior rows. With 40 doubles a
# draw block, a block holds 5 steps, so chunks end out of step with blocks.
STREAM_ARGS = ["run", "smc", "--n", "3", "--dims", "2", "--steps", "300"]


@pytest.fixture
def streaming(monkeypatch, small_chunks):
    monkeypatch.setattr(core, "BLOCK_DOUBLES", 40)
    return small_chunks


def _stream_inputs(steps):
    prior = generate_prior(PriorConfig(n_particles=3, n_dims=2, seed=4))
    cfg = SmcConfig(likelihood=LikelihoodConfig.for_prior(2, 10.0), n_steps=steps, seed=9)
    return prior, cfg


def _watch_loop(monkeypatch, at=None, look=None, fail=False):
    """Wrap the SMC loop's scorer. At call ``at`` it calls ``look()``; with
    ``fail`` it scores every particle -inf from that call on. Returns the
    list that records one entry per call."""
    calls, score = [], smc._score_rows

    def watched(values, target, scale, alpha, diff, out):
        calls.append(len(calls))
        if len(calls) == at:
            look()
        if fail and len(calls) >= at:
            out.fill(-np.inf)
            return out
        return score(values, target, scale, alpha, diff, out)

    monkeypatch.setattr(smc, "_score_rows", watched)
    return calls


def _posterior_text(posterior) -> bytes:
    """posterior.csv of a 2-D posterior, each row printed on its own."""
    return b"x0,x1\n" + _per_row_text(posterior).encode("ascii")


class TestStreamingSink:
    @pytest.mark.parametrize("steps, block_doubles", [
        (20, 40),  # 5-step blocks over 3-row chunks; partial last chunk
        (2, 40),   # fewer steps than one chunk
        (21, 24),  # 3-step blocks, each ending a chunk
    ], ids=["blocks-across-chunks", "under-one-chunk", "blocks-on-chunks"])
    def test_streamed_bytes_equal_per_row_repr(self, tmp_path, monkeypatch, small_chunks,
                                               steps, block_doubles):
        monkeypatch.setattr(core, "BLOCK_DOUBLES", block_doubles)
        prior, cfg = _stream_inputs(steps)
        path = tmp_path / "posterior.csv"
        with report.CsvSink(path, ["x0", "x1"]) as sink:
            result = run_smc(prior, cfg, sink=sink)
        assert os.listdir(tmp_path) == ["posterior.csv"]  # written in place
        assert result.posterior is None
        assert path.read_bytes() == _posterior_text(run_smc(prior, cfg).posterior.values)

    def test_chunks_are_formatted_while_the_loop_runs(self, tmp_path, monkeypatch, streaming):
        seen = []
        prior, cfg = _stream_inputs(300)
        calls = _watch_loop(monkeypatch, 300, lambda: seen.append(sum(streaming)))  # the last step
        with report.CsvSink(tmp_path / "posterior.csv", ["x0", "x1"]) as sink:
            run_smc(prior, cfg, sink=sink)
        assert len(calls) == 300
        assert 0 < seen[0] < 300 == sum(streaming)

    def test_one_interrupt_mid_loop_exits_130(self, tmp_path, monkeypatch, capfd, streaming):
        monkeypatch.setattr(report, "_format_rows", _interrupting(report._format_rows))
        calls = _watch_loop(monkeypatch)
        out = tmp_path / "run"
        assert main([*STREAM_ARGS, "--out", str(out)]) == 130
        assert capfd.readouterr().err == "abc-fuzz: interrupted\n"
        assert len(calls) < 300
        assert not out.exists()  # no posterior.csv, no staging directory, no directory

    def test_weights_collapsing_mid_loop_exit_4(self, tmp_path, monkeypatch, capfd, streaming):
        out = tmp_path / "run"
        seen = []
        _watch_loop(monkeypatch, 100, fail=True, look=lambda: seen.append(
            (bool(list(out.glob(".partial-*/posterior.csv"))), sum(streaming))))
        assert main([*STREAM_ARGS, "--out", str(out)]) == 4
        err = capfd.readouterr().err
        assert "degeneracy (step 99)" in err and "Traceback" not in err
        (temp_seen, formatted), = seen
        assert temp_seen and formatted > 0
        assert not out.exists()


# The range oracle's default band on x0, judged by a child per particle.
EXEC_RANGE = "exec:awk 'NR==1{exit !($1>=-0.5 && $1<=0.5)}'"


class TestJudgedChunks:
    """The SMC loop writes each draw block's rows to a ``CsvSink``, which
    judges them a chunk at a time: the file, the rows judged and the
    verdicts equal those of a run that holds its whole posterior."""

    @pytest.mark.parametrize("block_doubles", [16, 24, 40],
                             ids=["2-step-blocks", "blocks-of-a-chunk", "5-step-blocks"])
    def test_judge_sees_every_row_once_in_order(self, tmp_path, monkeypatch, small_chunks,
                                                block_doubles):
        monkeypatch.setattr(core, "BLOCK_DOUBLES", block_doubles)
        prior, cfg = _stream_inputs(300)
        judged = []
        path = tmp_path / "posterior.csv"
        with report.CsvSink(path, ["x0", "x1"], lambda rows: judged.append(rows.copy())) as sink:
            result = run_smc(prior, cfg, sink=sink)
        assert result.posterior is None
        assert [len(rows) for rows in judged] == [3] * 100
        expected = run_smc(prior, cfg).posterior.values
        assert np.concatenate(judged).tobytes() == expected.tobytes()
        assert path.read_bytes() == _posterior_text(expected)

    def test_exec_verdicts_equal_the_range_oracles(self, tmp_path, monkeypatch, small_chunks):
        monkeypatch.setattr(core, "BLOCK_DOUBLES", 40)
        runs = {}
        for name, oracle in [("range", "range"), ("exec", EXEC_RANGE)]:
            out = tmp_path / name
            assert main([*STREAM_ARGS, "--oracle", oracle, "--out", str(out)]) == 0
            runs[name] = out
        reports = [_read_back(out / "report.json") for out in runs.values()]
        for key in ("prior_pass_rate", "posterior_pass_rate", "oracle_calls", "diagnostics"):
            assert reports[0][key] == reports[1][key]
        assert reports[0]["oracle_calls"] == 303
        posterior = np.loadtxt(runs["range"] / "posterior.csv", delimiter=",", skiprows=1)
        passing = int(((posterior[:, 0] >= -0.5) & (posterior[:, 0] <= 0.5)).sum())
        assert reports[0]["posterior_pass_rate"] == passing / 300
        assert 0 < passing < 300
        assert ((runs["range"] / "posterior.csv").read_bytes()
                == (runs["exec"] / "posterior.csv").read_bytes())

    def test_a_judge_that_raises_leaves_no_tmp(self, tmp_path, monkeypatch, small_chunks):
        monkeypatch.setattr(core, "BLOCK_DOUBLES", 40)
        prior, cfg = _stream_inputs(300)
        judged = []

        def judge(rows):
            judged.append(len(rows))
            if len(judged) == 20:  # well after the chunk buffer is first reused
                raise ConfigError("judge failed")

        out = tmp_path / "run"
        out.mkdir()
        with pytest.raises(ConfigError, match="judge failed"):
            with cli._staged(out) as stage:
                with report.CsvSink(stage / "posterior.csv", ["x0", "x1"], judge) as sink:
                    run_smc(prior, cfg, sink=sink)
        assert len(judged) == 20
        assert list(out.iterdir()) == []  # made before the sink, so it stays


def _raising_judge(calls=2):
    """A judge whose call number ``calls`` raises ConfigError."""
    judged = []

    def judge(rows):
        judged.append(len(rows))
        if len(judged) == calls:
            raise ConfigError("judge failed")

    return judge


class TestSinkContract:
    """``CsvSink`` driven by hand, as its docstring states it: rows copied in
    by ``write``, each chunk judged and written once it fills. In the CLI's
    staging directory, a failed sink leaves nothing behind."""

    def test_a_failed_staged_sink_leaves_nothing(self, tmp_path):
        with pytest.raises(ConfigError, match="stop"):
            with cli._staged(tmp_path / "made") as stage:
                with report.CsvSink(stage / "m.csv", ["h"]) as sink:
                    assert list(stage.iterdir()) == [stage / "m.csv"]  # opened on entry
                    sink.write(np.ones((1, 2)))
                    raise ConfigError("stop")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rows", [10, 12], ids=["partial-last-chunk", "whole-chunks"])
    @pytest.mark.parametrize("step", [1, 2, 3, 7, None],
                             ids=["1", "2", "3", "7", "whole-matrix"])
    def test_rows_written_by_hand(self, tmp_path, small_chunks, rows, step):
        # two columns: 3-row chunks, each filled by one write or by several
        matrix = np.arange(rows * 2.0).reshape(rows, 2) / 3
        step = step or rows
        judged = []
        path = tmp_path / "m.csv"
        with report.CsvSink(path, ["a", "b"], lambda chunk: judged.append(chunk.copy())) as sink:
            for start in range(0, rows, step):
                part = matrix[start:start + step].copy()
                sink.write(part)
                part.fill(np.nan)  # the sink holds a copy: the caller may reuse its rows
                assert sum(small_chunks) == min(start + step, rows) // 3 * 3
        assert small_chunks == [3] * (rows // 3) + [rows % 3] * (rows % 3 > 0)
        assert [len(chunk) for chunk in judged] == small_chunks
        assert np.concatenate(judged).tobytes() == matrix.tobytes()
        assert path.read_bytes() == b"a,b\n" + _per_row_text(matrix).encode("ascii")

    @pytest.mark.parametrize("failure", ["full-disk", "interrupt", "judge"])
    def test_a_failed_rewrite_keeps_the_previous_file(self, tmp_path, monkeypatch,
                                                      small_chunks, failure):
        # as when a run is repeated into the same output directory
        path = tmp_path / "m.csv"
        path.write_bytes(b"h\nprevious\n")
        judge, raised = None, ConfigError
        if failure == "full-disk":
            monkeypatch.setattr(report, "_format_rows",
                                _failing_second_call(report._format_rows))
            raised = OSError
        elif failure == "interrupt":
            monkeypatch.setattr(report, "_format_rows", _interrupting(report._format_rows))
            raised = KeyboardInterrupt
        else:
            judge = _raising_judge()
        with pytest.raises(raised):
            with cli._staged(tmp_path) as stage:
                with report.CsvSink(stage / path.name, ["h"], judge) as sink:
                    sink.write(np.ones((200, 3)))
        assert path.read_bytes() == b"h\nprevious\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_a_made_directory_that_is_not_empty_stays(self, tmp_path, small_chunks):
        # staging makes made/kept/gone/too; a file put in made/kept keeps it and made
        judge = _raising_judge()

        def judge_and_put_a_file(rows):
            (tmp_path / "made" / "kept" / "other.txt").touch()
            judge(rows)

        with pytest.raises(ConfigError, match="judge failed"):
            with cli._staged(tmp_path / "made" / "kept" / "gone" / "too") as stage:
                with report.CsvSink(stage / "m.csv", ["h"], judge_and_put_a_file) as sink:
                    sink.write(np.ones((9, 2)))
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "made", "made/kept", "made/kept/other.txt"]


_CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=64),
                   st.sampled_from(SPECIAL_VALUES))
_TABLES = st.integers(1, 3).flatmap(lambda cols: st.lists(
    st.lists(_CELLS, min_size=cols, max_size=cols), min_size=1, max_size=12))
_READ_DEFECTS = ["none", "blank-line", "ragged-row", "inf-cell", "text-cell",
                 "non-utf8-byte", "no-final-newline"]


def _csv_with(data, defect):
    """A particle CSV drawn from ``data``, with CRLF or LF lines, cells with
    or without surrounding whitespace and ``defect`` in one row. Returns the
    file's bytes and its rows of cells as written."""
    table = [[repr(value) for value in row] for row in data.draw(_TABLES, label="table")]
    pad = data.draw(st.sampled_from(["", " ", "\t "]), label="pad")
    eol = data.draw(st.sampled_from(["\n", "\r\n"]), label="eol")
    at = data.draw(st.sampled_from([len(table) - 1, 0]) | st.integers(0, len(table) - 1),
                   label="row")
    if defect == "ragged-row":
        table[at] = table[at][:-1] if len(table[at]) > 1 else table[at] + ["1.0"]
    elif defect == "inf-cell":
        table[at][0] = "inf"
    elif defect == "text-cell":
        table[at][-1] = "oops"
    elif defect == "non-utf8-byte":
        table[at][0] += "\udcff"  # the byte 0xff
    lines = [pad + f"{pad},{pad}".join(row) + pad for row in table]
    if defect == "blank-line":
        lines.insert(at + 1, "")
    header = ",".join(f"x{i}" for i in range(len(table[0])))
    text = eol.join([header, *lines]) + ("" if defect == "no-final-newline" else eol)
    return text.encode("utf-8", "surrogateescape"), table


def _read_outcome(path):
    """read_particles_csv's values as (shape, bytes), or its ConfigError message."""
    try:
        values = read_particles_csv(path).values
    except ConfigError as exc:
        return "error", str(exc)
    return values.shape, values.tobytes()


class TestParticleCsvRead:
    """The one in-process reader on drawn and hand-made files: the values
    written, bit for bit, or one ConfigError naming the file."""

    @pytest.mark.parametrize("defect", _READ_DEFECTS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_drawn_file_reads_its_cells_or_names_the_file(self, tmp_path_factory, defect,
                                                          data):
        path = tmp_path_factory.mktemp("read") / "particles.csv"
        text, table = _csv_with(data, defect)
        path.write_bytes(text)
        if defect in ("text-cell", "non-utf8-byte") or len({len(row) for row in table}) > 1:
            expected = ("error", f"particle CSV {path} is malformed")
        elif defect == "inf-cell":
            expected = ("error", f"particle CSV {path}: particle values must be finite")
        else:
            values = np.array([[float(cell) for cell in row] for row in table])
            expected = (values.shape, values.tobytes())
        outcome = _read_outcome(path)
        if expected[0] == "error":
            assert outcome[0] == "error" and outcome[1].startswith(expected[1]), outcome
        else:
            assert outcome == expected

    @pytest.mark.parametrize("text, rows", [
        (b"x0\n1.5\n\n2.5\n", [[1.5], [2.5]]),
        (b"x0,x1\n1.5,2.5\n3.5,4.5\n5.5\n", None),
        (b"x0\n1.5\n2.5\n3.5", [[1.5], [2.5], [3.5]]),
        (b"x0\n1.5\n2.5\n\xff3.5\n", None),
        (b"x0\r1.5\n2.5\n3.5\n", [[1.5], [2.5], [3.5]]),
        (b"x\xff0\n1.5\n2.5\n", None),
    ], ids=["blank-line", "ragged-row", "no-final-newline", "non-utf8-byte", "cr-header",
            "non-utf8-header"])
    def test_edge_file_reads_its_rows_or_is_malformed(self, tmp_path, text, rows):
        path = tmp_path / "particles.csv"
        path.write_bytes(text)
        if rows is None:
            with pytest.raises(ConfigError, match="^particle CSV .*particles.csv is malformed"):
                read_particles_csv(path)
        else:
            assert read_particles_csv(path).values.tolist() == rows

    def test_memory_error_in_the_read_exits_3_without_output(self, tmp_path, monkeypatch,
                                                            capfd):
        def exhausted(*args, **kwargs):
            raise MemoryError("the parse could not allocate")

        monkeypatch.setattr(np, "loadtxt", exhausted)
        path = tmp_path / "prior.csv"
        write_particles_csv(generate_prior(PriorConfig(n_particles=40, n_dims=10, seed=8)), path)
        out = tmp_path / "run"
        args = ["run", "mcmc", "--prior", str(path), "--steps", "2", "--burn-in", "0",
                "--out", str(out)]
        assert main(args) == 3
        assert capfd.readouterr().err == (
            "abc-fuzz: environment error: out of memory: the parse could not allocate\n")
        assert not out.exists()

    def test_interrupt_in_the_read_exits_130_without_output(self, tmp_path, monkeypatch,
                                                           capfd):
        loadtxt = np.loadtxt

        def interrupted(*args, **kwargs):
            os.kill(os.getpid(), signal.SIGINT)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", interrupted)
        path = tmp_path / "prior.csv"
        write_particles_csv(generate_prior(PriorConfig(n_particles=40, n_dims=10, seed=8)), path)
        out = tmp_path / "run"
        args = ["run", "mcmc", "--prior", str(path), "--steps", "2", "--burn-in", "0",
                "--out", str(out)]
        assert main(args) == 130
        assert capfd.readouterr().err == "abc-fuzz: interrupted\n"
        assert not out.exists()
