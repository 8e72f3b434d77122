"""Report persistence: JSON round-trips, CSV dumps, plot-data files."""

import ast
import contextlib
import json
import mmap
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from abcfuzz import core, report, smc
from abcfuzz.cli import main
from abcfuzz.report import write_csv, write_json, write_lines
from support import assert_read_only, gone_within, running


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


_real_pool_workers = report._pool_workers

SPECIAL_VALUES = [-0.0, 5e-324, 1e16, 1e-05, 1.7976931348623157e308]


@pytest.fixture
def pool_writer(tmp_path, monkeypatch):
    """Force the writer pool on small matrices: 6-cell chunks, no size floor,
    two workers whatever the host. Returns the pids that formatted chunks."""
    monkeypatch.setattr(report, "CHUNK_CELLS", 6)
    monkeypatch.setattr(report, "POOL_MIN_CELLS", 0)
    monkeypatch.setattr(report, "_pool_workers", lambda: 2)
    log = tmp_path / "formatter-pids.txt"
    format_rows = report._format_rows

    def logged(rows):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        return format_rows(rows)

    monkeypatch.setattr(report, "_format_rows", logged)
    return lambda: {int(pid) for pid in log.read_text().split()}


def _serial_bytes(path, matrix, monkeypatch, header=("h",)):
    monkeypatch.setattr(report, "POOL_MIN_CELLS", matrix.size + 1)
    write_csv(path, header, matrix)
    return path.read_bytes()


def _interrupting(tmp_path, function):
    """Wrap ``function`` so that the first worker call sends the parent one SIGINT."""
    parent = os.getpid()
    sent = tmp_path / "sigint-sent"

    def interrupt_parent(*args):
        if os.getpid() != parent:
            try:  # the first worker call to get here sends the one Ctrl-C
                os.close(os.open(sent, os.O_CREAT | os.O_EXCL))
                os.kill(parent, signal.SIGINT)
            except FileExistsError:
                pass
        return function(*args)

    return interrupt_parent


def _dying_in_worker(function):
    """Wrap ``function`` so that a worker calling it is killed by SIGKILL."""
    parent = os.getpid()

    def die_in_worker(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return function(*args)

    return die_in_worker


class TestPoolWriter:
    @pytest.mark.parametrize("matrix", [
        np.arange(21.0).reshape(7, 3) / 7,          # 2 rows a chunk, partial last chunk
        np.array([[0.1, -2.5, 3e-300, 7.0, 1e100, 0.3, 0.7, -1.0]]),  # one row
        np.linspace(-1.0, 1.0, 10).reshape(10, 1),   # one column
        np.array([SPECIAL_VALUES] * 3),
        np.array([SPECIAL_VALUES] * 3).T.copy(),
    ], ids=["partial-last-chunk", "one-row", "one-column", "special-rows", "special-columns"])
    def test_pool_bytes_equal_the_serial_path(self, tmp_path, monkeypatch, pool_writer, matrix):
        pooled = tmp_path / "pool.csv"
        write_csv(pooled, ["h"], matrix)
        assert pool_writer() - {os.getpid()}, "no chunk was formatted by a worker"
        assert multiprocessing.active_children() == []
        assert pooled.read_bytes() == _serial_bytes(tmp_path / "serial.csv", matrix, monkeypatch)

    def test_texts_that_fill_their_slot_exactly(self, tmp_path, monkeypatch, pool_writer):
        # one-page slots: a chunk of one-digit floats ("1.0\n", 4 bytes a
        # cell) fills its slot exactly
        rows = mmap.PAGESIZE // 4
        monkeypatch.setattr(report, "CHUNK_CELLS", rows)
        monkeypatch.setattr(report, "CELL_BYTES", 4)
        matrix = np.tile(np.arange(rows) % 9 + 1.0, 6).reshape(-1, 1)
        pooled = tmp_path / "pool.csv"
        write_csv(pooled, ["h"], matrix)
        assert pool_writer() - {os.getpid()}, "no chunk was formatted by a worker"
        assert pooled.read_bytes() == _serial_bytes(tmp_path / "serial.csv", matrix, monkeypatch)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, object])
    def test_matrices_other_than_float64_are_rejected(self, tmp_path, pool_writer, dtype):
        # a cell of any other dtype can print longer than CELL_BYTES
        path = tmp_path / "m.csv"
        with pytest.raises(ConfigError, match="float64 values, got"):
            write_csv(path, ["h"], np.ones((3, 2), dtype=dtype))
        assert list(tmp_path.iterdir()) == []

    def test_special_values_keep_their_repr(self, tmp_path, pool_writer):
        path = tmp_path / "special.csv"
        write_csv(path, ["h"], np.array([SPECIAL_VALUES] * 2))
        line = ",".join(map(repr, SPECIAL_VALUES))
        assert path.read_text() == f"h\n{line}\n{line}\n"
        assert line == "-0.0,5e-324,1e+16,1e-05,1.7976931348623157e+308"

    def test_particle_csv_round_trips_through_the_pool(self, tmp_path, pool_writer):
        prior = generate_prior(PriorConfig(n_particles=9, n_dims=4, seed=5))
        path = tmp_path / "prior.csv"
        write_particles_csv(prior, path)
        assert read_particles_csv(path).values.tobytes() == prior.values.tobytes()

    def test_no_fork_while_another_thread_runs(self):
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert report._pool_workers() == 0
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_killed_worker_exits_3_without_traceback(self, tmp_path, monkeypatch, capfd,
                                                    pool_writer):
        monkeypatch.setattr(report, "_format_rows", _dying_in_worker(report._format_rows))
        out = tmp_path / "run"
        assert main(["gen-prior", "--n", "40", "--dims", "10", "--out", str(out)]) == 3
        err = capfd.readouterr().err
        assert "environment error" in err and "prior.csv" in err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []

    def test_one_interrupt_in_the_parent_leaves_no_child(self, tmp_path, monkeypatch,
                                                         pool_writer):
        monkeypatch.setattr(report, "_format_rows", _interrupting(tmp_path, report._format_rows))
        with pytest.raises(KeyboardInterrupt):
            write_csv(tmp_path / "big.csv", ["h"], np.ones((200, 3)))
        assert multiprocessing.active_children() == []

    def test_interrupt_through_main_exits_130_without_traceback(self, tmp_path, monkeypatch,
                                                                 capfd, pool_writer):
        monkeypatch.setattr(report, "_format_rows", _interrupting(tmp_path, report._format_rows))
        out = tmp_path / "run"
        assert main(["gen-prior", "--n", "40", "--dims", "10", "--out", str(out)]) == 130
        err = capfd.readouterr().err
        assert err == "abc-fuzz: interrupted\n"
        assert multiprocessing.active_children() == []


# Runs the command in argv[2:] in a child whose forced two-worker writer pool
# logs each worker's pid to argv[1] and holds each chunk for 0.5 s before
# formatting it, so the parent can be killed while a worker holds a task.
_HOLDING_WORKERS = """
import os, sys, time
from abcfuzz import report
from abcfuzz.cli import main
report.CHUNK_CELLS, report.POOL_MIN_CELLS = 6, 0
report._pool_workers = lambda: 2
format_rows, parent = report._format_rows, os.getpid()

def held(rows):
    if os.getpid() != parent:
        with open(sys.argv[1], "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\\n")
        time.sleep(0.5)
    return format_rows(rows)

report._format_rows = held
sys.exit(main(sys.argv[2:]))
"""


def _logged_pids(log) -> set:
    return {int(pid) for pid in log.read_text().split()} if log.exists() else set()


def _holding_gen_prior(tmp_path, log, n=40, preexec_fn=None):
    """gen-prior of ``n`` rows in a _HOLDING_WORKERS child, in a session of
    its own, once both its workers hold a chunk."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _HOLDING_WORKERS, str(log),
         "gen-prior", "--n", str(n), "--dims", "10", "--out", str(tmp_path / "run")],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, start_new_session=True,
        preexec_fn=preexec_fn)
    deadline = time.monotonic() + 10
    while len(_logged_pids(log)) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    return proc


class TestKilledParent:
    def test_workers_end_without_traceback(self, tmp_path):
        log = tmp_path / "worker-pids.txt"
        proc = _holding_gen_prior(tmp_path, log)
        proc.kill()
        # stderr ends once the workers, which share it, have exited too
        _, err = proc.communicate(timeout=10)
        workers = _logged_pids(log)
        assert proc.returncode == -signal.SIGKILL
        assert len(workers) == 2
        assert "Traceback" not in err, err
        time.sleep(2)
        assert not [pid for pid in workers if running(pid)]

    def test_worker_ends_without_traceback_when_its_result_is_unread(self, tmp_path):
        # a parent that dies with a result unread in its socket resets the
        # worker's next recv, whether or not it already waits in it
        proc = subprocess.run([sys.executable, "-c", _KILLED_WITH_RESULT_UNREAD],
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == -signal.SIGKILL
        (worker,) = map(int, proc.stdout.split())
        assert gone_within(worker, 2)
        assert "Traceback" not in proc.stderr, proc.stderr


# Forks one pool worker, prints its pid, and once the worker's result is
# readable kills itself without reading it.
_KILLED_WITH_RESULT_UNREAD = """
import os, signal
from abcfuzz import report
pool = []
report._fork_pool(pool, 1, lambda task: task)
proc, conn = pool[0]
print(proc.pid, flush=True)
conn.send(0)
assert conn.poll(10)
os.kill(os.getpid(), signal.SIGKILL)
"""


# Holds SIGTERM as main does while a command runs, and reaps pools of
# workers the moment they are forked.
_REAPED_AT_ONCE = """
import signal
from abcfuzz import cli, report
signal.signal(signal.SIGTERM, cli._interrupt_once)
for _ in range(20):
    pool = []
    report._fork_pool(pool, 2, lambda task: task)
    report._reap(pool)
"""

# Forks two pool workers that each send themselves SIGTERM before their own
# signal setup, as a signal to the whole process group can reach a worker
# just forked, then waits for them.
_SIGNALLED_AS_THEY_START = """
import os, signal
from abcfuzz import cli, report
signal.signal(signal.SIGTERM, cli._interrupt_once)
pool_worker = report._pool_worker

def signalled(*args):
    os.kill(os.getpid(), signal.SIGTERM)
    pool_worker(*args)

report._pool_worker = signalled
pool = []
report._fork_pool(pool, 2, lambda task: task)
for proc, _ in pool:
    proc.join(10)
print(*(proc.exitcode for proc, _ in pool))
report._reap(pool)
"""


class TestStopSignals:
    """SIGTERM and SIGHUP exit like Ctrl-C: 128 + signum, one line on
    stderr, and no temporary file, writer worker or oracle child left."""

    @pytest.mark.parametrize("group", [False, True], ids=["to-parent", "to-group"])
    @pytest.mark.parametrize("signum, code", [(signal.SIGTERM, 143), (signal.SIGHUP, 129)],
                             ids=["sigterm", "sighup"])
    def test_signal_while_the_pool_writes_leaves_no_tmp_or_worker(self, tmp_path, signum,
                                                                  code, group):
        # a hangup or a process manager may signal the workers too
        log = tmp_path / "worker-pids.txt"
        proc = _holding_gen_prior(tmp_path, log)
        if group:
            os.killpg(proc.pid, signum)
        else:
            proc.send_signal(signum)
        _, err = proc.communicate(timeout=10)
        workers = _logged_pids(log)
        assert proc.returncode == code, err
        assert err == "abc-fuzz: terminated\n"
        assert len(workers) == 2
        assert not [pid for pid in workers if running(pid)]
        assert not list((tmp_path / "run").glob("*.tmp"))

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGHUP],
                             ids=["sigterm", "sighup"])
    def test_a_signal_the_caller_ignores_stays_ignored_in_the_workers(self, tmp_path, signum):
        # as under nohup: the run, its workers included, outlives a hangup
        log = tmp_path / "worker-pids.txt"
        proc = _holding_gen_prior(tmp_path, log, n=4,
                                  preexec_fn=lambda: signal.signal(signum, signal.SIG_IGN))
        os.killpg(proc.pid, signum)
        _, err = proc.communicate(timeout=10)
        assert proc.returncode == 0, err
        assert err == ""
        assert len(_logged_pids(log)) >= 2  # each pooled file forks two
        assert len((tmp_path / "run" / "prior.csv").read_text().splitlines()) == 5
        assert (tmp_path / "run" / "report.json").exists()
        assert not list((tmp_path / "run").glob("*.tmp"))

    def test_workers_reaped_as_they_start_print_nothing(self):
        # a worker not yet past its signal setup still runs the parent's handler
        proc = subprocess.run([sys.executable, "-c", _REAPED_AT_ONCE],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_a_signal_before_a_worker_resets_its_handlers_ends_it_silently(self):
        proc = subprocess.run([sys.executable, "-c", _SIGNALLED_AS_THEY_START],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(-signal.SIGTERM)] * 2
        assert proc.stderr == ""

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


def _csv_bytes_both_ways(tmp_path, matrix, chunk_rows):
    """(pooled, serial) bytes of ``matrix`` written in chunks of ``chunk_rows`` rows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "CHUNK_CELLS", chunk_rows * matrix.shape[1])
        patch.setattr(report, "_pool_workers", lambda: 2)
        patch.setattr(report, "POOL_MIN_CELLS", 0)
        write_csv(tmp_path / "pooled.csv", ["h"], matrix)
        patch.setattr(report, "POOL_MIN_CELLS", matrix.size + 1)
        write_csv(tmp_path / "serial.csv", ["h"], matrix)
    assert multiprocessing.active_children() == []
    return (tmp_path / "pooled.csv").read_bytes(), (tmp_path / "serial.csv").read_bytes()


# Runs of one row: a matrix whose rows mostly repeat the row before them,
# as a Metropolis chain's rejected proposals do.
_RUN_CELLS = st.sampled_from([0.0, *SPECIAL_VALUES])
_RUNS_OF_ROWS = st.integers(1, 3).flatmap(lambda cols: st.lists(
    st.tuples(st.lists(_RUN_CELLS, min_size=cols, max_size=cols), st.integers(1, 4)),
    min_size=1, max_size=6))


class TestRepeatedRows:
    """A row whose bits equal the previous row's reuses its text; the bytes
    equal a plain per-row formatter's, pooled and serial."""

    @settings(max_examples=30, deadline=None)
    @given(runs=_RUNS_OF_ROWS, chunk_rows=st.integers(1, 5))
    def test_runs_of_rows_print_like_every_row(self, tmp_path_factory, runs, chunk_rows):
        matrix = np.array([row for row, count in runs for _ in range(count)])
        text = _per_row_text(matrix)
        assert report._format_rows(matrix) == text
        pooled, serial = _csv_bytes_both_ways(tmp_path_factory.mktemp("runs"), matrix,
                                              chunk_rows)
        assert pooled == serial == b"h\n" + text.encode("ascii")

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3], ids=["one-row-chunks", "2", "3"])
    def test_zero_and_negative_zero_rows_print_apart(self, tmp_path, chunk_rows):
        matrix = np.array([[0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.0, -0.0]])
        pooled, serial = _csv_bytes_both_ways(tmp_path, matrix, chunk_rows)
        assert pooled == serial == b"h\n0.0,1.0\n-0.0,1.0\n-0.0,1.0\n0.0,1.0\n0.0,-0.0\n"

    @pytest.mark.parametrize("chunk_rows", [1, 2, 4], ids=["one-row-chunks", "2", "4"])
    def test_repeats_across_a_chunk_boundary(self, tmp_path, chunk_rows):
        # rows 1-5 repeat one state, so every chunk boundary falls inside a run
        matrix = np.array([[0.5, 2.0]] + [[1e-05, -3.0]] * 5 + [[0.5, 2.0]] * 2)
        pooled, serial = _csv_bytes_both_ways(tmp_path, matrix, chunk_rows)
        assert pooled == serial == b"h\n" + _per_row_text(matrix).encode("ascii")

    def test_a_strided_view_compares_its_own_cells(self):
        # columns 1 and 3 repeat while the skipped columns do not
        matrix = np.array([[1.0, 2.0, 3.0, 4.0], [9.0, 2.0, 8.0, 4.0], [7.0, 2.0, 6.0, 4.0]])
        assert report._format_rows(matrix[:, 1::2]) == "2.0,4.0\n" * 3
        assert report._format_rows(matrix[:, ::2]) == _per_row_text(matrix[:, ::2])


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
def streaming(monkeypatch, pool_writer):
    monkeypatch.setattr(core, "BLOCK_DOUBLES", 40)
    return pool_writer


def _stream_inputs(steps):
    prior = generate_prior(PriorConfig(n_particles=3, n_dims=2, seed=4))
    cfg = SmcConfig(likelihood=LikelihoodConfig.for_prior(2, 10.0), n_steps=steps, seed=9)
    return prior, cfg


def _watch_loop(monkeypatch, at, wait_for, fail=False):
    """Wrap the SMC loop's scorer. At call ``at`` it waits up to 10 s for
    ``wait_for()``; with ``fail`` it scores every particle -inf from that
    call on. Returns the list that records one entry per call."""
    calls, score = [], smc._score_rows

    def watched(values, target, scale, alpha, diff, out):
        calls.append(len(calls))
        if len(calls) == at:
            deadline = time.monotonic() + 10
            while not wait_for() and time.monotonic() < deadline:
                time.sleep(0.01)
        if fail and len(calls) >= at:
            out.fill(-np.inf)
            return out
        return score(values, target, scale, alpha, diff, out)

    monkeypatch.setattr(smc, "_score_rows", watched)
    return calls


def _assert_cleaned_up(out):
    assert multiprocessing.active_children() == []
    assert not out.exists()  # no posterior.csv, no posterior.csv.tmp, no directory


class TestStreamingSink:
    @pytest.mark.parametrize("steps, block_doubles", [
        (20, 40),  # 5-step blocks over 3-row chunks; partial last chunk
        (2, 40),   # fewer steps than one chunk
        (21, 24),  # 3-step blocks, each ending a chunk
    ], ids=["blocks-across-chunks", "under-one-chunk", "blocks-on-chunks"])
    def test_streamed_bytes_equal_the_serial_writer(self, tmp_path, monkeypatch, pool_writer,
                                                    steps, block_doubles):
        monkeypatch.setattr(core, "BLOCK_DOUBLES", block_doubles)
        prior, cfg = _stream_inputs(steps)
        path = tmp_path / "posterior.csv"
        with report.CsvSink(path, ["x0", "x1"]) as sink:
            result = run_smc(prior, cfg, sink=sink)
        assert pool_writer() - {os.getpid()}, "no chunk was formatted by a worker"
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "posterior.csv.tmp").exists()
        assert result.posterior is None
        assert path.read_bytes() == _serial_bytes(tmp_path / "serial.csv",
                                                  run_smc(prior, cfg).posterior.values,
                                                  monkeypatch, ["x0", "x1"])

    def test_chunks_are_formatted_while_the_loop_runs(self, tmp_path, monkeypatch, streaming):
        log = tmp_path / "formatter-pids.txt"
        seen = []

        def worker_has_formatted():
            seen.append(log.exists())
            return seen[-1]

        prior, cfg = _stream_inputs(300)
        calls = _watch_loop(monkeypatch, 300, worker_has_formatted)  # the last step
        with report.CsvSink(tmp_path / "posterior.csv", ["x0", "x1"]) as sink:
            run_smc(prior, cfg, sink=sink)
        assert len(calls) == 300 and seen[-1]
        assert streaming() - {os.getpid()}

    def test_worker_killed_mid_loop_exits_3(self, tmp_path, monkeypatch, capfd, streaming):
        monkeypatch.setattr(report, "_format_rows", _dying_in_worker(report._format_rows))
        # both workers have a chunk by step 10; step 100 waits for them to die
        calls = _watch_loop(monkeypatch, 100, lambda: multiprocessing.active_children() == [])
        out = tmp_path / "run"
        assert main([*STREAM_ARGS, "--out", str(out)]) == 3
        err = capfd.readouterr().err
        assert "environment error" in err and "posterior.csv" in err
        assert "Traceback" not in err
        assert len(calls) < 300
        _assert_cleaned_up(out)

    def test_one_interrupt_mid_loop_exits_130(self, tmp_path, monkeypatch, capfd, streaming):
        monkeypatch.setattr(report, "_format_rows", _interrupting(tmp_path, report._format_rows))
        calls = _watch_loop(monkeypatch, 100, lambda: False)  # step 100 waits for the SIGINT
        out = tmp_path / "run"
        assert main([*STREAM_ARGS, "--out", str(out)]) == 130
        assert capfd.readouterr().err == "abc-fuzz: interrupted\n"
        assert len(calls) < 300
        _assert_cleaned_up(out)

    def test_weights_collapsing_mid_loop_exit_4(self, tmp_path, monkeypatch, capfd, streaming):
        out = tmp_path / "run"
        log = tmp_path / "formatter-pids.txt"
        temp_seen = []

        def worker_has_formatted():
            temp_seen.append((out / "posterior.csv.tmp").exists())
            # a logged worker pid, not only the log file a worker has opened:
            # a worker stopped between the two leaves an empty log
            return log.exists() and bool(streaming() - {os.getpid()})

        _watch_loop(monkeypatch, 100, worker_has_formatted, fail=True)
        assert main([*STREAM_ARGS, "--out", str(out)]) == 4
        err = capfd.readouterr().err
        assert "degeneracy (step 99)" in err and "Traceback" not in err
        assert temp_seen and all(temp_seen)
        assert streaming() - {os.getpid()}
        _assert_cleaned_up(out)

    def test_another_thread_keeps_the_writer_serial(self, tmp_path, monkeypatch, streaming):
        monkeypatch.setattr(report, "_pool_workers", _real_pool_workers)
        prior, cfg = _stream_inputs(20)
        path = tmp_path / "posterior.csv"
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            with report.CsvSink(path, ["x0", "x1"]) as sink:
                result = run_smc(prior, cfg, sink=sink)
        finally:
            done.set()
            thread.join(timeout=10)
        assert streaming() == {os.getpid()}
        assert multiprocessing.active_children() == []
        assert result.posterior is None
        assert path.read_bytes() == _serial_bytes(tmp_path / "serial.csv",
                                                  run_smc(prior, cfg).posterior.values,
                                                  monkeypatch, ["x0", "x1"])


# The range oracle's default band on x0, judged by a child per particle.
EXEC_RANGE = "exec:awk 'NR==1{exit !($1>=-0.5 && $1<=0.5)}'"


@pytest.fixture(params=["pooled", "serial"])
def ring(request, monkeypatch, pool_writer):
    """A ring of 3-row chunks that a 300-step run of STREAM_ARGS wraps many
    times, formatted by two workers or in process. Returns the pids that
    formatted chunks."""
    if request.param == "serial":
        monkeypatch.setattr(report, "_pool_workers", lambda: 0)
    return pool_writer


class TestRing:
    """``CsvSink.buffer`` is a ring of whole chunks, two per worker plus two,
    which the SMC loop fills row by row: the file, the rows judged and the
    verdicts equal those of a run that holds its whole posterior."""

    @pytest.mark.parametrize("block_doubles", [16, 24, 40],
                             ids=["2-step-blocks", "blocks-of-a-chunk", "5-step-blocks"])
    def test_judge_sees_every_row_once_in_order(self, tmp_path, monkeypatch, ring,
                                                block_doubles):
        monkeypatch.setattr(core, "BLOCK_DOUBLES", block_doubles)
        prior, cfg = _stream_inputs(300)
        judged, buffers = [], []
        path = tmp_path / "posterior.csv"
        with report.CsvSink(path, ["x0", "x1"], lambda rows: judged.append(rows.copy())) as sink:
            allocate = sink.buffer

            def recorded(*args):
                buffers.append(allocate(*args))
                return buffers[-1]

            sink.buffer = recorded
            result = run_smc(prior, cfg, sink=sink)
        (buffer,) = buffers
        workers = len(ring() - {os.getpid()})
        # a 5-step block is cut to half the ring where the ring is shorter
        assert buffer.shape == (3 * (2 * workers + 2), 2)
        assert result.posterior is None
        assert [len(rows) for rows in judged] == [3] * 100
        expected = run_smc(prior, cfg).posterior.values
        assert np.concatenate(judged).tobytes() == expected.tobytes()
        assert path.read_bytes() == _serial_bytes(tmp_path / "serial.csv", expected,
                                                  monkeypatch, ["x0", "x1"])
        assert multiprocessing.active_children() == []

    def test_exec_verdicts_equal_the_range_oracles(self, tmp_path, monkeypatch, ring):
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
        assert multiprocessing.active_children() == []

    def test_a_judge_that_raises_leaves_no_tmp_or_worker(self, tmp_path, monkeypatch, ring):
        monkeypatch.setattr(core, "BLOCK_DOUBLES", 40)
        prior, cfg = _stream_inputs(300)
        judged = []

        def judge(rows):
            judged.append(len(rows))
            if len(judged) == 20:  # well after the ring has wrapped
                raise ConfigError("judge failed")

        out = tmp_path / "run"
        out.mkdir()
        with pytest.raises(ConfigError, match="judge failed"):
            with report.CsvSink(out / "posterior.csv", ["x0", "x1"], judge) as sink:
                run_smc(prior, cfg, sink=sink)
        assert len(judged) == 20
        assert multiprocessing.active_children() == []
        assert list(out.iterdir()) == []  # made before the sink, so it stays


@contextlib.contextmanager
def _pool_forced(workers):
    """The reader pool on any file size with ``workers`` (>= 2), or off (0)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "POOL_MIN_CELLS", 0)
        patch.setattr(report, "_pool_workers", lambda: workers)
        yield


def _read_outcome(path, workers):
    """read_particles_csv's values, or its ConfigError message."""
    with _pool_forced(workers):
        try:
            values = read_particles_csv(path).values
        except ConfigError as exc:
            return "error", str(exc)
    return values.shape, values.tobytes()


_CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=64),
                   st.sampled_from(SPECIAL_VALUES))
_TABLES = st.integers(1, 3).flatmap(lambda cols: st.lists(
    st.lists(_CELLS, min_size=cols, max_size=cols), min_size=1, max_size=12))
# A defect in the last row lies in the last run, whatever the worker count.
_READ_DEFECTS = ["none", "blank-line", "ragged-row", "inf-cell", "text-cell",
                 "non-utf8-byte", "no-final-newline"]


def _csv_with(data, defect) -> bytes:
    """A particle CSV drawn from ``data``: CRLF or LF lines, cells with or
    without surrounding whitespace, and ``defect`` in one row."""
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
    return text.encode("utf-8", "surrogateescape")


@pytest.fixture
def pool_reader(tmp_path, monkeypatch):
    """Force the reader pool on small files with two workers. Returns the
    pids that parsed a run."""
    monkeypatch.setattr(report, "POOL_MIN_CELLS", 0)
    monkeypatch.setattr(report, "_pool_workers", lambda: 2)
    log = tmp_path / "parser-pids.txt"
    parse_range = report._parse_range

    def logged(*args):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        return parse_range(*args)

    monkeypatch.setattr(report, "_parse_range", logged)
    return lambda: {int(pid) for pid in log.read_text().split()}


def _prior_file(tmp_path, rows=40, cols=10):
    path = tmp_path / "prior.csv"
    write_particles_csv(generate_prior(PriorConfig(n_particles=rows, n_dims=cols, seed=8)),
                        path)
    return path


class TestPoolReader:
    @pytest.mark.parametrize("defect", _READ_DEFECTS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), workers=st.sampled_from([2, 3]))
    def test_pooled_read_equals_the_serial_read(self, tmp_path_factory, defect, data, workers):
        path = tmp_path_factory.mktemp("read") / "particles.csv"
        path.write_bytes(_csv_with(data, defect))
        assert _read_outcome(path, workers) == _read_outcome(path, 0)
        assert multiprocessing.active_children() == []
        if defect == "none":  # no disagreement: the workers' values are used
            with _pool_forced(workers):
                assert report._read_pooled(path) is not None

    @pytest.mark.parametrize("text", [
        b"x0\n1.5\n\n2.5\n",                      # blank line in the last run
        b"x0,x1\n1.5,2.5\n3.5,4.5\n5.5\n",          # ragged last row
        b"x0\n1.5\n2.5\n3.5",                      # no final newline
        b"x0\n1.5\n2.5\n\xff3.5\n",                # non-UTF-8 byte in the last run
        b"x0\r1.5\n2.5\n3.5\n",                    # header ended by a lone CR
        b"x\xff0\n1.5\n2.5\n",                     # non-UTF-8 header
    ], ids=["blank-line", "ragged-row", "no-final-newline", "non-utf8-byte", "cr-header",
            "non-utf8-header"])
    def test_disagreements_fall_back_to_the_serial_read(self, tmp_path, text):
        path = tmp_path / "particles.csv"
        path.write_bytes(text)
        with _pool_forced(2):
            assert report._read_pooled(path) is None
        assert _read_outcome(path, 2) == _read_outcome(path, 0)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2, 0], ids=["pooled", "serial"])
    def test_read_set_is_read_only(self, tmp_path, workers):
        path = _prior_file(tmp_path)
        with _pool_forced(workers):
            assert (report._read_pooled(path) is not None) == (workers > 0)
            assert_read_only(read_particles_csv(path))
        assert multiprocessing.active_children() == []

    def test_workers_parse_the_runs(self, tmp_path, pool_reader):
        path = _prior_file(tmp_path)
        pooled = read_particles_csv(path)
        assert pool_reader() - {os.getpid()}, "no run was parsed by a worker"
        assert os.getpid() not in pool_reader()
        assert multiprocessing.active_children() == []
        assert pooled.values.tobytes() == _read_outcome(path, 0)[1]

    def test_killed_worker_exits_3_without_traceback(self, tmp_path, monkeypatch, capfd,
                                                    pool_reader):
        monkeypatch.setattr(report, "_parse_range", _dying_in_worker(report._parse_range))
        out = tmp_path / "run"
        args = ["run", "mcmc", "--prior", str(_prior_file(tmp_path)), "--steps", "2",
                "--burn-in", "0", "--out", str(out)]
        assert main(args) == 3
        err = capfd.readouterr().err
        assert "environment error" in err and "reader process died" in err
        assert "prior.csv" in err and "Traceback" not in err
        assert multiprocessing.active_children() == []
        assert not out.exists()

    def test_interrupt_through_main_exits_130_leaving_no_child(self, tmp_path, monkeypatch,
                                                               capfd, pool_reader):
        monkeypatch.setattr(report, "_parse_range",
                            _interrupting(tmp_path, report._parse_range))
        out = tmp_path / "run"
        args = ["run", "mcmc", "--prior", str(_prior_file(tmp_path)), "--steps", "2",
                "--burn-in", "0", "--out", str(out)]
        assert main(args) == 130
        assert capfd.readouterr().err == "abc-fuzz: interrupted\n"
        assert multiprocessing.active_children() == []
        assert not out.exists()
