"""Report persistence: JSON round-trips, CSV dumps, plot-data files."""

import json
import mmap
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from abcfuzz import (
    ConfigError,
    LikelihoodConfig,
    McmcConfig,
    ParticleSet,
    PriorConfig,
    RunReport,
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
from abcfuzz.report import write_csv, write_json


def _report(**overrides):
    fields = dict(
        sampler="smc",
        seed=42,
        config_echo={"smc": {"n_steps": 10}},
        prior_pass_rate=0.3,
        posterior_pass_rate=0.897,
        oracle_calls=20,
        diagnostics={"ess_final": 5.5},
    )
    fields.update(overrides)
    return RunReport(**fields)


def _read_back(path):
    return RunReport.from_dict(json.loads(path.read_text(encoding="utf-8")))


class TestRunReport:
    def test_write_read_round_trip(self, tmp_path):
        report = _report()
        path = tmp_path / "report.json"
        write_report(report, path)
        assert _read_back(path) == report

    def test_posterior_rate_survives_at_full_precision(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(_report(posterior_pass_rate=0.897), path)
        assert _read_back(path).posterior_pass_rate == 0.897

    def test_same_content_differs_only_in_timestamp(self, tmp_path):
        a = _report().to_dict()
        b = _report().to_dict()
        a.pop("timestamp"), b.pop("timestamp")
        assert a == b

    def test_stable_key_order(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(_report(timestamp="2026-01-01T00:00:00+00:00"), path)
        first = path.read_bytes()
        write_report(_report(timestamp="2026-01-01T00:00:00+00:00"), path)
        assert path.read_bytes() == first
        keys = list(json.loads(first).keys())
        assert keys == sorted(keys)

    def test_sampler_and_rates_validated(self):
        with pytest.raises(ConfigError):
            _report(sampler="other")
        with pytest.raises(ConfigError):
            _report(prior_pass_rate=1.5)
        with pytest.raises(ConfigError):
            _report(posterior_pass_rate=-0.1)

    def test_files_end_with_newline(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(_report(), path)
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
        emit_plot_data(small_prior, "prior-histogram-data", path, slice_indices={0, 1, 2})
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
        path = tmp_path / "trace.dat"
        emit_plot_data(mcmc_result, "mcmc-trace-data", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,x0"
        assert len(lines) == 1 + 15
        assert float(lines[1].split(",")[1]) == mcmc_result.trace_dim0[0]

    def test_weights_file_has_delta_column(self, tmp_path, smc_result):
        path = tmp_path / "weights.dat"
        emit_plot_data(smc_result, "smc-weights-data", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,log_weight_sum,ess,delta"
        assert len(lines) == 1 + 12
        first = lines[1].split(",")
        assert first[3] == "nan"  # no previous step to diff against
        second = lines[2].split(",")
        expected = abs(smc_result.weight_sum_series[1] - smc_result.weight_sum_series[0])
        assert float(second[3]) == expected

    def test_kind_result_mismatch_rejected(self, tmp_path, smc_result, small_prior):
        with pytest.raises(ConfigError):
            emit_plot_data(smc_result, "mcmc-trace-data", tmp_path / "x.dat")
        with pytest.raises(ConfigError):
            emit_plot_data(small_prior, "smc-weights-data", tmp_path / "x.dat")
        with pytest.raises(ConfigError):
            emit_plot_data(small_prior, "no-such-kind", tmp_path / "x.dat")


def test_write_json_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        write_json({"x": float("nan")}, tmp_path / "bad.json")


_real_writer_workers = report._writer_workers

SPECIAL_VALUES = [-0.0, 5e-324, 1e16, 1e-05, 1.7976931348623157e308]


@pytest.fixture
def pool_writer(tmp_path, monkeypatch):
    """Force the writer pool on small matrices: 6-cell chunks, no size floor,
    two workers whatever the host. Returns the pids that formatted chunks."""
    monkeypatch.setattr(report, "CHUNK_CELLS", 6)
    monkeypatch.setattr(report, "POOL_MIN_CELLS", 0)
    monkeypatch.setattr(report, "_writer_workers", lambda: 2)
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


def _interrupting_formatter(tmp_path):
    """Wrap ``_format_rows`` so that the first worker call sends the parent one SIGINT."""
    parent, format_rows = os.getpid(), report._format_rows
    sent = tmp_path / "sigint-sent"

    def interrupt_parent(rows):
        if os.getpid() != parent:
            try:  # the first worker call to get here sends the one Ctrl-C
                os.close(os.open(sent, os.O_CREAT | os.O_EXCL))
                os.kill(parent, signal.SIGINT)
            except FileExistsError:
                pass
        return format_rows(rows)

    return interrupt_parent


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
            assert report._writer_workers() == 0
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_killed_worker_exits_3_without_traceback(self, tmp_path, monkeypatch, capfd,
                                                    pool_writer):
        parent, format_rows = os.getpid(), report._format_rows

        def die_in_worker(rows):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return format_rows(rows)

        monkeypatch.setattr(report, "_format_rows", die_in_worker)
        out = tmp_path / "run"
        assert main(["gen-prior", "--n", "40", "--dims", "10", "--out", str(out)]) == 3
        err = capfd.readouterr().err
        assert "environment error" in err and "prior.csv" in err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []

    def test_one_interrupt_in_the_parent_leaves_no_child(self, tmp_path, monkeypatch,
                                                         pool_writer):
        monkeypatch.setattr(report, "_format_rows", _interrupting_formatter(tmp_path))
        with pytest.raises(KeyboardInterrupt):
            write_csv(tmp_path / "big.csv", ["h"], np.ones((200, 3)))
        assert multiprocessing.active_children() == []

    def test_interrupt_through_main_exits_130_without_traceback(self, tmp_path, monkeypatch,
                                                                 capfd, pool_writer):
        monkeypatch.setattr(report, "_format_rows", _interrupting_formatter(tmp_path))
        out = tmp_path / "run"
        assert main(["gen-prior", "--n", "40", "--dims", "10", "--out", str(out)]) == 130
        err = capfd.readouterr().err
        assert err == "abc-fuzz: interrupted\n"
        assert multiprocessing.active_children() == []


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
    """Wrap the SMC likelihood. At call ``at`` it waits up to 10 s for
    ``wait_for()``; with ``fail`` it scores every particle -inf from that
    call on. Returns the list that records one entry per call."""
    calls, score = [], smc.log_likelihood_values

    def watched(values, config):
        calls.append(len(calls))
        if len(calls) == at:
            deadline = time.monotonic() + 10
            while not wait_for() and time.monotonic() < deadline:
                time.sleep(0.01)
        if fail and len(calls) >= at:
            return np.full(values.shape[0], -np.inf)
        return score(values, config)

    monkeypatch.setattr(smc, "log_likelihood_values", watched)
    return calls


def _assert_cleaned_up(out):
    assert multiprocessing.active_children() == []
    assert list(out.iterdir()) == []  # no posterior.csv, no posterior.csv.tmp


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
        assert result.posterior == run_smc(prior, cfg).posterior
        assert path.read_bytes() == _serial_bytes(tmp_path / "serial.csv",
                                                  result.posterior.values, monkeypatch,
                                                  ["x0", "x1"])

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
        parent, format_rows = os.getpid(), report._format_rows

        def die_in_worker(rows):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return format_rows(rows)

        monkeypatch.setattr(report, "_format_rows", die_in_worker)
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
        monkeypatch.setattr(report, "_format_rows", _interrupting_formatter(tmp_path))
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
        monkeypatch.setattr(report, "_writer_workers", _real_writer_workers)
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
        assert path.read_bytes() == _serial_bytes(tmp_path / "serial.csv",
                                                  result.posterior.values, monkeypatch,
                                                  ["x0", "x1"])
