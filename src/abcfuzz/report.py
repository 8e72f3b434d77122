"""Run-artifact persistence: JSON reports, CSV dumps, and plot-data files.

Figures are emitted as plain columnar data (CSV with a header, ``.dat``
extension) rather than rendered images; any external plotting tool can
consume them. Every file ends with a newline, and floats are written at
full round-trip precision. One writer per path: concurrent runs must
target distinct output directories (out/<run-id>/ by convention).
"""

import json
import os
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .core import ConfigError, ENGINE_VERSION, ParticleSet, _require
from .mcmc import McmcResult
from .smc import SmcResult

PLOT_KINDS = {
    "prior-histogram-data": "plot-prior-histogram.dat",
    "dims-1-3-surface-data": "plot-prior-surface.dat",
    "mcmc-trace-data": "plot-mcmc-trace.dat",
    "smc-weights-data": "plot-smc-weights.dat",
}


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class RunReport:
    """Serialized record of one sampler run: config, seed, rates, diagnostics."""

    sampler: str
    seed: int
    config_echo: dict
    prior_pass_rate: Optional[float]
    posterior_pass_rate: Optional[float]
    oracle_calls: int
    diagnostics: dict
    engine_version: str = ENGINE_VERSION
    timestamp: str = ""

    def __post_init__(self):
        _require(self.sampler in ("smc", "mcmc"),
                 f"sampler must be 'smc' or 'mcmc', got {self.sampler!r}")
        for name, rate in (("prior_pass_rate", self.prior_pass_rate),
                           ("posterior_pass_rate", self.posterior_pass_rate)):
            if rate is not None:
                _require(0.0 <= rate <= 1.0, f"{name} must lie in [0, 1], got {rate!r}")
        _require(self.oracle_calls >= 0, "oracle_calls must be nonnegative")
        if not self.timestamp:
            object.__setattr__(self, "timestamp", utc_now_iso())

    def to_dict(self) -> dict:
        return {
            "engine_version": self.engine_version,
            "timestamp": self.timestamp,
            "sampler": self.sampler,
            "seed": self.seed,
            "config_echo": self.config_echo,
            "prior_pass_rate": self.prior_pass_rate,
            "posterior_pass_rate": self.posterior_pass_rate,
            "oracle_calls": self.oracle_calls,
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        return cls(**data)


def write_json(payload: dict, path) -> None:
    """Write a JSON document with sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_report(report: RunReport, path) -> None:
    write_json(report.to_dict(), path)


def read_report(path) -> RunReport:
    with open(path, "r", encoding="utf-8") as fh:
        return RunReport.from_dict(json.load(fh))


def _format(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# Cells per chunk of a matrix's rows: a forked worker formats one chunk per
# task, and the serial path walks the same chunks.
CHUNK_CELLS = 65536
# Matrices smaller than this stay in-process: below it, forking the writer
# pool costs more than the formatting it spreads.
POOL_MIN_CELLS = 262144
# Writer workers never exceed this, whatever the host's CPU count.
POOL_MAX_WORKERS = 4


def _format_rows(rows: np.ndarray) -> str:
    """The one row formatter: a numeric matrix as CSV lines, floats by repr."""
    return "".join([",".join(map(repr, row)) + "\n" for row in rows.tolist()])


def _pool_worker(conn, matrix: np.ndarray, parent_ends) -> None:
    """Writer worker: format the (start, stop) row chunks the parent sends.

    ``matrix`` is inherited through fork, so tasks carry only row bounds and
    the array is never pickled. Ctrl-C is left to the parent. The worker
    closes its inherited copies of the parent's pipe ends, so it ends when
    the parent closes its end or dies.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in parent_ends:
        end.close()
    while True:
        try:
            start, stop = conn.recv()
        except EOFError:
            return
        conn.send(_format_rows(matrix[start:stop]))


def _writer_workers() -> int:
    """Writer processes this process may fork: min(CPUs, cap), or 0 where it
    cannot or should not (no ``fork``, a daemonic multiprocessing worker, or
    another thread running, which a forked child could find holding a lock)."""
    if not hasattr(os, "fork"):
        return 0
    import multiprocessing
    import threading

    if multiprocessing.current_process().daemon or threading.active_count() > 1:
        return 0
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, POOL_MAX_WORKERS)


def _write_matrix(fh, matrix: np.ndarray) -> None:
    """Write a 2-D numeric array's rows in order, in chunks of CHUNK_CELLS.

    A large matrix on a host with two or more usable CPUs is formatted by a
    pool of forked workers. Chunk k goes to worker k mod W, at most two
    chunks in flight per worker, and the parent writes the results in input
    order, so the bytes equal the serial path's. A worker that dies raises
    OSError; on any error or interrupt the workers are terminated and
    reaped before the exception leaves.
    """
    step = max(1, CHUNK_CELLS // max(1, matrix.shape[1]))
    bounds = [(start, min(start + step, matrix.shape[0]))
              for start in range(0, matrix.shape[0], step)]
    if matrix.size < POOL_MIN_CELLS or (workers := _writer_workers()) < 2:
        for start, stop in bounds:
            fh.write(_format_rows(matrix[start:stop]))
        return

    import multiprocessing

    context = multiprocessing.get_context("fork")
    fh.flush()  # a forked worker must not inherit unwritten buffered text
    pool = []
    try:
        for _ in range(workers):
            conn, child_conn = context.Pipe()
            parent_ends = [end for _, end in pool] + [conn]
            proc = context.Process(target=_pool_worker, args=(child_conn, matrix, parent_ends),
                                   daemon=True)
            proc.start()
            child_conn.close()
            pool.append((proc, conn))
        window = 2 * workers
        try:
            for k, chunk in enumerate(bounds[:window]):
                pool[k % workers][1].send(chunk)
            for k in range(len(bounds)):
                conn = pool[k % workers][1]
                text = conn.recv()
                if k + window < len(bounds):
                    conn.send(bounds[k + window])
                fh.write(text)
        except (EOFError, BrokenPipeError, ConnectionResetError) as exc:
            # a worker's pipe closed under it: the worker died
            raise OSError(f"a CSV writer process died while writing {fh.name}") from exc
    finally:
        for proc, conn in pool:
            proc.terminate()
            conn.close()
        for proc, _ in pool:
            proc.join()


def write_csv(path, header: Sequence[str], rows: Union[np.ndarray, Iterable[Sequence]]) -> None:
    """Plain comma-separated writer; floats keep full round-trip precision.

    ``rows`` is a 2-D numeric array, converted to Python numbers one chunk
    of rows at a time (never the whole matrix at once, which would multiply
    peak memory), or an iterable of rows of numbers and strings.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            _write_matrix(fh, rows)
        else:
            for row in rows:
                fh.write(",".join(map(_format, row)) + "\n")


def write_particles_csv(particles: ParticleSet, path) -> None:
    """One particle per row, columns x0..x{D-1}."""
    header = [f"x{i}" for i in range(particles.dim)]
    write_csv(path, header, particles.values)


def read_particles_csv(path) -> ParticleSet:
    """Load a particle CSV: one header line, then one particle per row.

    Ragged rows, non-numeric or non-finite cells and a file without rows
    raise ConfigError naming the file.
    """
    try:
        with warnings.catch_warnings():
            # a file without data rows warns and loads as an empty matrix
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None,
                                encoding="utf-8")
    except ValueError as exc:
        raise ConfigError(f"particle CSV {path} is malformed: {exc}") from exc
    _require(values.shape[0] >= 1, f"particle CSV {path} needs a header and at least one row")
    try:
        return ParticleSet(values)
    except ConfigError as exc:
        raise ConfigError(f"particle CSV {path}: {exc}") from exc


def emit_plot_data(result: Union[SmcResult, McmcResult, ParticleSet], kind: str,
                   path, slice_indices: Optional[set] = None) -> None:
    """Write one figure's underlying data as a columnar text file.

    Kinds and the result type they need:

    - ``prior-histogram-data`` (ParticleSet): dimension-0 value of every
      particle with a 0/1 flag marking membership in the forced-zero slice
      (pass ``slice_indices``; defaults to empty).
    - ``dims-1-3-surface-data`` (ParticleSet, D >= 4): coordinates 1..3 of
      every particle, verbatim.
    - ``mcmc-trace-data`` (McmcResult): (step, x0) for every step.
    - ``smc-weights-data`` (SmcResult): (step, log_weight_sum, ess, delta)
      where delta is the absolute change in log_weight_sum from the
      previous step (nan on step 0).
    """
    if kind not in PLOT_KINDS:
        raise ConfigError(f"unknown plot kind {kind!r}; expected one of {sorted(PLOT_KINDS)}")

    if kind == "prior-histogram-data":
        if not isinstance(result, ParticleSet):
            raise ConfigError(f"plot kind {kind!r} needs a ParticleSet")
        marked = slice_indices or set()
        rows = ((v, 1 if i in marked else 0)
                for i, v in enumerate(result.values[:, 0]))
        write_csv(path, ["x0", "in_slice"], rows)
    elif kind == "dims-1-3-surface-data":
        if not isinstance(result, ParticleSet):
            raise ConfigError(f"plot kind {kind!r} needs a ParticleSet")
        if result.dim < 4:
            raise ConfigError(
                f"plot kind {kind!r} needs particles with at least 4 dims, got {result.dim}")
        write_csv(path, ["x1", "x2", "x3"], result.values[:, 1:4])
    elif kind == "mcmc-trace-data":
        if not isinstance(result, McmcResult):
            raise ConfigError(f"plot kind {kind!r} needs an McmcResult")
        rows = ((step, x0) for step, x0 in enumerate(result.trace_dim0))
        write_csv(path, ["step", "x0"], rows)
    else:  # smc-weights-data
        if not isinstance(result, SmcResult):
            raise ConfigError(f"plot kind {kind!r} needs an SmcResult")
        sums = result.weight_sum_series
        deltas = np.concatenate([[np.nan], np.abs(np.diff(sums))])
        rows = zip(range(sums.size), sums, result.ess_series, deltas)
        write_csv(path, ["step", "log_weight_sum", "ess", "delta"], rows)
