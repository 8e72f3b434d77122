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
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .core import ConfigError, ENGINE_VERSION, ParticleSet, _Record, _require
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
class RunReport(_Record):
    """Serialized record of one sampler run: config, seed, rates, diagnostics."""

    SECTION = "report"

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


def _create(path, binary: bool = False):
    """Open ``path`` for writing, creating its directory first: an output
    directory appears only once a run has an artifact to put in it."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    if binary:
        return open(path, "wb")
    return open(path, "w", encoding="utf-8", newline="")


def write_json(payload: dict, path) -> None:
    """Write a JSON document with sorted keys and a trailing newline."""
    with _create(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_report(report: RunReport, path) -> None:
    write_json(report.to_dict(), path)


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
# Bytes a float64 cell can take as CSV text: the longest repr
# ("-1.7976931348623157e+308") and its separator.
CELL_BYTES = 25


def _format_lines(rows) -> str:
    """Rows of Python numbers as CSV lines: ints as written, floats by repr."""
    return "".join([",".join(map(repr, row)) + "\n" for row in rows])


def _format_rows(rows: np.ndarray) -> str:
    """The one matrix formatter: a numeric matrix as CSV lines, floats by repr."""
    return _format_lines(rows.tolist())


def _shared(nbytes: int, what: str):
    """An anonymous shared mapping of ``nbytes`` for ``what``, which forked
    children share."""
    import mmap

    try:
        return mmap.mmap(-1, nbytes)
    except OSError as exc:  # reported like a failed numpy allocation
        raise MemoryError(f"Unable to map {nbytes} bytes for {what}: {exc.strerror}") from exc


def _pool_worker(conn, matrix: np.ndarray, slots, parent_ends) -> None:
    """Writer worker: format the row chunks the parent sends.

    ``matrix`` and the shared ``slots`` mapping are inherited through fork,
    so a task carries only its row bounds and its slot's offset. The worker
    copies the chunk's text into its slot, which a float64 chunk's text
    always fits, and answers with the text's length, so the parent never
    waits on a long transfer. Ctrl-C is left to the parent.
    The worker closes its inherited copies of the parent's pipe ends, so
    it ends when the parent closes its end or dies.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in parent_ends:
        end.close()
    while True:
        try:
            start, stop, offset = conn.recv()
        except EOFError:
            return
        text = _format_rows(matrix[start:stop]).encode("ascii")
        slots[offset:offset + len(text)] = text
        conn.send(len(text))


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


class CsvSink:
    """A float64 matrix written to a CSV file while its rows become final, front to back.

    Rows are formatted in chunks of CHUNK_CELLS cells. A matrix of at least
    POOL_MIN_CELLS cells, in a process that may fork two or more writer
    workers, is formatted by a pool of forked workers: chunk k goes to
    worker k mod W, which leaves its text in a shared slot, and the parent
    writes the texts in input order, so the bytes equal the serial path's.
    ``buffer`` allocates a large matrix in an anonymous shared mapping, so
    workers forked before its last rows are filled still read them.
    Nothing is created and nothing forked before the first ``advance``.

    Use it as a context manager. The file appears under its own name only
    when the block ends cleanly; until then it is written under the same
    name plus ``.tmp``. On any error or interrupt the workers are
    terminated and reaped and the temporary file is deleted before the
    exception leaves. A worker that dies raises OSError.
    """

    def __init__(self, path, header: Sequence[str]):
        self._path = Path(path)
        self._temp = self._path.with_name(self._path.name + ".tmp")
        self._header = header
        self._matrix = None
        self._bounds = []
        self._final = 0    # leading chunks whose rows are all final
        self._sent = 0     # leading chunks handed to a worker
        self._written = 0  # leading chunks written to the file
        self._fh = None
        self._pool = []    # (process, connection) per worker
        self._slots = None  # shared text slots, one per chunk in flight
        self._slot_bytes = 0
        self._release = None  # madvise option that unmaps a written slot

    def buffer(self, rows: int, cols: int) -> np.ndarray:
        """A writable (rows, cols) float matrix for the caller to fill front to back."""
        if rows * cols < POOL_MIN_CELLS:
            return self._attach(np.empty((rows, cols)))
        shared = _shared(rows * cols * 8, f"a ({rows}, {cols}) matrix")
        return self._attach(np.frombuffer(shared).reshape(rows, cols))

    def _attach(self, matrix: np.ndarray) -> np.ndarray:
        # CELL_BYTES bounds a float64 cell's text, so each chunk's text fits its slot
        _require(matrix.dtype == np.float64,
                 f"CSV matrix must hold float64 values, got {matrix.dtype}")
        step = max(1, CHUNK_CELLS // max(1, matrix.shape[1]))
        self._matrix = matrix
        self._bounds = [(start, min(start + step, matrix.shape[0]))
                        for start in range(0, matrix.shape[0], step)]
        return matrix

    def advance(self, stop: int) -> None:
        """Rows [0, stop) are final: format every chunk they complete.

        Pooled, each completed chunk goes to a worker, at most one in flight
        per worker, and the texts already done are written without waiting
        for the others.
        """
        if self._fh is None:
            self._start()
        while self._final < len(self._bounds) and self._bounds[self._final][1] <= stop:
            self._final += 1
        self._pump(len(self._pool), wait=False)

    def _start(self) -> None:
        self._fh = _create(self._temp, binary=True)
        self._fh.write((",".join(self._header) + "\n").encode("utf-8"))
        if self._matrix.size < POOL_MIN_CELLS or (workers := _writer_workers()) < 2:
            return

        import mmap
        import multiprocessing

        # a slot per chunk in flight, at most two per worker, in whole pages;
        # the first chunk is the largest
        cells = (self._bounds[0][1] if self._bounds else 0) * self._matrix.shape[1]
        self._slot_bytes = max(1, -(-cells * CELL_BYTES // mmap.PAGESIZE)) * mmap.PAGESIZE
        self._release = mmap.MADV_DONTNEED
        self._slots = _shared(2 * workers * self._slot_bytes, "CSV text")
        context = multiprocessing.get_context("fork")
        self._fh.flush()  # a forked worker must not inherit unwritten buffered output
        for _ in range(workers):
            conn, child_conn = context.Pipe()
            parent_ends = [end for _, end in self._pool] + [conn]
            proc = context.Process(target=_pool_worker,
                                   args=(child_conn, self._matrix, self._slots, parent_ends),
                                   daemon=True)
            proc.start()
            child_conn.close()
            self._pool.append((proc, conn))

    def _slot(self, chunk: int) -> int:
        """Offset of the slot that chunk ``chunk`` uses; a slot is reused only
        after its previous chunk is written, since at most as many chunks
        are in flight as there are slots."""
        return chunk % (2 * len(self._pool)) * self._slot_bytes

    def _pump(self, window: int, wait: bool) -> None:
        """Hand final chunks to workers, ``window`` at most in flight, and
        write finished texts in order; wait for them only when ``wait``."""
        pool, bounds, fh = self._pool, self._bounds, self._fh
        if not pool:
            for start, stop in bounds[self._written:self._final]:
                fh.write(_format_rows(self._matrix[start:stop]).encode("ascii"))
            self._sent = self._written = self._final
            return
        try:
            while True:
                while self._sent < self._final and self._sent - self._written < window:
                    pool[self._sent % len(pool)][1].send(
                        (*bounds[self._sent], self._slot(self._sent)))
                    self._sent += 1
                if self._written == self._sent:
                    return
                conn = pool[self._written % len(pool)][1]
                if not wait and not conn.poll():
                    return
                size, offset = conn.recv(), self._slot(self._written)
                fh.write(memoryview(self._slots)[offset:offset + size])
                # the text is in the file: unmap the slot's pages from this
                # process, so its memory does not grow by every slot
                self._slots.madvise(self._release, offset, size)
                self._written += 1
        except (EOFError, BrokenPipeError, ConnectionResetError) as exc:
            # a worker's pipe closed under it: the worker died
            raise OSError(f"a CSV writer process died while writing {self._path}") from exc

    def __enter__(self) -> "CsvSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                # the last chunks go to all workers, two in flight per worker
                self.advance(self._matrix.shape[0])
                self._pump(2 * len(self._pool), wait=True)
                self._fh.close()
                os.replace(self._temp, self._path)
                self._fh = None
        finally:
            for proc, conn in self._pool:
                proc.terminate()
                conn.close()
            for proc, _ in self._pool:
                proc.join()
            self._pool = []
            self._slots = None
            self._matrix = None  # unmaps a shared buffer once its caller drops it too
            if self._fh is not None:
                fh, self._fh = self._fh, None
                try:
                    fh.close()
                finally:
                    os.unlink(self._temp)


def write_csv(path, header: Sequence[str], rows: Union[np.ndarray, Iterable[Sequence]] = (),
              *, columns: Optional[Sequence] = None) -> None:
    """Plain comma-separated writer; floats keep full round-trip precision.

    ``rows`` is a 2-D float64 array, written through a CsvSink, which
    converts it to Python numbers one chunk of rows at a time (never the
    whole matrix at once, which would multiply peak memory), or an
    iterable of rows of numbers and strings. ``columns``, given instead of
    ``rows``, holds equal-length numeric columns: arrays, converted with
    ``tolist`` once each, or sequences of Python ints.
    """
    if isinstance(rows, np.ndarray):
        with CsvSink(path, header) as sink:
            sink._attach(rows)
        return
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        if columns is not None:
            fh.write(_format_lines(zip(*[c.tolist() if isinstance(c, np.ndarray) else c
                                         for c in columns])))
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
        flags = [1 if i in marked else 0 for i in range(result.n)]
        write_csv(path, ["x0", "in_slice"], columns=[result.values[:, 0], flags])
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
        write_csv(path, ["step", "x0"],
                  columns=[range(result.trace_dim0.size), result.trace_dim0])
    else:  # smc-weights-data
        if not isinstance(result, SmcResult):
            raise ConfigError(f"plot kind {kind!r} needs an SmcResult")
        sums = result.weight_sum_series
        deltas = np.concatenate([[np.nan], np.abs(np.diff(sums))])
        write_csv(path, ["step", "log_weight_sum", "ess", "delta"],
                  columns=[range(sums.size), sums, result.ess_series, deltas])
