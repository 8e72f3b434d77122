"""Run-artifact persistence: JSON reports, CSV dumps, and plot-data files.

Figures are emitted as plain columnar data (CSV with a header, ``.dat``
extension) rather than rendered images; any external plotting tool can
consume them. Every file ends with a newline, and floats are written at
full round-trip precision. One writer per path: concurrent runs must
target distinct output directories (out/<run-id>/ by convention).
"""

import contextlib
import io
import json
import os
import signal
import warnings
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import ConfigError, ENGINE_VERSION, ParticleSet, _load_ndtri, _require


def _create(path):
    """Open ``path`` for writing bytes, creating its directory first: an
    output directory appears only once a run has an artifact to put in it."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "wb")


def write_json(payload: dict, path) -> None:
    """Write a JSON document with sorted keys and a trailing newline; a
    payload that cannot be encoded raises before the file is opened."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with _create(path) as fh:
        fh.write(f"{text}\n".encode())


def write_report(payload: dict, path) -> None:
    """Write a command's report.json: ``payload`` stamped with the engine
    version and the UTC time of writing."""
    write_json({**payload, "engine_version": ENGINE_VERSION,
                "timestamp": datetime.now(timezone.utc).isoformat()}, path)


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


def _format_rows(rows: np.ndarray) -> str:
    """The one matrix formatter: a float64 matrix as CSV lines, floats by repr.

    A row whose bits equal the previous row's (a rejected Metropolis
    proposal repeats the chain's state) reuses that row's text. Bits, not
    values: a -0.0 row after a 0.0 row is printed as its own.
    """
    bits = rows.view(np.int64)
    new = np.ones(rows.shape[0], dtype=bool)
    np.any(bits[1:] != bits[:-1], axis=1, out=new[1:])
    starts = np.flatnonzero(new)
    repeats = np.diff(starts, append=rows.shape[0]).tolist()
    lines = [",".join(map(repr, row)) + "\n" for row in rows[starts].tolist()]
    return "".join([line * count for line, count in zip(lines, repeats)])


def _shared(nbytes: int, what: str):
    """An anonymous shared mapping of ``nbytes`` for ``what``, which forked
    children share."""
    import mmap

    try:
        return mmap.mmap(-1, nbytes)
    except OSError as exc:  # reported like a failed numpy allocation
        raise MemoryError(f"Unable to map {nbytes} bytes for {what}: {exc.strerror}") from exc


def _format_chunk(matrix: np.ndarray, slots, task) -> int:
    """Writer task: format rows [start, stop) of ``matrix`` into the shared
    ``slots`` mapping at ``offset``, which a float64 chunk's text always
    fits, and return the text's length, so the parent never waits on a long
    transfer."""
    start, stop, offset = task
    text = _format_rows(matrix[start:stop]).encode("ascii")
    slots[offset:offset + len(text)] = text
    return len(text)


def _pool_worker(conn, parent_ends, handle, mask) -> None:
    """A forked pool worker: answer each task the parent sends with
    ``handle(task)`` until the parent closes its end.

    The worker inherits what ``handle`` reads (a matrix, a shared mapping)
    through fork, so a task carries only bounds. It leaves Ctrl-C to the
    parent, gives SIGTERM and SIGHUP, unless ignored, their default action
    and only then restores the parent's signal ``mask``. It closes its copies
    of the parent's pipe ends, so it ends silently when the parent closes its end or dies.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for sig in (signal.SIGTERM, signal.SIGHUP):  # a forked worker runs where SIGHUP exists
        if signal.getsignal(sig) != signal.SIG_IGN:
            signal.signal(sig, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    for end in parent_ends:
        end.close()
    while True:
        try:
            task = conn.recv()
        except (EOFError, ConnectionResetError):  # the parent closed its end, or died
            return
        result = handle(task)
        with contextlib.suppress(BrokenPipeError, ConnectionResetError):  # the parent died
            conn.send(result)


def _pool_workers() -> int:
    """Pool processes this process may fork: min(CPUs, cap), or 0 where it
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


def _fork_pool(pool: list, workers: int, handle) -> None:
    """Fork ``workers`` pool workers serving ``handle``, appending each
    (process, connection) to ``pool`` as it starts, so that ``_reap(pool)``
    in the caller's ``finally`` also ends the ones started before a failure.
    Stop signals wait until the forks are done and in ``pool``."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM, signal.SIGHUP})
    try:
        for _ in range(workers):
            conn, child_conn = context.Pipe()
            parent_ends = [end for _, end in pool] + [conn]
            proc = context.Process(target=_pool_worker, daemon=True,
                                   args=(child_conn, parent_ends, handle, mask))
            proc.start()
            child_conn.close()
            pool.append((proc, conn))
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _reap(pool: list) -> None:
    """Kill and join every worker of ``pool``, and empty it."""
    for proc, conn in pool:
        proc.kill()
        conn.close()
    for proc, _ in pool:
        proc.join()
    pool.clear()


# A pipe that closes under the parent: the worker at its other end died.
_WORKER_DIED = (EOFError, BrokenPipeError, ConnectionResetError)


class CsvSink:
    """A float64 matrix written to a CSV file while its rows become final, front to back.

    Rows are formatted in chunks of CHUNK_CELLS cells. A matrix of at least
    POOL_MIN_CELLS cells, in a process that may fork two or more writer
    workers, is formatted by a pool of forked workers: chunk k goes to
    worker k mod W, which leaves its text in a shared slot, and the parent
    writes the texts in input order, so the bytes equal the serial path's.
    ``buffer`` gives the caller a ring of whole chunks, two per worker plus
    two, in an anonymous shared mapping for a matrix the pool may format,
    so workers forked before its rows are filled still read them. Each
    chunk, once final, is passed to ``judge``, if given, in row order.
    Nothing is created and nothing forked before the first ``advance``.

    Use it as a context manager. The file appears under its own name only
    when the block ends cleanly; until then it is written under the same
    name plus ``.tmp``. On any error or interrupt, a judge's included, the
    workers are killed and reaped and the temporary file is deleted before
    the exception leaves, with every directory made for it that is then
    empty. A worker that dies raises OSError.
    """

    def __init__(self, path, header: Sequence[str], judge=None):
        self._path = Path(path)
        self._temp = self._path.with_name(self._path.name + ".tmp")
        self._header = header
        self._judge = judge
        self._ring = None  # the matrix's rows, row r at ring row r mod len(ring)
        self._rows = 0     # rows of the matrix
        self._chunk = 1    # rows per chunk
        self._final = 0    # leading chunks whose rows are all final
        self._sent = 0     # leading chunks handed to a worker
        self._written = 0  # leading chunks written to the file
        self._fh = None
        self._made = []    # directories made for the file, deepest first
        self._pool = []    # (process, connection) per worker
        self._slots = None  # shared text slots, one per chunk in flight
        self._slot_bytes = 0
        self._release = None  # madvise option that unmaps a written slot

    def buffer(self, rows: int, cols: int) -> np.ndarray:
        """A writable ring for a (rows, cols) float matrix that the caller
        fills front to back, at most half the ring between two ``advance``
        calls: row r goes to ring row r mod len(ring)."""
        chunk = max(1, CHUNK_CELLS // max(1, cols))
        if rows * cols < POOL_MIN_CELLS:
            return self._attach(np.empty((min(rows, 2 * chunk), cols)), rows)
        workers = _pool_workers()
        size = min(rows, (2 * workers + 2 if workers >= 2 else 2) * chunk)
        shared = _shared(size * cols * 8, f"a ({size}, {cols}) ring")
        return self._attach(np.frombuffer(shared).reshape(size, cols), rows)

    def _attach(self, ring: np.ndarray, rows: Optional[int] = None) -> np.ndarray:
        # CELL_BYTES bounds a float64 cell's text, so each chunk's text fits its slot
        _require(ring.dtype == np.float64,
                 f"CSV matrix must hold float64 values, got {ring.dtype}")
        self._ring, self._rows = ring, ring.shape[0] if rows is None else rows
        self._chunk = max(1, CHUNK_CELLS // max(1, ring.shape[1]))
        return ring

    def _span(self, chunk: int):
        """Ring rows [start, stop) of chunk ``chunk``, which a ring of whole chunks never wraps."""
        first = chunk * self._chunk
        start = first % len(self._ring)
        return start, start + min(self._chunk, self._rows - first)

    def advance(self, stop: int) -> None:
        """Rows [0, stop) are final: judge and format every chunk they
        complete, and return once the ring rows that the next half ring of
        rows takes over are written.

        Pooled, each completed chunk goes to a worker, at most one in flight
        per worker, and the texts already done are written without waiting
        for the others.
        """
        if self._fh is None:
            self._start()
        final = -(-self._rows // self._chunk) if stop >= self._rows else stop // self._chunk
        if self._judge is not None:
            for chunk in range(self._final, final):
                self._judge(self._ring[slice(*self._span(chunk))])
        self._final = final
        # the leading chunks whose ring rows the next half ring of rows takes over
        taken = min(self._rows, stop + len(self._ring) // 2) - len(self._ring)
        self._pump(len(self._pool), -(-taken // self._chunk))

    def _start(self) -> None:
        directory = self._temp.parent
        self._made = [d for d in (directory, *directory.parents) if not d.exists()]
        self._fh = _create(self._temp)
        self._fh.write((",".join(self._header) + "\n").encode("utf-8"))
        if self._rows * self._ring.shape[1] < POOL_MIN_CELLS or (workers := _pool_workers()) < 2:
            return

        import mmap

        # a slot per chunk in flight, at most two per worker, in whole pages;
        # the first chunk is the largest
        cells = min(self._chunk, self._rows) * self._ring.shape[1]
        self._slot_bytes = max(1, -(-cells * CELL_BYTES // mmap.PAGESIZE)) * mmap.PAGESIZE
        self._release = mmap.MADV_DONTNEED
        self._slots = _shared(2 * workers * self._slot_bytes, "CSV text")
        self._fh.flush()  # a forked worker must not inherit unwritten buffered output
        _fork_pool(self._pool, workers, partial(_format_chunk, self._ring, self._slots))

    def _slot(self, chunk: int) -> int:
        """Offset of chunk ``chunk``'s slot, reused only once its previous chunk
        is written: no more chunks are in flight than there are slots."""
        return chunk % (2 * len(self._pool)) * self._slot_bytes

    def _pump(self, window: int, need: int) -> None:
        """Hand final chunks to workers, ``window`` at most in flight, and
        write finished texts in order, waiting for them only until the
        first ``need`` chunks are written."""
        pool, fh = self._pool, self._fh
        if not pool:
            for chunk in range(self._written, self._final):
                fh.write(_format_rows(self._ring[slice(*self._span(chunk))]).encode("ascii"))
            self._sent = self._written = self._final
            return
        try:
            while True:
                while self._sent < self._final and self._sent - self._written < window:
                    pool[self._sent % len(pool)][1].send(
                        (*self._span(self._sent), self._slot(self._sent)))
                    self._sent += 1
                if self._written == self._sent:
                    return
                conn = pool[self._written % len(pool)][1]
                if self._written >= need and not conn.poll():
                    return
                size, offset = conn.recv(), self._slot(self._written)
                fh.write(memoryview(self._slots)[offset:offset + size])
                # the text is in the file: unmap the slot's pages from this
                # process, so its memory does not grow by every slot
                self._slots.madvise(self._release, offset, size)
                self._written += 1
        except _WORKER_DIED as exc:
            raise OSError(f"a CSV writer process died while writing {self._path}") from exc

    def __enter__(self) -> "CsvSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                # the last chunks go to all workers, two in flight per worker
                self.advance(self._rows)
                self._pump(2 * len(self._pool), self._final)
                self._fh.close()
                os.replace(self._temp, self._path)
                self._fh = None
        finally:
            _reap(self._pool)
            self._slots = None
            self._ring = None  # unmaps a shared ring once its caller drops it too
            if self._fh is not None:
                fh, self._fh = self._fh, None
                try:
                    fh.close()
                finally:
                    os.unlink(self._temp)
                    # a directory that is not empty stays, and so do its parents
                    with contextlib.suppress(OSError):
                        for directory in self._made:
                            directory.rmdir()


def write_csv(path, header: Sequence[str], rows: np.ndarray) -> None:
    """Plain comma-separated writer of a 2-D float64 array, floats at full
    round-trip precision, through a CsvSink, which converts it to Python
    numbers one chunk of rows at a time (never the whole matrix at once,
    which would multiply peak memory)."""
    with CsvSink(path, header) as sink:
        sink._attach(rows)


def write_particles_csv(particles: ParticleSet, path) -> None:
    """One particle per row, columns x0..x{D-1}."""
    header = [f"x{i}" for i in range(particles.dim)]
    write_csv(path, header, particles.values)


# Bytes a reader takes from a CSV file at a time.
_READ_BLOCK = 1 << 20


def _loadtxt(source, skiprows: int = 0) -> np.ndarray:
    """The one CSV parser: comma-separated float rows, blank lines skipped,
    as a matrix, which a source without data rows warns about and leaves empty."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(source, delimiter=",", skiprows=skiprows, ndmin=2, comments=None,
                          encoding="utf-8")


class _ByteRange(io.RawIOBase):
    """Bytes [start, stop) of a file opened unbuffered in binary mode."""

    def __init__(self, raw, start: int, stop: int):
        raw.seek(start)
        self._raw, self._left = raw, stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        size = self._raw.readinto(memoryview(buffer)[:min(len(buffer), self._left)])
        self._left -= size
        return size


def _parse_range(path, matrix: np.ndarray, task) -> bool:
    """Reader task: parse bytes [start, stop) of ``path``, a run of whole
    lines, into ``rows`` rows of ``matrix`` from row ``first``.

    The bytes are decoded like the serial reader's whole file (UTF-8,
    universal newlines), which splitting after a "\n" byte leaves
    unchanged, and parsed by the same ``_loadtxt``. Any other outcome than
    exactly (rows, columns) values, an error included, returns False: the
    caller then parses the file serially, which reports the error.
    """
    start, stop, first, rows = task
    try:
        with open(path, "rb", buffering=0) as raw, io.TextIOWrapper(
                io.BufferedReader(_ByteRange(raw, start, stop), _READ_BLOCK),
                encoding="utf-8") as text:
            part = _loadtxt(text)
    except Exception:  # any failure is a disagreement, settled by the serial reader
        return False
    if part.shape != (rows, matrix.shape[1]):
        return False
    matrix[first:first + rows] = part
    return True


def _split_lines(fh, start: int, end: int, parts: int):
    """Cut bytes [start, end) of ``fh`` into at most ``parts`` runs of whole
    lines of near-equal size, streaming them in _READ_BLOCK pieces:
    [(start, stop, first row, rows)], where a row is a "\n"-ended line, plus
    whether the last byte read is "\n"."""
    targets = [start + (end - start) * k // parts for k in range(1, parts)]
    runs, begin, first, rows, pos, last = [], start, 0, 0, start, b""
    fh.seek(start)
    while block := fh.read(_READ_BLOCK):
        done = 0  # bytes of the block whose lines are counted
        while targets and targets[0] < pos + len(block):
            cut = block.find(b"\n", max(targets[0] - pos, done))
            if cut < 0:  # the run ends in a later block
                break
            cut += 1
            rows += block.count(b"\n", done, cut)
            runs.append((begin, pos + cut, first, rows))
            begin, first, rows, done = pos + cut, first + rows, 0, cut
            targets = [t for t in targets if t >= begin]
        rows += block.count(b"\n", done)
        pos += len(block)
        last = block[-1:]
    if begin < pos:
        runs.append((begin, pos, first, rows))
    return runs, last == b"\n"


def _read_pooled(path) -> Optional[np.ndarray]:
    """The data rows of a large particle CSV, parsed by forked workers, or
    None where the serial reader must run.

    A file whose data has an estimated POOL_MIN_CELLS cells or more, in a
    process that may fork two or more workers, is cut into one run of whole
    lines per worker. The parent counts each run's "\n"-ended lines and
    takes the column count from the first data row; each worker parses its
    run into its rows of a shared matrix. Anything the serial reader would
    read differently (blank lines, a ragged row, a header that is not one
    UTF-8 line, a missing final newline) shows as a count or shape that
    disagrees, and returns None. A worker that dies raises OSError. While
    the workers parse, the parent loads scipy for the run's first draw.
    """
    try:
        fh = open(path, "rb")
    except OSError:  # the serial reader reports it
        return None
    with fh:
        header, row = fh.readline(_READ_BLOCK), fh.readline(_READ_BLOCK)
        if not (header.endswith(b"\n") and row.endswith(b"\n")):
            return None
        try:
            header.decode("utf-8")
        except UnicodeDecodeError:
            return None
        if b"\r" in header.removesuffix(b"\n").removesuffix(b"\r"):
            return None  # universal newlines end the header before its "\n"
        cols = row.count(b",") + 1
        size = os.fstat(fh.fileno()).st_size
        data = size - len(header)
        if data // len(row) * cols < POOL_MIN_CELLS or (workers := _pool_workers()) < 2:
            return None
        runs, newline_ended = _split_lines(fh, len(header), size, workers)
    rows = sum(run[3] for run in runs)
    # a well-formed row takes two bytes a cell, so this also bounds the matrix
    if not newline_ended or 2 * rows * cols > data:
        return None
    matrix = np.frombuffer(_shared(rows * cols * 8, f"a ({rows}, {cols}) matrix"))
    matrix = matrix.reshape(rows, cols)
    pool = []
    try:
        _fork_pool(pool, len(runs), partial(_parse_range, path, matrix))
        for (_, conn), run in zip(pool, runs):
            conn.send(run)
        # the run's first draw needs scipy: load it while the workers parse,
        # and leave a scipy that cannot be imported for that draw to report
        with contextlib.suppress(ImportError):
            _load_ndtri()
        parsed = [conn.recv() for _, conn in pool]
    except _WORKER_DIED as exc:
        raise OSError(f"a CSV reader process died while reading {path}") from exc
    finally:
        _reap(pool)
    return matrix if all(parsed) else None


def read_particles_csv(path) -> ParticleSet:
    """Load a particle CSV: one header line, then one particle per row.

    A large file is parsed by forked workers where the process may fork
    (see ``_read_pooled``), and otherwise, or on any disagreement, in
    process; both give the same values and errors. While the workers
    parse, this process imports scipy.special, which a sampler's first
    normal draw needs; a caller that never draws pays for that import too.
    Ragged rows, non-numeric or non-finite cells and a file without rows
    raise ConfigError naming the file.
    """
    values = _read_pooled(path)
    if values is None:
        try:
            values = _loadtxt(path, skiprows=1)
        except ValueError as exc:
            raise ConfigError(f"particle CSV {path} is malformed: {exc}") from exc
    _require(values.shape[0] >= 1, f"particle CSV {path} needs a header and at least one row")
    try:
        return ParticleSet._adopt(values)
    except ConfigError as exc:
        raise ConfigError(f"particle CSV {path}: {exc}") from exc


# Rows whose lines are formatted and written at a time.
LINE_BATCH = 4096


def write_lines(columns, outputs) -> None:
    """Text files of one line per row of ``columns``, equal-length arrays or
    sequences: the ``%s`` text of each cell (a float's shortest round-trip
    text, as ``repr`` gives it), comma-separated. ``outputs`` holds
    (path, header, tail) per file; a ``tail`` column, unless None, adds a
    cell to that file's lines. Rows are formatted LINE_BATCH at a time, once
    for all files."""
    def cells(column, part):
        return column[part].tolist() if isinstance(column, np.ndarray) else column[part]

    form = ",".join(["%s"] * len(columns))
    with contextlib.ExitStack() as stack:
        files = [(stack.enter_context(_create(path)), tail) for path, _, tail in outputs]
        for (fh, _), (_, header, _) in zip(files, outputs):
            fh.write(f"{header}\n".encode())
        for start in range(0, len(columns[0]), LINE_BATCH):
            part = slice(start, start + LINE_BATCH)
            lines = [form % row for row in zip(*[cells(column, part) for column in columns])]
            for fh, tail in files:
                text = "\n".join([*lines, ""]) if tail is None else "".join(
                    [f"{line},{each}\n" for line, each in zip(lines, cells(tail, part))])
                fh.write(text.encode())


def emit_plot_data(particles: ParticleSet, kind: str, path, zeroed: int = 0) -> None:
    """Write one prior figure's underlying data as a columnar text file.

    - ``prior-histogram-data``: dimension-0 value of every particle with a
      0/1 flag marking membership in the forced-zero slice, the first
      ``zeroed`` particles (default none).
    - ``dims-1-3-surface-data`` (D >= 4): coordinates 1..3 of every
      particle, verbatim.
    """
    kinds = ("dims-1-3-surface-data", "prior-histogram-data")
    _require(kind in kinds, f"unknown plot kind {kind!r}; expected one of {list(kinds)}")
    _require(isinstance(particles, ParticleSet), f"plot kind {kind!r} needs a ParticleSet")
    if kind == "prior-histogram-data":
        flags = [int(i < zeroed) for i in range(particles.n)]
        write_lines([particles.values[:, 0], flags], [(path, "x0,in_slice", None)])
    else:
        _require(particles.dim >= 4,
                 f"plot kind {kind!r} needs particles with at least 4 dims, got {particles.dim}")
        write_csv(path, ["x1", "x2", "x3"], particles.values[:, 1:4])
