"""Run-artifact persistence: JSON reports, CSV dumps, and plot-data files.

Figures are emitted as plain columnar data (CSV with a header, ``.dat``
extension) rather than rendered images; any external plotting tool can
consume them. Every file ends with a newline, and floats are written at
full round-trip precision. Each writer opens its path in place and makes
no directory; the CLI writes a run's files into a staging directory and
moves them into its output directory once the run succeeds.
"""

import contextlib
import json
import os
import warnings
from datetime import datetime, timezone
from typing import Optional, Sequence

import numpy as np

from .core import ConfigError, ENGINE_VERSION, ParticleSet, _require


def write_json(payload: dict, path) -> None:
    """Write a JSON document with sorted keys and a trailing newline; a
    payload that cannot be encoded raises before the file is opened."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "wb") as fh:
        fh.write(f"{text}\n".encode())


def write_report(payload: dict, path) -> None:
    """Write a command's report.json: ``payload`` stamped with the engine
    version and the UTC time of writing."""
    write_json({**payload, "engine_version": ENGINE_VERSION,
                "timestamp": datetime.now(timezone.utc).isoformat()}, path)


# Cells per chunk of a matrix's rows: the sink judges, formats and writes a
# matrix one chunk at a time, so a streamed matrix takes one chunk of memory.
CHUNK_CELLS = 65536


def _format_rows(rows: np.ndarray) -> bytes:
    """The one matrix formatter: a float64 matrix as CSV lines, each float's
    text that of its repr.

    orjson's compiled shortest round-trip writer prints every row. It prints
    a float as repr does wherever repr prints no exponent: 0, and any
    magnitude in [1e-4, 1e16). A row with any other cell (1e-05 and 1e+16
    in repr, 0.00001 and 1e16 in orjson) is joined from repr instead.

    A row whose bits equal the previous row's (a rejected Metropolis
    proposal repeats the chain's state) reuses that row's text. Bits, not
    values: a -0.0 row after a 0.0 row is printed as its own.
    """
    try:  # at the first matrix formatted
        import orjson
    except ImportError as exc:
        raise ImportError(f"CSV output needs orjson, which cannot be imported: {exc}") from exc
    bits = rows.view(np.int64)
    new = np.ones(rows.shape[0], dtype=bool)
    np.any(bits[1:] != bits[:-1], axis=1, out=new[1:])
    distinct = np.ascontiguousarray(rows[new])  # orjson refuses a strided array
    magnitude = np.abs(distinct)
    plain = ((magnitude < 1e16) & ((magnitude >= 1e-4) | (magnitude == 0))).all(axis=1)
    # "[[a,b],[c,d]]": one line per row between the brackets
    lines = orjson.dumps(distinct, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
    for row in np.flatnonzero(~plain).tolist():
        lines[row] = ",".join(map(repr, distinct[row].tolist())).encode("ascii")
    if len(lines) < rows.shape[0]:  # each row takes the text of its run's first row
        lines = list(map(lines.__getitem__, (np.cumsum(new) - 1).tolist()))
    lines.append(b"")
    return b"\n".join(lines)


class CsvSink:
    """A float64 matrix written to a CSV file as its rows are pushed, front to back.

    ``write(rows)`` copies the caller's next rows into a buffer of one chunk,
    CHUNK_CELLS cells, that the sink owns. Each chunk, as it fills, is
    passed to ``judge``, if given, then formatted and written in this
    process, and the last, partial chunk when the block ends cleanly. The
    rows ``judge`` gets are a view of that reused buffer, valid only during
    the call. Use it as a context manager: entering it opens the file in
    place and writes the header, and leaving it closes the file.
    """

    def __init__(self, path, header: Sequence[str], judge=None):
        self._path = path
        self._header = header
        self._judge = judge
        self._chunk = None  # the chunk buffer, made at the first write
        self._filled = 0    # its leading rows not yet written

    def write(self, rows: np.ndarray) -> None:
        """Append ``rows``, a float64 matrix, to the file: judge, format and
        write every chunk they fill."""
        _require(rows.dtype == np.float64,
                 f"CSV matrix must hold float64 values, got {rows.dtype}")
        if self._chunk is None:
            cols = rows.shape[1]
            self._chunk = np.empty((max(1, CHUNK_CELLS // max(1, cols)), cols))
        while len(rows):
            part = rows[:len(self._chunk) - self._filled]
            self._chunk[self._filled:self._filled + len(part)] = part
            self._filled, rows = self._filled + len(part), rows[len(part):]
            if self._filled == len(self._chunk):
                self._flush()

    def _flush(self) -> None:
        rows = self._chunk[:self._filled]
        if self._judge is not None:
            self._judge(rows)
        self._fh.write(_format_rows(rows))
        self._filled = 0

    def __enter__(self) -> "CsvSink":
        self._fh = open(self._path, "wb")
        self._fh.write((",".join(self._header) + "\n").encode("utf-8"))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        with self._fh:
            if exc_type is None and self._filled:
                self._flush()


def write_csv(path, header: Sequence[str], rows: np.ndarray) -> None:
    """Plain comma-separated writer of a 2-D float64 array, floats at full
    round-trip precision, through a CsvSink, which formats it one chunk of
    rows at a time (never the whole matrix at once, which would multiply
    peak memory)."""
    with CsvSink(path, header) as sink:
        sink.write(rows)


def write_particles_csv(particles: ParticleSet, path) -> None:
    """One particle per row, columns x0..x{D-1}."""
    header = [f"x{i}" for i in range(particles.dim)]
    write_csv(path, header, particles.values)


def read_particles_csv(path) -> ParticleSet:
    """Load a particle CSV: one header line, then one particle per row,
    blank lines skipped, parsed in process without loading scipy.
    Ragged rows, non-numeric or non-finite cells and a file without rows
    raise ConfigError naming the file.
    """
    try:
        with warnings.catch_warnings():  # a file without rows is reported below
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None,
                                encoding="utf-8")
    except ValueError as exc:
        raise ConfigError(f"particle CSV {path} is malformed: {exc}") from exc
    _require(values.shape[0] >= 1, f"particle CSV {path} needs a header and at least one row")
    try:
        return ParticleSet._adopt(values)
    except ConfigError as exc:
        raise ConfigError(f"particle CSV {path}: {exc}") from exc


# A particle CSV of at least this many bytes is read through the parsed-matrix
# cache; a smaller one parses in about 20 ms or less.
CACHE_MIN_BYTES = 1 << 20
# Bytes the cache's entries may take together; a larger matrix is never stored.
CACHE_MAX_BYTES = 1 << 30
# An entry that could not be used, or stored, is skipped for any of these.
_CACHE_ERRORS = (OSError, ValueError, EOFError, MemoryError)
# Bytes the cache key takes from a particle CSV at a time.
_READ_BLOCK = 1 << 20


def _file_key(path) -> str:
    """The cache key of ``path``'s bytes: SHA-256 over a tag naming the
    engine and numpy versions, then the file, streamed in _READ_BLOCK pieces."""
    import hashlib

    digest = hashlib.sha256(f"abc-fuzz {ENGINE_VERSION} numpy {np.__version__}\n".encode())
    block = bytearray(_READ_BLOCK)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(block):
            digest.update(memoryview(block)[:size])
    return digest.hexdigest()


def _load_entry(entry) -> Optional[ParticleSet]:
    """The particles cached as ``entry``, or None where there is no usable
    entry. One that cannot be loaded as a 2-D float64 matrix that
    ``ParticleSet._adopt`` accepts is deleted; a used one is touched, so
    eviction takes the least recently used."""
    try:
        with open(entry, "rb") as fh:
            matrix = np.load(fh, allow_pickle=False)
        if (isinstance(matrix, np.ndarray) and matrix.dtype == np.float64
                and matrix.ndim == 2 and matrix.flags.c_contiguous):
            particles = ParticleSet._adopt(matrix)
            with contextlib.suppress(OSError):
                os.utime(entry)
            return particles
    except FileNotFoundError:
        return None
    except _CACHE_ERRORS:  # a ConfigError from _adopt too
        pass
    with contextlib.suppress(OSError):
        os.unlink(entry)
    return None


def _store_entry(entry, matrix: np.ndarray) -> None:
    """Save ``matrix`` as ``entry``, a .npy file: written under a unique
    temporary name in its directory, synced and renamed into place, so a
    reader never sees part of one. The temporary file is deleted on any
    error or interrupt. Then the least recently used entries are evicted."""
    if matrix.nbytes > CACHE_MAX_BYTES:
        return
    temp = f"{entry}.{os.urandom(8).hex()}.tmp"
    try:
        with open(temp, "xb") as fh:
            np.save(fh, matrix, allow_pickle=False)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, entry)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise
    _evict(os.path.dirname(entry), keep=entry)


def _evict(directory, keep) -> None:
    """Delete the oldest .npy entries of ``directory`` by mtime, until they
    total at most CACHE_MAX_BYTES; ``keep``, the entry just stored, goes
    last, so it goes only where it alone is over."""
    entries = []
    with os.scandir(directory) as found:
        for each in found:
            if each.name.endswith(".npy"):
                with contextlib.suppress(OSError):
                    info = each.stat(follow_symlinks=False)
                    entries.append((each.path == keep, info.st_mtime_ns, info.st_size, each.path))
    total = sum(size for _, _, size, _ in entries)
    for _, _, size, path in sorted(entries):
        if total <= CACHE_MAX_BYTES:
            return
        with contextlib.suppress(OSError):
            os.unlink(path)
        total -= size


def _read_cached(path, directory, read) -> ParticleSet:
    """``read(path)``, the particles of a particle CSV, through the
    parsed-matrix cache in ``directory``.

    An entry is the parsed float64 matrix saved as ``<key>.npy``, the key
    being ``_file_key`` of the file. A hit loads it and never calls
    ``read``. A miss calls ``read``, then hashes the file again and stores
    the matrix only where both keys agree, so a file rewritten while it
    was read is never stored. An error on the directory or an entry is
    silent: it makes a miss, or a store skipped. Errors reading the file
    itself are raised by ``read``, as without a cache.
    """
    try:
        key = _file_key(path)
    except OSError:
        return read(path)  # which reports why the file cannot be read
    entry = os.path.join(directory, f"{key}.npy")
    particles = _load_entry(entry)
    if particles is not None:
        return particles
    particles = read(path)
    with contextlib.suppress(*_CACHE_ERRORS):
        if _file_key(path) == key:
            _store_entry(entry, particles.values)
    return particles


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
        files = [(stack.enter_context(open(path, "wb")), tail) for path, _, tail in outputs]
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
