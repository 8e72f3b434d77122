"""The parsed-matrix cache behind ``run --prior``: a hit loads the matrix a
miss stored, and any cache fault is a silent miss with the same bytes out."""

import os
import re
import signal

import numpy as np
import pytest

from abcfuzz import PriorConfig, generate_prior, read_particles_csv, write_particles_csv
from abcfuzz import cli, report
from abcfuzz.cli import main
from support import assert_read_only

_TIMESTAMP_LINE = re.compile(rb'^  "timestamp": "[^"]*",?\n', re.MULTILINE)
_RUN = ["run", "mcmc", "--steps", "20", "--burn-in", "5"]


def _prior(path, seed=3, rows=800):
    """A particle CSV of ``rows`` x 100 dims: 800 rows take about 1.5 MB."""
    write_particles_csv(generate_prior(PriorConfig(n_particles=rows, n_dims=100, seed=seed)),
                        path)
    return path


@pytest.fixture
def prior(tmp_path):
    path = _prior(tmp_path / "prior.csv")
    assert os.path.getsize(path) >= report.CACHE_MIN_BYTES
    return path


@pytest.fixture
def cache():
    """The test's cache directory, which the first large --prior read makes."""
    return os.path.join(os.environ["XDG_CACHE_HOME"], "abc-fuzz")


def _entries(directory, suffix=".npy"):
    if not os.path.isdir(directory):
        return []
    return sorted(name for name in os.listdir(directory) if name.endswith(suffix))


@pytest.fixture
def parses(monkeypatch):
    """The paths cli.read_particles_csv, the --prior parser, was called with."""
    calls, read = [], cli.read_particles_csv

    def counted(path):
        calls.append(path)
        return read(path)

    monkeypatch.setattr(cli, "read_particles_csv", counted)
    return calls


def _run(prior, out, *extra):
    """Exit code and artifacts (name -> bytes, report.json without its
    timestamp) of a run on ``prior``."""
    code = main([*_RUN, "--prior", str(prior), *extra, "--out", str(out)])
    if not out.exists():
        return code, {}
    return code, {path.name: _TIMESTAMP_LINE.sub(b"", path.read_bytes())
                  for path in sorted(out.iterdir())}


class TestHit:
    def test_miss_then_hit_give_the_same_bytes(self, tmp_path, prior, cache, parses, capfd):
        first = _run(prior, tmp_path / "miss")
        assert len(parses) == 1 and len(_entries(cache)) == 1
        second = _run(prior, tmp_path / "hit")
        assert len(parses) == 1, "a hit called the parser"
        assert first == second and first[0] == 0
        assert set(first[1]) >= {"posterior.csv", "diagnostics.csv", "report.json"}
        assert capfd.readouterr().err == ""

    def test_hit_loads_the_parsed_matrix_bitwise(self, prior, cache):
        parsed = read_particles_csv(prior)
        os.makedirs(cache)
        stored = report._read_cached(prior, cache, read_particles_csv)
        [entry] = _entries(cache)

        def unexpected(path):
            raise AssertionError("a hit called the parser")

        loaded = report._read_cached(prior, cache, unexpected)
        for each in (stored, loaded):
            assert each.values.dtype == np.float64
            assert each.values.tobytes() == parsed.values.tobytes()
            assert_read_only(each)
        assert entry == f"{report._file_key(prior)}.npy"

    def test_hit_marks_its_entry_recently_used(self, prior, cache, tmp_path):
        _run(prior, tmp_path / "miss")
        entry = os.path.join(cache, _entries(cache)[0])
        os.utime(entry, (1, 1))
        _run(prior, tmp_path / "hit")
        assert os.stat(entry).st_mtime > 1


class TestMiss:
    def test_changed_bytes_with_the_old_mtime_are_a_miss(self, tmp_path, prior, cache, parses):
        _run(prior, tmp_path / "first")
        info = os.stat(prior)
        text = prior.read_bytes()
        changed = text.replace(b"1", b"2", 1)
        assert changed != text and len(changed) == len(text)
        prior.write_bytes(changed)
        os.utime(prior, ns=(info.st_atime_ns, info.st_mtime_ns))  # as cp -p would
        code, artifacts = _run(prior, tmp_path / "second")
        assert code == 0 and len(parses) == 2
        assert len(_entries(cache)) == 2
        fresh = tmp_path / "fresh.csv"
        fresh.write_bytes(changed)
        assert _run(fresh, tmp_path / "third")[1]["posterior.csv"] == artifacts["posterior.csv"]

    def test_small_file_is_never_stored(self, tmp_path, cache, parses):
        small = _prior(tmp_path / "small.csv", rows=10)
        assert os.path.getsize(small) < report.CACHE_MIN_BYTES
        for out in ("first", "second"):
            assert _run(small, tmp_path / out)[0] == 0
        assert len(parses) == 2
        assert not os.path.exists(cache)

    @pytest.mark.parametrize("row", [b"0.5,1.5\n", b"nan," * 99 + b"nan\n"],
                             ids=["ragged", "nan"])
    def test_malformed_prior_exits_2_and_stores_nothing(self, tmp_path, prior, cache, capfd,
                                                        row):
        with open(prior, "ab") as fh:
            fh.write(row)
        for out in ("first", "second"):
            assert _run(prior, tmp_path / out) == (2, {})
            err = capfd.readouterr().err
            assert err.startswith(f"abc-fuzz: error: particle CSV {prior}")
            assert len(err.splitlines()) == 1
        assert _entries(cache) == [] and _entries(cache, ".tmp") == []

    def test_file_rewritten_while_read_is_not_stored(self, tmp_path, prior, cache,
                                                     monkeypatch):
        read = cli.read_particles_csv

        def rewritten(path):
            particles = read(path)
            _prior(prior, seed=4)
            return particles

        monkeypatch.setattr(cli, "read_particles_csv", rewritten)
        assert _run(prior, tmp_path / "run")[0] == 0
        assert _entries(cache) == [] and _entries(cache, ".tmp") == []


class TestFaults:
    @pytest.mark.parametrize("fault", ["truncated", "garbage", "empty", "nan", "float32",
                                       "one-dim", "fortran"])
    def test_bad_entry_is_reparsed_and_replaced(self, tmp_path, prior, cache, parses, capfd,
                                                fault):
        reference = _run(prior, tmp_path / "miss")
        entry = os.path.join(cache, _entries(cache)[0])
        good = np.load(entry)
        if fault == "truncated":
            with open(entry, "r+b") as fh:
                fh.truncate(os.path.getsize(entry) // 2)
        elif fault in ("garbage", "empty"):
            with open(entry, "wb") as fh:
                fh.write(b"not a matrix\n" if fault == "garbage" else b"")
        else:
            bad = {"nan": np.where(good == good[0, 0], np.nan, good),
                   "float32": good.astype(np.float32),
                   "one-dim": good.ravel(),
                   "fortran": np.asfortranarray(good)}[fault]
            np.save(entry, bad)
        assert _run(prior, tmp_path / "replaced") == reference
        assert len(parses) == 2
        assert np.load(entry).tobytes() == good.tobytes()
        assert capfd.readouterr().err == ""
        assert _run(prior, tmp_path / "hit") == reference
        assert len(parses) == 2

    def test_bad_entry_is_deleted_where_no_new_one_is_stored(self, tmp_path, prior, cache,
                                                               monkeypatch):
        def failing(fd):
            raise OSError("no space left on device")

        reference = _run(prior, tmp_path / "miss")
        entry = os.path.join(cache, _entries(cache)[0])
        with open(entry, "wb") as fh:
            fh.write(b"not a matrix\n")
        monkeypatch.setattr(os, "fsync", failing)
        assert _run(prior, tmp_path / "unstored") == reference
        assert os.listdir(cache) == []

    def test_cache_home_that_is_a_file_changes_nothing(self, tmp_path, prior, monkeypatch,
                                                       capfd):
        reference = _run(prior, tmp_path / "cached")
        capfd.readouterr()
        blocked = tmp_path / "not-a-directory"
        blocked.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
        assert _run(prior, tmp_path / "uncached") == reference
        assert capfd.readouterr().err == ""
        assert blocked.read_text() == ""

    def test_relative_cache_home_falls_back_to_home(self, tmp_path, prior, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.chdir(tmp_path)
        assert _run(prior, tmp_path / "run")[0] == 0
        assert len(_entries(tmp_path / "home" / ".cache" / "abc-fuzz")) == 1
        assert not (tmp_path / "relative").exists()
        assert os.stat(tmp_path / "home" / ".cache" / "abc-fuzz").st_mode & 0o777 == 0o700

    @pytest.mark.parametrize("signum, code", [
        (signal.SIGINT, 130), (signal.SIGTERM, 143), (signal.SIGHUP, 129),
    ], ids=["sigint", "sigterm", "sighup"])
    def test_stop_signal_during_a_store_leaves_no_temp_entry(self, tmp_path, prior, cache,
                                                              monkeypatch, capfd, signum, code):
        def signalled(fd):
            assert len(_entries(cache, ".tmp")) == 1
            signal.raise_signal(signum)

        monkeypatch.setattr(os, "fsync", signalled)
        out = tmp_path / "run"
        assert main([*_RUN, "--prior", str(prior), "--out", str(out)]) == code
        assert capfd.readouterr().err.startswith("abc-fuzz: ")
        assert os.listdir(cache) == []
        assert not out.exists()


class TestEviction:
    def test_least_recently_used_entries_go_first(self, tmp_path, cache, monkeypatch):
        os.makedirs(cache)
        paths = [_prior(tmp_path / f"prior-{seed}.csv", seed=seed) for seed in range(3)]
        size = 800 * 100 * 8 + 128
        monkeypatch.setattr(report, "CACHE_MAX_BYTES", 2 * size + size // 2)
        keys = [f"{report._file_key(path)}.npy" for path in paths]
        for path in paths[:2]:
            report._read_cached(path, cache, read_particles_csv)
        for key, age in zip(keys, (200, 100)):
            os.utime(os.path.join(cache, key), (1e9 - age, 1e9 - age))
        report._read_cached(paths[0], cache, read_particles_csv)  # a hit: now the newest
        report._read_cached(paths[2], cache, read_particles_csv)
        assert _entries(cache) == sorted([keys[0], keys[2]])
        assert sum(os.path.getsize(os.path.join(cache, key)) for key in _entries(cache)) \
            <= report.CACHE_MAX_BYTES

    def test_matrix_over_the_cap_is_never_stored(self, prior, cache, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("a matrix over the cap was written")

        os.makedirs(cache)
        monkeypatch.setattr(report, "CACHE_MAX_BYTES", 800 * 100 * 8 - 1)
        monkeypatch.setattr(np, "save", unexpected)
        particles = report._read_cached(prior, cache, read_particles_csv)
        assert particles.values.shape == (800, 100)
        assert os.listdir(cache) == []
