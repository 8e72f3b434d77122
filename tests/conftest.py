"""Every test runs with its own parsed-matrix cache directory.

``run --prior`` caches the matrix of a large prior file under
$XDG_CACHE_HOME/abc-fuzz. Each session, module and test gets a fresh
XDG_CACHE_HOME, set before any fixture of its scope runs, so a
module-scoped run (the golden digests) never writes the user's cache, and
no test finds an entry another one stored.
"""

import signal

import pytest


def _cache_home(factory, name):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(factory.mktemp(name)))
        yield


@pytest.fixture(scope="session", autouse=True)
def _session_cache_home(tmp_path_factory):
    yield from _cache_home(tmp_path_factory, "cache-session")


@pytest.fixture(scope="module", autouse=True)
def _module_cache_home(tmp_path_factory):
    yield from _cache_home(tmp_path_factory, "cache-module")


@pytest.fixture(autouse=True)
def _test_cache_home(tmp_path_factory):
    yield from _cache_home(tmp_path_factory, "cache-test")


@pytest.fixture
def default_sighup():
    """SIGHUP at its default disposition for one test, so that the CLI, in
    process or in a child (which inherits it), takes the signal over even
    where the suite runs under nohup, which ignores it. The caller's
    disposition is given back afterwards."""
    caller = signal.signal(signal.SIGHUP, signal.SIG_DFL)
    try:
        yield
    finally:
        signal.signal(signal.SIGHUP, caller)
