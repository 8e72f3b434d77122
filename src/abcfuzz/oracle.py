"""Fuzz-test oracles: pass/fail verdicts over particles and population pass rates.

Two oracle families: an in-process range check on one coordinate (the
white-box target), and an external command run once per particle (a
black-box hook; its protocol is this engine's own extension).
"""

import contextlib
import os
import shlex
import signal
import subprocess
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ConfigError,
    ParticleSet,
    _Record,
    _check_int,
    _check_real,
    _require,
)


class OracleSpawnError(RuntimeError):
    """The external oracle command could not be started."""


class OracleTimeoutError(RuntimeError):
    """The external oracle ran past its timeout and was killed."""


@dataclass(frozen=True)
class OracleVerdict:
    passed: bool


Oracle = Callable[[np.ndarray], OracleVerdict]

# Environment variables this process set for itself alone (the CLI's
# one-BLAS-thread default); every exec-oracle child gets the environment
# without them, as the caller gave it.
PROCESS_ONLY_ENV = set()


@dataclass(frozen=True)
class RangeOracle(_Record):
    """White-box check: pass iff one coordinate lies inside [low, high], inclusive."""

    SECTION = "oracle"

    low: float = -0.5
    high: float = 0.5
    dimension: int = 0

    def __post_init__(self):
        _check_real("low", self.low)
        _check_real("high", self.high)
        _require(self.low <= self.high,
                 f"low ({self.low!r}) must not exceed high ({self.high!r})")
        _check_int("dimension", self.dimension)

    def __call__(self, values: np.ndarray) -> OracleVerdict:
        if self.dimension >= values.size:
            raise ConfigError(
                f"oracle dimension {self.dimension} out of range for {values.size}-dim particle")
        return OracleVerdict(self.low <= float(values[self.dimension]) <= self.high)


@dataclass(frozen=True)
class ExternalOracle(_Record):
    """Judges particles by spawning one child process per evaluation.

    ``command`` is one shell-style command line, split into its words once,
    here, and run without a shell. Protocol: every coordinate is written to
    the child's stdin as one ASCII float per line (full round-trip
    precision), newline-terminated, then stdin is closed. Exit status 0 is
    a pass, any nonzero status a fail. Each child leads a session of its
    own. A child running past ``timeout`` seconds is killed with its whole
    process group and reported as a timeout error, distinct from a fail.
    """

    SECTION = "oracle"

    command: str
    timeout: float = 5.0

    def __post_init__(self):
        command = self.command
        _require(isinstance(command, str),
                 f"exec oracle command must be a nonempty string, got {command!r}")
        _require("\0" not in command, f"exec oracle command must not hold a NUL, got {command!r}")
        try:
            argv = shlex.split(command)
        except ValueError as exc:
            raise ConfigError(f"exec oracle command {command!r} does not parse: {exc}") from exc
        _require(argv and argv[0], f"exec oracle command must name a program, got {command!r}")
        # the watchdog's wait cannot take a longer timeout
        _check_real("timeout", self.timeout, 0, threading.TIMEOUT_MAX)
        _require(self.timeout > 0, f"timeout must be positive, got {self.timeout!r}")
        object.__setattr__(self, "_argv", argv)  # not a field: never echoed or compared

    def __call__(self, values: np.ndarray) -> OracleVerdict:
        payload = "".join(f"{v!r}\n" for v in values.tolist()).encode("ascii")
        # The wait blocks in the kernel until the child exits; a watchdog
        # thread kills a child that outlives the timeout, which also
        # unblocks a payload write the child never reads.
        killed = threading.Event()

        def kill():
            killed.set()
            _kill_group(proc)

        watchdog = threading.Timer(self.timeout, kill)
        env = {key: value for key, value in os.environ.items() if key not in PROCESS_ONLY_ENV}
        try:
            proc = subprocess.Popen(self._argv, stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL, start_new_session=True, env=env)
        except OSError as exc:
            raise OracleSpawnError(
                f"could not run oracle command {self._argv[0]!r}: {exc}") from exc
        with proc:
            # an interrupt from here on, even one that cuts the watchdog's
            # start short, kills the child and its own children
            try:
                watchdog.start()
                proc.communicate(payload)
            except BaseException:
                _kill_group(proc)
                raise
            finally:
                # Joined, not just cancelled, so no thread outlives the
                # verdict: core._load_ndtri, at the draw after the prior is
                # judged, takes its lighter scipy load only in a
                # single-threaded process.
                watchdog.cancel()
                if watchdog.is_alive():  # not when an interrupt cut its start short
                    watchdog.join()
        if killed.is_set():
            raise OracleTimeoutError(
                f"oracle command {self._argv[0]!r} exceeded {self.timeout} s")
        return OracleVerdict(proc.returncode == 0)


def _kill_group(proc) -> None:
    """SIGKILL the process group that ``proc`` leads, its own children with it."""
    with contextlib.suppress(ProcessLookupError):  # the whole group has exited
        os.killpg(proc.pid, signal.SIGKILL)


def count_passing(particles: ParticleSet, oracle: Oracle) -> int:
    """Number of particles the oracle passes: one verdict per particle."""
    return sum(1 for p in particles if oracle(p).passed)


def pass_rate(particles: ParticleSet, oracle: Oracle) -> float:
    """Fraction of the population the oracle passes: exact N_pass / N.

    ParticleSet construction already guarantees a nonempty population.
    """
    return count_passing(particles, oracle) / particles.n
