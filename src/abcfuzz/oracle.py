"""Fuzz-test oracles: pass/fail verdicts over particles and population pass rates.

Two oracle families: an in-process range check on one coordinate (the
white-box target), and an external command run once per particle (a
black-box hook; its protocol is this engine's own extension).
"""

import subprocess
import threading
from dataclasses import dataclass
from typing import Callable, Tuple

from .core import (
    AbcFuzzError,
    ConfigError,
    Particle,
    ParticleSet,
    _Record,
    _check_int,
    _check_real,
    _require,
)


class OracleSpawnError(AbcFuzzError, RuntimeError):
    """The external oracle command could not be started."""


class OracleTimeoutError(AbcFuzzError, RuntimeError):
    """The external oracle ran past its timeout and was killed."""


@dataclass(frozen=True)
class OracleVerdict:
    passed: bool


Oracle = Callable[[Particle], OracleVerdict]


@dataclass(frozen=True)
class RangeOracleConfig(_Record):
    """Pass iff one coordinate lies inside [low, high], boundaries inclusive."""

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


@dataclass(frozen=True)
class RangeOracle:
    """White-box check: does the configured coordinate fall in the band?"""

    config: RangeOracleConfig = RangeOracleConfig()

    def __call__(self, particle: Particle) -> OracleVerdict:
        config = self.config
        if config.dimension >= particle.dim:
            raise ConfigError(
                f"oracle dimension {config.dimension} out of range for {particle.dim}-dim particle")
        return OracleVerdict(config.low <= particle[config.dimension] <= config.high)


@dataclass(frozen=True)
class ExternalOracle:
    """Judges particles by spawning one child process per evaluation.

    Protocol: every coordinate is written to the child's stdin as one ASCII
    float per line (full round-trip precision), newline-terminated, then
    stdin is closed. Exit status 0 is a pass, any nonzero status a fail.
    A child running past ``timeout`` seconds is killed and reported as a
    timeout error, distinct from a fail.
    """

    argv: Tuple[str, ...]
    timeout: float = 5.0

    def __post_init__(self):
        _require(isinstance(self.argv, (tuple, list)) and len(self.argv) >= 1,
                 f"external oracle needs a nonempty argv, got {self.argv!r}")
        _require(all(isinstance(arg, str) for arg in self.argv),
                 f"argv items must be strings, got {self.argv!r}")
        _check_real("timeout", self.timeout)
        _require(self.timeout > 0, f"timeout must be positive, got {self.timeout!r}")

    def __call__(self, particle: Particle) -> OracleVerdict:
        payload = "".join(f"{float(v)!r}\n" for v in particle.values).encode("ascii")
        try:
            proc = subprocess.Popen(list(self.argv), stdin=subprocess.PIPE,
                                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        except OSError as exc:
            raise OracleSpawnError(
                f"could not run oracle command {self.argv[0]!r}: {exc}") from exc
        # The wait blocks in the kernel until the child exits; a watchdog
        # thread kills a child that outlives the timeout, which also
        # unblocks a payload write the child never reads.
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        watchdog = threading.Timer(self.timeout, kill)
        with proc:
            watchdog.start()
            try:
                proc.communicate(payload)
            except BaseException:
                proc.kill()
                raise
            finally:
                # Joined, not just cancelled, so no thread outlives the call:
                # the CSV writer forks its pool only from a single-threaded
                # process.
                watchdog.cancel()
                watchdog.join()
        if killed.is_set():
            raise OracleTimeoutError(
                f"oracle command {self.argv[0]!r} exceeded {self.timeout} s")
        return OracleVerdict(proc.returncode == 0)


def count_passing(particles: ParticleSet, oracle: Oracle) -> int:
    """Number of particles the oracle passes: one verdict per particle."""
    return sum(1 for p in particles if oracle(p).passed)


def pass_rate(particles: ParticleSet, oracle: Oracle) -> float:
    """Fraction of the population the oracle passes: exact N_pass / N.

    ParticleSet construction already guarantees a nonempty population.
    """
    return count_passing(particles, oracle) / particles.n
