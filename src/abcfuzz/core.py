"""Domain types, configuration records, and the seedable random source.

Everything here is immutable after construction and safe to share across
threads. Random sources are the one stateful object; each sampler run owns
exactly one and never shares it.
"""

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Iterable, Optional, Sequence, Union

import numpy as np
from scipy.special import ndtri

ENGINE_VERSION = "0.1.0"

MAX_SEED = 2**64 - 1


class AbcFuzzError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigError(AbcFuzzError, ValueError):
    """Invalid configuration value or misuse of an operation."""


class DegeneracyError(AbcFuzzError, ArithmeticError):
    """Numerical degeneracy that prevents a sampler from continuing.

    ``step`` carries the failing sampler step when known.
    """

    def __init__(self, message: str, step: Optional[int] = None):
        super().__init__(message)
        self.step = step


class DegenerateWeightsError(DegeneracyError):
    """Every particle weight collapsed (all log-weights are -inf)."""


class DegenerateStateError(DegeneracyError):
    """Chain state and proposal both have -inf log-likelihood."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _check_int(name: str, value, low: int = 0, high: float = math.inf) -> None:
    """Config guard: ``value`` must be an int (numpy ints too, never a bool) in [low, high]."""
    _require(isinstance(value, (int, np.integer)) and not isinstance(value, bool),
             f"{name} must be an integer, got {value!r}")
    _require(low <= value <= high, f"{name} must lie in [{low}, {high}], got {value!r}")


def _check_real(name: str, value, low: float = -math.inf, high: float = math.inf) -> None:
    """Config guard: ``value`` must be a finite int or float (never a bool) in [low, high].

    An int is accepted as it is, not converted, so a config echo repeats
    the number exactly as the user gave it.
    """
    _require(isinstance(value, (int, float, np.integer, np.floating))
             and not isinstance(value, bool) and abs(value) <= sys.float_info.max,
             f"{name} must be a finite number, got {value!r}")
    _require(low <= value <= high, f"{name} must lie in [{low}, {high}], got {value!r}")


# Most float64 values one numpy array can hold: its byte size must fit an intp.
MAX_ARRAY_DOUBLES = np.iinfo(np.intp).max // 8


def _check_rows(name: str, rows: int, width: int) -> None:
    """Size guard: a (rows, width) float64 matrix must be one numpy can address.

    A size that passes can still be too large to allocate; that fails as a
    MemoryError, an environment fault.
    """
    _require(int(rows) * int(width) <= MAX_ARRAY_DOUBLES,
             f"{name} ({rows}) times {width} dims exceeds the "
             f"{MAX_ARRAY_DOUBLES} values one array can hold")


def _validate_seed(seed: int) -> int:
    _check_int("seed", seed, 0, MAX_SEED)
    return int(seed)


# Doubles in one sampler draw block: 256 KiB keeps peak memory flat at any
# run length; a step wider than that gets a block of its own.
BLOCK_DOUBLES = 32768


def _block_rows(width: int, steps: int) -> int:
    """Steps per draw block when each step consumes ``width`` uniforms."""
    return max(1, min(steps, BLOCK_DOUBLES // width))


def _uniforms_to_normals(u: np.ndarray) -> np.ndarray:
    """Turn uniforms into standard normals in place: ndtri(max(u, 2**-54)).

    The one definition of the normal-draw contract; returns ``u``.
    """
    np.maximum(u, 2.0**-54, out=u)
    return ndtri(u, out=u)


class RandomSource:
    """Deterministic stream of uniform [0, 1) and standard-normal draws.

    Uniforms come from numpy's PCG64 bit generator, which produces the same
    sequence for the same seed on every platform. Standard normals are
    derived from that same uniform stream by the inverse normal CDF
    (scipy.special.ndtri), consuming exactly one uniform per normal draw.
    A uniform of exactly 0.0 (probability 2**-53 per draw) is nudged to
    2**-54 so the transform stays finite.

    Draws are consumed in stream order whatever their grouping: one
    ``uniform_block(k, w)`` yields the same doubles, row-major, as k * w
    single ``uniform()`` calls.

    The transform is pinned so that seeded runs are auditable and
    reproducible across engine versions that keep this contract.
    """

    def __init__(self, seed: int):
        self.seed = _validate_seed(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, n: Optional[int] = None) -> Union[float, np.ndarray]:
        """Draw one uniform (n=None) or an array of n uniforms in [0, 1)."""
        if n is None:
            return float(self._gen.random())
        _require(n >= 0, f"draw count must be nonnegative, got {n}")
        return self._gen.random(n)

    def uniform_block(self, rows: int, width: int) -> np.ndarray:
        """Draw a writable (rows, width) block of uniforms, filled row by row."""
        _require(rows >= 0 and width >= 0,
                 f"block shape must be nonnegative, got ({rows}, {width})")
        return self._gen.random((rows, width))

    def standard_normal(self, n: int) -> np.ndarray:
        """Draw an array of n standard normals."""
        _require(n >= 0, f"draw count must be nonnegative, got {n}")
        return _uniforms_to_normals(self._gen.random(n))


class Particle:
    """One fuzz input: a fixed-length vector of finite floats.

    The backing array is copied on construction and marked read-only, so a
    particle never changes after it exists. A particle taken from a
    ParticleSet shares the set's read-only row instead of copying it.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Union[Sequence[float], np.ndarray]):
        arr = np.array(values, dtype=np.float64)
        _require(arr.ndim == 1, f"particle must be one-dimensional, got shape {arr.shape}")
        _require(arr.size >= 1, "particle needs at least one dimension")
        _require(bool(np.isfinite(arr).all()), "particle values must be finite (no NaN/inf)")
        arr.setflags(write=False)
        self._values = arr

    @classmethod
    def _of_row(cls, row: np.ndarray) -> "Particle":
        """Wrap a ParticleSet's row view, which the set already keeps finite and read-only."""
        particle = cls.__new__(cls)
        particle._values = row
        return particle

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def dim(self) -> int:
        return self._values.size

    def __len__(self) -> int:
        return self._values.size

    def __getitem__(self, index: int) -> float:
        return float(self._values[index])

    def __iter__(self):
        return iter(self._values.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Particle):
            return NotImplemented
        return np.array_equal(self._values, other._values)

    def __repr__(self) -> str:
        return f"Particle(dim={self.dim})"


class ParticleSet:
    """A population of particles sharing one dimensionality: an (N, D) matrix."""

    __slots__ = ("_values",)

    def __init__(self, values: Union[np.ndarray, Sequence[Sequence[float]]]):
        arr = np.array(values, dtype=np.float64)
        _require(arr.ndim == 2, f"particle set must be a 2-d matrix, got shape {arr.shape}")
        _require(arr.shape[0] >= 1, "particle set needs at least one particle")
        _require(arr.shape[1] >= 1, "particles need at least one dimension")
        _require(bool(np.isfinite(arr).all()), "particle values must be finite (no NaN/inf)")
        arr.setflags(write=False)
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        """Read-only (N, D) view of the population."""
        return self._values

    @property
    def n(self) -> int:
        return self._values.shape[0]

    @property
    def dim(self) -> int:
        return self._values.shape[1]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index: int) -> Particle:
        row = self._values[index]
        _require(row.ndim == 1, f"particle must be one-dimensional, got shape {row.shape}")
        return Particle._of_row(row)

    def __iter__(self):
        for row in self._values:
            yield Particle._of_row(row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParticleSet):
            return NotImplemented
        return np.array_equal(self._values, other._values)

    def __repr__(self) -> str:
        return f"ParticleSet(n={self.n}, dim={self.dim})"

    def to_array(self) -> np.ndarray:
        """Writable copy of the population matrix."""
        return self._values.copy()


WEIGHT_SUM_TOLERANCE = 1e-9


def _reject_unknown_keys(kind: str, data: dict, allowed: Iterable[str]) -> None:
    extra = set(data) - set(allowed)
    if extra:
        raise ConfigError(f"unknown {kind} config keys: {sorted(extra)}")


def _field_names(cls) -> list:
    return [f.name for f in fields(cls)]


class _Record:
    """A frozen dataclass record and its JSON object, mapped field by field.

    ``to_dict`` turns a nested record into its own dict and a Particle into
    its list of values; ``from_dict`` reverses both after rejecting keys
    that name no field and missing keys of fields without a default, naming
    the record's ``SECTION`` in the error.
    """

    def to_dict(self) -> dict:
        return {f.name: _to_json(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict):
        types = {f.name: f.type for f in fields(cls)}
        _reject_unknown_keys(cls.SECTION, data, types)
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
        _require(not missing, f"missing {cls.SECTION} config keys: {missing}")
        return cls(**{key: _from_json(types[key], key, value) for key, value in data.items()})


def _to_json(value):
    if isinstance(value, _Record):
        return value.to_dict()
    if isinstance(value, Particle):
        return value.values.tolist()
    return value


def _from_json(kind, name: str, value):
    """``value`` given for a field of type ``kind``, as that type: a dict
    becomes a nested record and a list of numbers a Particle."""
    if not isinstance(kind, type) or isinstance(value, kind):
        return value
    if issubclass(kind, _Record):
        return kind.from_dict(value)
    if kind is Particle:
        _require(isinstance(value, (list, tuple)),
                 f"{name} must be a list of numbers, got {value!r}")
        for coordinate in value:
            _check_real(f"{name} coordinate", coordinate)
        return Particle(value)
    return value


@dataclass(frozen=True)
class PriorConfig(_Record):
    """Parameters of the Gaussian prior population and its forced-zero slice."""

    SECTION = "prior"

    n_particles: int = 10
    n_dims: int = 100
    mean: float = 0.0
    std_dev: float = 10.0
    zero_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        _check_int("n_particles", self.n_particles, 1)
        _check_int("n_dims", self.n_dims, 1)
        _check_rows("n_particles", self.n_particles, self.n_dims)
        _check_real("mean", self.mean)
        _check_real("std_dev", self.std_dev, 0)
        _check_real("zero_fraction", self.zero_fraction, 0, 1)
        _validate_seed(self.seed)


@dataclass(frozen=True)
class LikelihoodConfig(_Record):
    """Directed scoring: distance to a target point plus a first-dimension penalty.

    ``alpha`` weights the penalty for deviating from zero in dimension 0;
    ``scale`` normalizes the Euclidean distance so raw scores stay in a
    numerically benign range.
    """

    SECTION = "likelihood"

    target: Particle
    alpha: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        _require(isinstance(self.target, Particle), "target must be a Particle")
        _check_real("alpha", self.alpha, 0)
        _check_real("scale", self.scale, 0)
        _require(self.scale > 0, f"scale must be positive, got {self.scale!r}")

    @classmethod
    def for_prior(cls, n_dims: int, prior_std: float, *,
                  alpha: float = 1.0) -> "LikelihoodConfig":
        """Config targeting the origin with the default scale sqrt(D) * prior std.

        That product is the typical prior distance from the origin, so
        default scores land near -1 instead of underflowing. A zero prior
        std falls back to scale 1.
        """
        scale = math.sqrt(n_dims) * prior_std
        return cls(target=Particle(np.zeros(n_dims)), alpha=alpha,
                   scale=scale if scale > 0 else 1.0)


@dataclass(frozen=True)
class SmcConfig(_Record):
    """Sequential Monte Carlo run parameters."""

    SECTION = "smc"

    likelihood: LikelihoodConfig
    n_steps: int = 1000
    step_std: float = 0.5
    seed: int = 0

    def __post_init__(self):
        _require(isinstance(self.likelihood, LikelihoodConfig),
                 "likelihood must be a LikelihoodConfig")
        _check_int("n_steps", self.n_steps, 1)
        _check_real("step_std", self.step_std, 0)
        _validate_seed(self.seed)


@dataclass(frozen=True)
class McmcConfig(_Record):
    """Single-chain Metropolis run parameters.

    ``initial_index`` picks the starting particle out of the prior set; when
    None the chain starts at a uniformly random prior particle drawn from
    the run's random source.
    """

    SECTION = "mcmc"

    likelihood: LikelihoodConfig
    n_steps: int = 1000
    burn_in: int = 100
    step_std: float = 0.5
    initial_index: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        _require(isinstance(self.likelihood, LikelihoodConfig),
                 "likelihood must be a LikelihoodConfig")
        _check_int("n_steps", self.n_steps, 1)
        _check_int("burn_in", self.burn_in)
        _require(self.burn_in < self.n_steps,
                 f"burn_in ({self.burn_in}) must be smaller than n_steps ({self.n_steps})")
        _check_real("step_std", self.step_std, 0)
        if self.initial_index is not None:
            _check_int("initial_index", self.initial_index)
        _validate_seed(self.seed)


CONFIG_FILE_SECTIONS = ("prior", "likelihood", "smc", "mcmc", "oracle")


def load_config_file(path) -> dict:
    """Parse a JSON run-config file into its sections.

    The file must be a JSON object whose top-level keys are a subset of
    ``prior``, ``likelihood``, ``smc``, ``mcmc``, ``oracle``, each holding
    an object. Unknown top-level keys are errors. Section contents are
    validated when they are turned into config records.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    _require(isinstance(data, dict), f"config file {path} must hold a JSON object")
    _reject_unknown_keys("file", data, CONFIG_FILE_SECTIONS)
    for section, content in data.items():
        _require(isinstance(content, dict),
                 f"config section {section!r} must be a JSON object")
    return data
