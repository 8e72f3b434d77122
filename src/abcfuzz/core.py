"""Domain types, configuration records, and the seedable random source.

Everything here is immutable after construction and safe to share across
threads. Random sources are the one stateful object; each sampler run owns
exactly one and never shares it.
"""

import importlib
import importlib.util
import math
import sys
import threading
import types
from dataclasses import MISSING, dataclass, fields
from typing import Iterable, Optional, Sequence, Union

import numpy as np

ENGINE_VERSION = "0.1.0"

MAX_SEED = 2**64 - 1


class ConfigError(ValueError):
    """Invalid configuration value or misuse of an operation."""


class DegeneracyError(ArithmeticError):
    """Numerical degeneracy that prevents a sampler from continuing.

    ``step`` carries the failing sampler step when known.
    """

    def __init__(self, message: str, step: Optional[int] = None):
        super().__init__(message)
        self.step = step


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


# Held around _load_ndtri's check of sys.modules and the load it picks.
_NDTRI_LOCK = threading.Lock()


def _load_ndtri():
    """scipy's ``ndtri`` ufunc, loaded at the first call.

    The one import of scipy: ``_uniforms_to_normals`` calls it at a run's
    first draw. Where the ``scipy.special`` package is not yet imported and
    this is the process's only thread, only its ufunc module is loaded,
    without the package's ``__init__`` (``_ufuncs_alone``); the ufunc is the
    very object ``scipy.special.ndtri`` names once the package is imported.
    Where another thread runs, which could import ``scipy.special`` itself
    while the direct load's placeholder stands in for it, where the package
    is imported already, or blocked with None in ``sys.modules``, or where
    the direct load fails (a SciPy that moved ``ndtri``), the package's own
    import is used. A scipy that cannot be imported raises ImportError
    naming it; a failed import is tried again at the next call.
    """
    with _NDTRI_LOCK:
        if "scipy.special" not in sys.modules and threading.active_count() == 1:
            try:
                return _ufuncs_alone().ndtri
            except (ImportError, AttributeError):
                pass  # the package import below loads it or reports why not
        try:
            from scipy.special import ndtri
        except ImportError as exc:
            raise ImportError(f"normal draws need scipy.special, which cannot be imported: "
                              f"{exc}") from exc
        return ndtri


def _ufuncs_alone():
    """``scipy.special._ufuncs``, loaded without running the ``scipy.special``
    package's ``__init__``, which loads some 280 modules more.

    While the ufunc module loads, a bare placeholder module stands in for
    the package, carrying only its search path; it is removed again, so a
    later ``import scipy.special`` runs the package in full and adopts the
    ufunc module already loaded. Another thread's own ``import scipy.special``
    during this load would find the placeholder and fail, so ``_load_ndtri``
    calls it only while its thread is the process's only one, with
    ``_NDTRI_LOCK`` held.
    """
    ufuncs = sys.modules.get("scipy.special._ufuncs")
    if ufuncs is not None:
        return ufuncs
    spec = importlib.util.find_spec("scipy.special")  # imports the light top-level scipy
    placeholder = types.ModuleType("scipy.special")
    placeholder.__path__ = spec.submodule_search_locations
    sys.modules["scipy.special"] = placeholder
    try:
        return importlib.import_module("scipy.special._ufuncs")
    finally:
        if sys.modules.get("scipy.special") is placeholder:
            del sys.modules["scipy.special"]


def _uniforms_to_normals(u: np.ndarray) -> np.ndarray:
    """Turn uniforms into standard normals in place: ndtri(max(u, 2**-54)).

    The one definition of the normal-draw contract; returns ``u``. scipy is
    loaded at the first call at the latest, so a run that fails before its
    first draw (and ``--version``) never needs it.
    """
    ndtri = _load_ndtri()
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

    def uniform(self) -> float:
        """Draw one uniform in [0, 1)."""
        return float(self._gen.random())

    def uniform_block(self, rows: int, width: int) -> np.ndarray:
        """Draw a writable (rows, width) block of uniforms, filled row by row."""
        _require(rows >= 0 and width >= 0,
                 f"block shape must be nonnegative, got ({rows}, {width})")
        return self._gen.random((rows, width))

    def standard_normal(self, n: int) -> np.ndarray:
        """Draw an array of n standard normals."""
        _require(n >= 0, f"draw count must be nonnegative, got {n}")
        return _uniforms_to_normals(self._gen.random(n))


class ParticleSet:
    """A population of particles sharing one dimensionality: an (N, D) matrix.

    The matrix is read-only. The sets the engine returns hold the matrix
    the sampler or reader built rather than a copy of it.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Union[np.ndarray, Sequence[Sequence[float]]]):
        """Copy ``values`` into the set, so later changes to them do not show."""
        self._values = self._checked(np.array(values, dtype=np.float64))

    @classmethod
    def _adopt(cls, matrix: np.ndarray) -> "ParticleSet":
        """A set that holds the engine-built float64 ``matrix`` itself, not a
        copy, checked like the constructor's and marked read-only."""
        particles = cls.__new__(cls)
        particles._values = cls._checked(matrix)
        return particles

    @staticmethod
    def _checked(arr: np.ndarray) -> np.ndarray:
        _require(arr.ndim == 2, f"particle set must be a 2-d matrix, got shape {arr.shape}")
        _require(arr.shape[0] >= 1, "particle set needs at least one particle")
        _require(arr.shape[1] >= 1, "particles need at least one dimension")
        _require(bool(np.isfinite(arr).all()), "particle values must be finite (no NaN/inf)")
        arr.setflags(write=False)
        return arr

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

    def __getitem__(self, index: int) -> np.ndarray:
        """Particle ``index``: a read-only view of its row."""
        row = self._values[index]
        _require(row.ndim == 1, f"particle must be one-dimensional, got shape {row.shape}")
        return row

    def __iter__(self):
        return iter(self._values)

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

    ``to_dict`` turns a nested record into its own dict and an array into
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
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _from_json(kind, name: str, value):
    """``value`` given for a field of type ``kind``: a dict becomes a nested
    record; a list for an array field must hold finite numbers only."""
    if not isinstance(kind, type) or isinstance(value, kind):
        return value
    if issubclass(kind, _Record):
        return kind.from_dict(value)
    if kind is np.ndarray:
        _require(isinstance(value, (list, tuple)),
                 f"{name} must be a list of numbers, got {value!r}")
        for coordinate in value:
            _check_real(f"{name} coordinate", coordinate)
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

    ``target`` is kept as a read-only float64 copy of the 1-D sequence given.
    ``alpha`` weights the penalty for deviating from zero in dimension 0;
    ``scale`` normalizes the Euclidean distance so raw scores stay in a
    numerically benign range. Configs compare by value and are unhashable.
    """

    SECTION = "likelihood"

    target: np.ndarray
    alpha: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        target = np.array(self.target, dtype=np.float64)
        _require(target.ndim == 1, f"target must be one-dimensional, got shape {target.shape}")
        _require(target.size >= 1, "target needs at least one dimension")
        _require(bool(np.isfinite(target).all()), "target values must be finite (no NaN/inf)")
        target.setflags(write=False)
        object.__setattr__(self, "target", target)
        _check_real("alpha", self.alpha, 0)
        _check_real("scale", self.scale, 0)
        _require(self.scale > 0, f"scale must be positive, got {self.scale!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LikelihoodConfig):
            return NotImplemented
        return (np.array_equal(self.target, other.target)
                and (self.alpha, self.scale) == (other.alpha, other.scale))

    @classmethod
    def for_prior(cls, n_dims: int, prior_std: float, *,
                  alpha: float = 1.0) -> "LikelihoodConfig":
        """Config targeting the origin with the default scale sqrt(D) * prior std.

        That product is the typical prior distance from the origin, so
        default scores land near -1 instead of underflowing. A zero prior
        std falls back to scale 1.
        """
        scale = math.sqrt(n_dims) * prior_std
        return cls(target=np.zeros(n_dims), alpha=alpha,
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
        _check_rows("n_steps", self.n_steps, self.likelihood.target.size)
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
        _check_rows("n_steps", self.n_steps, self.likelihood.target.size)
        _check_int("burn_in", self.burn_in)
        _require(self.burn_in < self.n_steps,
                 f"burn_in ({self.burn_in}) must be smaller than n_steps ({self.n_steps})")
        _check_real("step_std", self.step_std, 0)
        if self.initial_index is not None:
            _check_int("initial_index", self.initial_index)
        _validate_seed(self.seed)

