"""Core types: random source, particle sets, configs; the package's public names."""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtri

from abcfuzz import (
    ConfigError,
    ExternalOracle,
    LikelihoodConfig,
    McmcConfig,
    ParticleSet,
    PriorConfig,
    RandomSource,
    RangeOracle,
    SmcConfig,
    pass_rate,
)
from abcfuzz.core import _load_ndtri
from support import assert_read_only


class TestRandomSource:
    def test_identical_seeds_identical_streams(self):
        a, b = RandomSource(42), RandomSource(42)
        np.testing.assert_array_equal(a.uniform_block(1, 1000), b.uniform_block(1, 1000))
        a, b = RandomSource(42), RandomSource(42)
        np.testing.assert_array_equal(a.standard_normal(1000), b.standard_normal(1000))

    def test_different_seeds_differ(self):
        assert RandomSource(1).uniform() != RandomSource(2).uniform()

    def test_normal_moments(self):
        z = RandomSource(42).standard_normal(100_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.std(ddof=1) - 1.0) < 0.02

    def test_normals_are_inverse_cdf_of_uniform_stream(self):
        # pins the documented transform: one uniform per normal, via ndtri
        u = RandomSource(7).uniform_block(1, 500)[0]
        z = RandomSource(7).standard_normal(500)
        np.testing.assert_array_equal(z, ndtri(np.maximum(u, 2.0**-54)))

    def test_scalar_draws_follow_the_same_stream(self):
        block = RandomSource(5).uniform_block(2, 3)
        src = RandomSource(5)
        scalars = [src.uniform() for _ in range(6)]
        assert all(type(u) is float for u in scalars)
        np.testing.assert_array_equal(block.ravel(), scalars)

    def test_seed_validation(self):
        with pytest.raises(ConfigError):
            RandomSource(-1)
        with pytest.raises(ConfigError):
            RandomSource(2**64)
        with pytest.raises(ConfigError):
            RandomSource(1.5)


def _fresh_child(code):
    """stdout lines of ``code`` run in a new interpreter, the one place
    where scipy.special is not imported yet: this module imports it."""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout.splitlines()


# Draws 10**5 normals of seed 7 after ``patch`` and prints whether the
# scipy.special package was imported, then the SHA-256 digest of the draws.
_DRAW_DIGEST = """
import hashlib, sys, types
from abcfuzz import core
{patch}
ndtri = core._load_ndtri()
print("scipy.special" in sys.modules)
draws = core.RandomSource(7).standard_normal(10**5)
import scipy.special
assert ndtri is scipy.special.ndtri
print(hashlib.sha256(draws.tobytes()).hexdigest())
"""


class TestNdtriLoad:
    """Where scipy.special is not imported yet, the first draw loads scipy's
    ufunc module alone; the ufunc is the one the package names."""

    def test_in_process_it_is_the_package_ufunc(self):
        assert _load_ndtri() is ndtri

    def test_fresh_process_loads_the_ufunc_module_alone(self):
        lines = _fresh_child(
            "import sys; from abcfuzz.core import _load_ndtri; loaded = _load_ndtri(); "
            "print('scipy.special' in sys.modules, 'scipy.special._ufuncs' in sys.modules); "
            "import scipy.special; print(scipy.special.ndtri is loaded, _load_ndtri() is loaded)")
        assert lines == ["False True", "True True"]

    def test_failed_import_is_tried_again(self):
        lines = _fresh_child("""
import sys
from abcfuzz.core import _load_ndtri
sys.modules["scipy.special"] = None
try:
    _load_ndtri()
except ImportError as exc:
    print(str(exc).startswith("normal draws need scipy.special"))
del sys.modules["scipy.special"]
print(_load_ndtri().__name__, "scipy.special" in sys.modules)
""")
        assert lines == ["True", "ndtri False"]

    # a SciPy whose ufunc module cannot be loaded alone, or holds no ndtri
    @pytest.mark.parametrize("patch", [
        "def moved():\n    raise ImportError('moved')\ncore._ufuncs_alone = moved",
        "core._ufuncs_alone = lambda: types.ModuleType('scipy.special._ufuncs')",
    ], ids=["import-error", "no-ndtri-attribute"])
    def test_failed_direct_load_falls_back_to_the_package(self, patch):
        direct = _fresh_child(_DRAW_DIGEST.format(patch=""))
        fallback = _fresh_child(_DRAW_DIGEST.format(patch=patch))
        assert direct[0] == "False" and fallback[0] == "True"
        assert fallback[1] == direct[1]

    def test_concurrent_first_loads_agree(self):
        # The threads start 3 ms apart, so some arrive while the first one
        # loads: without the lock, such a thread finds the placeholder
        # package, or a half-loaded ufunc module, and its load fails. With
        # other threads running, the loads take the package import.
        lines = _fresh_child("""
import sys, threading, time
from abcfuzz.core import _load_ndtri
barrier = threading.Barrier(8)
loaded = []

def load(index):
    barrier.wait(timeout=30)
    time.sleep(index * 0.003)
    loaded.append(_load_ndtri())

interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=load, args=(index,)) for index in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
finally:
    sys.setswitchinterval(interval)
print(sum(thread.is_alive() for thread in threads), len(loaded), len(set(map(id, loaded))))
print("scipy.special" in sys.modules)
""")
        assert lines == ["0 8 1", "True"]

    def test_load_beside_a_thread_importing_the_package(self):
        # 14 threads wait for scipy.special to appear in sys.modules, then
        # import from it, while another thread takes the first load. A
        # direct load's placeholder package would fail each thread that
        # finds it; a package import in progress makes them wait for it.
        lines = _fresh_child("""
import sys, threading, time
from abcfuzz.core import _load_ndtri
failed = []

def use():
    deadline = time.monotonic() + 30
    while "scipy.special" not in sys.modules and time.monotonic() < deadline:
        time.sleep(0.0005)
    try:
        from scipy.special import logsumexp
    except Exception as exc:
        failed.append(type(exc).__name__)

interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = []
    for _ in range(14):
        threads.append(threading.Thread(target=use))
        threads[-1].start()
        time.sleep(0.002)
    threads.append(threading.Thread(target=_load_ndtri))
    threads[-1].start()
    for thread in threads:
        thread.join(timeout=30)
finally:
    sys.setswitchinterval(interval)
print(sum(thread.is_alive() for thread in threads), failed)
""")
        assert lines == ["0 []"]


class TestLikelihoodTarget:
    def test_target_is_a_read_only_float64_copy(self):
        source = np.array([1.0, 2.0])
        cfg = LikelihoodConfig(target=source)
        source[0] = 99.0
        assert cfg.target.dtype == np.float64 and cfg.target.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            cfg.target[0] = 5.0
        assert LikelihoodConfig(target=[1, -2]).target.dtype == np.float64

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ConfigError, match="target"):
            LikelihoodConfig(target=[0.0, float("nan")])
        with pytest.raises(ConfigError, match="target"):
            LikelihoodConfig(target=[float("inf")])

    def test_rejects_empty_and_matrix(self):
        with pytest.raises(ConfigError, match="target"):
            LikelihoodConfig(target=[])
        with pytest.raises(ConfigError, match="target"):
            LikelihoodConfig(target=[[1.0, 2.0]])

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=1, max_size=8),
           st.integers(min_value=0, max_value=7))
    def test_any_injected_nan_is_rejected(self, values, position):
        corrupted = list(values)
        corrupted[position % len(corrupted)] = float("nan")
        with pytest.raises(ConfigError, match="target"):
            LikelihoodConfig(target=corrupted)

    def test_configs_compare_by_value_and_are_unhashable(self):
        cfg = LikelihoodConfig(target=[1.0, -2.0], alpha=2.0, scale=3.0)
        assert cfg == LikelihoodConfig(target=np.array([1.0, -2.0]), alpha=2.0, scale=3.0)
        assert cfg != LikelihoodConfig(target=[1.0, -2.5], alpha=2.0, scale=3.0)
        assert cfg != LikelihoodConfig(target=[1.0, -2.0], alpha=2.5, scale=3.0)
        assert cfg != LikelihoodConfig(target=[1.0, -2.0, 0.0], alpha=2.0, scale=3.0)
        with pytest.raises(TypeError):
            hash(cfg)


class TestParticleSet:
    def test_shape_and_access(self):
        ps = ParticleSet([[1.0, 2.0], [3.0, 4.0]])
        assert ps.n == 2 and ps.dim == 2 and len(ps) == 2
        assert ps[1].tolist() == [3.0, 4.0]
        assert [row[0] for row in ps] == [1.0, 3.0]

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ConfigError):
            ParticleSet(np.empty((0, 3)))
        with pytest.raises(ConfigError):
            ParticleSet([[1.0, np.nan]])
        with pytest.raises(ConfigError):
            ParticleSet([1.0, 2.0])

    def test_constructor_copies_its_input(self):
        source = np.array([[1.0, 2.0], [3.0, 4.0]])
        ps = ParticleSet(source)
        source[0, 0] = 99.0
        assert ps.values[0, 0] == 1.0
        assert_read_only(ps)

    def test_adopt_holds_the_matrix_itself_read_only(self):
        matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
        ps = ParticleSet._adopt(matrix)
        assert ps.values is matrix and not matrix.flags.writeable
        assert_read_only(ps)

    @pytest.mark.parametrize("matrix", [np.empty((0, 3)), np.empty((2, 0)),
                                        np.array([[1.0, np.inf]]), np.array([1.0, 2.0])],
                             ids=["no-rows", "no-columns", "non-finite", "one-dimensional"])
    def test_adopt_checks_like_the_constructor(self, matrix):
        with pytest.raises(ConfigError) as adopted:
            ParticleSet._adopt(matrix.copy())
        with pytest.raises(ConfigError) as constructed:
            ParticleSet(matrix)
        assert str(adopted.value) == str(constructed.value)

    def test_yielded_rows_are_read_only_views_of_the_matrix(self):
        ps = ParticleSet(RandomSource(4).standard_normal(60).reshape(20, 3) * 0.6)
        for i, row in enumerate(ps):
            assert row.base is ps.values and ps[i].base is ps.values
            assert np.array_equal(row, ps.values[i]) and np.array_equal(ps[i], ps.values[i])
            assert not row.flags.writeable and not ps[i].flags.writeable
            with pytest.raises(ValueError):
                row[0] = 1.0
        copies = [row.copy() for row in ps.values]
        oracle = RangeOracle()
        expected = sum(oracle(row).passed for row in copies) / len(copies)
        assert pass_rate(ps, oracle) == expected

    def test_indexing_must_select_one_particle(self):
        ps = ParticleSet([[1.0, 2.0], [3.0, 4.0]])
        assert ps[-1].tolist() == [3.0, 4.0]
        with pytest.raises(ConfigError):
            ps[0:2]
        with pytest.raises(IndexError):
            ps[2]

    def test_to_array_is_a_writable_copy(self):
        ps = ParticleSet([[1.0, 2.0]])
        arr = ps.to_array()
        arr[0, 0] = 42.0
        assert ps.values[0, 0] == 1.0


class TestConfigValidation:
    def test_prior_config(self):
        with pytest.raises(ConfigError):
            PriorConfig(n_particles=0)
        with pytest.raises(ConfigError):
            PriorConfig(n_dims=0)
        with pytest.raises(ConfigError):
            PriorConfig(std_dev=-1.0)
        with pytest.raises(ConfigError):
            PriorConfig(zero_fraction=1.5)
        with pytest.raises(ConfigError):
            PriorConfig(seed=-3)

    def test_likelihood_config(self):
        target = [0.0, 0.0]
        with pytest.raises(ConfigError):
            LikelihoodConfig(target=target, alpha=-0.1)
        with pytest.raises(ConfigError):
            LikelihoodConfig(target=target, scale=0.0)

    def test_for_prior_default_scale(self):
        cfg = LikelihoodConfig.for_prior(100, 10.0)
        assert cfg.scale == pytest.approx(100.0)
        assert np.array_equal(cfg.target, np.zeros(100))
        assert LikelihoodConfig.for_prior(4, 0.0).scale == 1.0

    def test_smc_config(self):
        lik = LikelihoodConfig(target=[0.0])
        with pytest.raises(ConfigError):
            SmcConfig(likelihood=lik, n_steps=0)
        with pytest.raises(ConfigError):
            SmcConfig(likelihood=lik, step_std=-0.5)

    @pytest.mark.parametrize("record", [SmcConfig, McmcConfig])
    def test_steps_past_one_array_name_n_steps_and_the_target_dims(self, record):
        lik = LikelihoodConfig(target=np.zeros(4))
        steps = 10**20
        with pytest.raises(ConfigError, match=rf"n_steps \({steps}\) times 4 dims exceeds"):
            record(likelihood=lik, n_steps=steps)

    def test_mcmc_config_burn_in_bound(self):
        lik = LikelihoodConfig(target=[0.0])
        McmcConfig(likelihood=lik, n_steps=10, burn_in=9)
        with pytest.raises(ConfigError):
            McmcConfig(likelihood=lik, n_steps=10, burn_in=10)
        with pytest.raises(ConfigError):
            McmcConfig(likelihood=lik, n_steps=10, burn_in=-1)

    @pytest.mark.parametrize("field", ["n_particles", "n_dims", "seed"])
    @pytest.mark.parametrize("value", [True, 2.0, "3", None, [3]])
    def test_integer_fields_take_only_integers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            PriorConfig(**{field: value})

    @pytest.mark.parametrize("field", ["mean", "std_dev", "zero_fraction"])
    @pytest.mark.parametrize("value", [True, "0.3", None, [0.3], float("nan"), 10**400])
    def test_real_fields_take_only_finite_numbers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            PriorConfig(**{field: value})

    def test_int_valued_reals_stay_ints(self):
        cfg = PriorConfig(mean=0, std_dev=2, zero_fraction=1)
        assert cfg.to_dict()["mean"] == 0 and isinstance(cfg.to_dict()["mean"], int)
        lik = LikelihoodConfig(target=[0.0], alpha=1, scale=3)
        assert isinstance(lik.alpha, int) and isinstance(lik.scale, int)

    def test_sampler_fields_reject_bools_and_strings(self):
        lik = LikelihoodConfig(target=[0.0])
        for kwargs in ({"n_steps": True}, {"step_std": "0.5"}, {"seed": 1.5}):
            with pytest.raises(ConfigError, match=next(iter(kwargs))):
                SmcConfig(likelihood=lik, **kwargs)
        for kwargs in ({"initial_index": True}, {"burn_in": False}, {"step_std": None}):
            with pytest.raises(ConfigError, match=next(iter(kwargs))):
                McmcConfig(likelihood=lik, **kwargs)
        for kwargs in ({"alpha": [1]}, {"scale": True}):
            with pytest.raises(ConfigError, match=next(iter(kwargs))):
                LikelihoodConfig(target=[0.0], **kwargs)

    def test_inline_target_takes_only_numbers(self):
        for target in (5, "origin", ["a", 1.0], [True], [float("inf")]):
            with pytest.raises(ConfigError, match="target"):
                LikelihoodConfig.from_dict({"target": target})


class TestConfigSerialization:
    def test_prior_round_trip(self):
        cfg = PriorConfig(n_particles=7, n_dims=3, mean=1.5, std_dev=2.25,
                          zero_fraction=0.5, seed=99)
        assert PriorConfig.from_dict(cfg.to_dict()) == cfg

    def test_likelihood_round_trip(self):
        cfg = LikelihoodConfig(target=[0.5, -1.0], alpha=2.0, scale=3.0)
        assert LikelihoodConfig.from_dict(cfg.to_dict()) == cfg

    def test_smc_round_trip(self):
        cfg = SmcConfig(likelihood=LikelihoodConfig(target=[0.0]),
                        n_steps=50, step_std=0.25, seed=4)
        assert SmcConfig.from_dict(cfg.to_dict()) == cfg

    def test_mcmc_round_trip(self):
        cfg = McmcConfig(likelihood=LikelihoodConfig(target=[0.0]),
                         n_steps=50, burn_in=5, step_std=0.25, initial_index=2, seed=4)
        assert McmcConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_through_json_text(self):
        cfg = SmcConfig(likelihood=LikelihoodConfig(target=[0.125, -7.5]),
                        n_steps=3, step_std=0.1, seed=1)
        assert SmcConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @pytest.mark.parametrize("record", [
        RangeOracle(low=-1, high=2.5, dimension=3),
        ExternalOracle("awk  'NR==1'", timeout=5),
    ], ids=["range-oracle", "exec-oracle"])
    def test_other_records_round_trip_through_json_text(self, record):
        assert type(record).from_dict(json.loads(json.dumps(record.to_dict()))) == record

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match=r"^unknown prior config keys: \['n_dim'\]$"):
            PriorConfig.from_dict({"n_particles": 5, "n_dim": 2})
        with pytest.raises(ConfigError, match=r"^unknown smc config keys: \['steps'\]$"):
            SmcConfig.from_dict({"likelihood": {"target": [0.0]}, "steps": 5})
        with pytest.raises(ConfigError, match=r"^unknown likelihood config keys: \['a'\]$"):
            McmcConfig.from_dict({"likelihood": {"target": [0.0], "a": 1}})

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigError, match=r"^missing oracle config keys: \['command'\]$"):
            ExternalOracle.from_dict({"timeout": 5})
        with pytest.raises(ConfigError, match=r"^missing likelihood config keys: \['target'\]$"):
            LikelihoodConfig.from_dict({"alpha": 1})



# The package's public names. A name added or removed is a deliberate edit here.
PUBLIC_NAMES = [
    "ConfigError", "DegeneracyError", "ENGINE_VERSION", "ExternalOracle", "LikelihoodConfig",
    "McmcConfig", "McmcResult", "OracleSpawnError", "OracleTimeoutError", "OracleVerdict",
    "ParticleSet", "PriorConfig", "RandomSource", "RangeOracle", "SmcConfig",
    "SmcResult", "accept_probability", "emit_plot_data", "generate_prior",
    "log_likelihood_values", "normalize_log_weights", "pass_rate", "read_particles_csv",
    "run_mcmc", "run_smc", "slice_count", "systematic_resample", "trace_summary",
    "weight_sum_delta_series", "weight_updates_converging", "write_particles_csv",
    "write_report",
]


def test_public_names_are_pinned():
    import abcfuzz

    assert len(PUBLIC_NAMES) == 32
    assert sorted(abcfuzz.__all__) == PUBLIC_NAMES
    assert len(set(abcfuzz.__all__)) == len(abcfuzz.__all__)
    for name in abcfuzz.__all__:
        assert getattr(abcfuzz, name) is not None, name


class TestLazyRoot:
    """The package root loads each public name from its submodule on first use."""

    def test_import_loads_neither_numpy_nor_scipy(self):
        code = ("import sys, abcfuzz; "
                "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_dir_lists_every_public_name(self):
        import abcfuzz

        assert set(dir(abcfuzz)) >= set(abcfuzz.__all__) | {"__version__"}

    def test_unknown_attribute_raises_naming_it(self):
        import abcfuzz

        with pytest.raises(AttributeError, match="'no_such_name'"):
            abcfuzz.no_such_name

    def test_star_import_binds_every_public_name(self):
        import abcfuzz

        namespace = {}
        exec("from abcfuzz import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == PUBLIC_NAMES
        assert all(namespace[name] is getattr(abcfuzz, name) for name in PUBLIC_NAMES)

    def test_version_is_the_engine_version(self):
        import abcfuzz
        from abcfuzz.core import ENGINE_VERSION

        assert abcfuzz.__version__ == abcfuzz.ENGINE_VERSION == ENGINE_VERSION

    def test_submodule_import_returns_the_submodule(self):
        import abcfuzz.cli
        from abcfuzz import cli

        assert cli is sys.modules["abcfuzz.cli"] is abcfuzz.cli


def test_public_errors_are_the_ones_main_maps_to_exit_codes():
    import abcfuzz

    classes = [getattr(abcfuzz, name) for name in abcfuzz.__all__]
    errors = {cls.__name__: cls.__bases__ for cls in classes
              if isinstance(cls, type) and issubclass(cls, BaseException)}
    assert errors == {"ConfigError": (ValueError,), "DegeneracyError": (ArithmeticError,),
                      "OracleSpawnError": (RuntimeError,), "OracleTimeoutError": (RuntimeError,)}
