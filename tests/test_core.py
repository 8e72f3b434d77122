"""Core types: random source, particles, configs, config files."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtri

from abcfuzz import (
    ConfigError,
    ExternalOracle,
    LikelihoodConfig,
    McmcConfig,
    Particle,
    ParticleSet,
    PriorConfig,
    RandomSource,
    RangeOracle,
    SmcConfig,
    TraceSummary,
    load_config_file,
    pass_rate,
)


class TestRandomSource:
    def test_identical_seeds_identical_streams(self):
        a, b = RandomSource(42), RandomSource(42)
        np.testing.assert_array_equal(a.uniform(1000), b.uniform(1000))
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
        u = RandomSource(7).uniform(500)
        z = RandomSource(7).standard_normal(500)
        np.testing.assert_array_equal(z, ndtri(np.maximum(u, 2.0**-54)))

    def test_scalar_draws_follow_the_same_stream(self):
        vec = RandomSource(5).uniform(4)
        src = RandomSource(5)
        scalars = [src.uniform() for _ in range(4)]
        np.testing.assert_array_equal(vec, scalars)

    def test_seed_validation(self):
        with pytest.raises(ConfigError):
            RandomSource(-1)
        with pytest.raises(ConfigError):
            RandomSource(2**64)
        with pytest.raises(ConfigError):
            RandomSource(1.5)


class TestParticle:
    def test_basic_accessors(self):
        p = Particle([1.0, -2.0, 3.5])
        assert p.dim == len(p) == 3
        assert p[1] == -2.0
        assert list(p) == [1.0, -2.0, 3.5]
        assert p == Particle([1.0, -2.0, 3.5])
        assert p != Particle([1.0, -2.0, 3.6])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ConfigError):
            Particle([0.0, float("nan")])
        with pytest.raises(ConfigError):
            Particle([float("inf")])

    def test_rejects_empty_and_matrix(self):
        with pytest.raises(ConfigError):
            Particle([])
        with pytest.raises(ConfigError):
            Particle([[1.0, 2.0]])

    def test_values_are_read_only_and_copied(self):
        source = np.array([1.0, 2.0])
        p = Particle(source)
        source[0] = 99.0
        assert p[0] == 1.0
        with pytest.raises(ValueError):
            p.values[0] = 5.0

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=1, max_size=8),
           st.integers(min_value=0, max_value=7))
    def test_any_injected_nan_is_rejected(self, values, position):
        corrupted = list(values)
        corrupted[position % len(corrupted)] = float("nan")
        with pytest.raises(ConfigError):
            Particle(corrupted)


class TestParticleSet:
    def test_shape_and_access(self):
        ps = ParticleSet([[1.0, 2.0], [3.0, 4.0]])
        assert ps.n == 2 and ps.dim == 2 and len(ps) == 2
        assert ps[1] == Particle([3.0, 4.0])
        assert [p[0] for p in ps] == [1.0, 3.0]

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ConfigError):
            ParticleSet(np.empty((0, 3)))
        with pytest.raises(ConfigError):
            ParticleSet([[1.0, np.nan]])
        with pytest.raises(ConfigError):
            ParticleSet([1.0, 2.0])

    def test_yielded_particles_are_read_only_views_of_the_rows(self):
        ps = ParticleSet(RandomSource(4).standard_normal(60).reshape(20, 3) * 0.6)
        for i, p in enumerate(ps):
            assert np.array_equal(p.values, ps.values[i])
            assert np.array_equal(ps[i].values, ps.values[i])
            assert not p.values.flags.writeable and not ps[i].values.flags.writeable
            with pytest.raises(ValueError):
                p.values[0] = 1.0
        copies = [Particle(row) for row in ps.values]
        oracle = RangeOracle()
        expected = sum(oracle(p).passed for p in copies) / len(copies)
        assert pass_rate(ps, oracle) == expected

    def test_indexing_must_select_one_particle(self):
        ps = ParticleSet([[1.0, 2.0], [3.0, 4.0]])
        assert ps[-1] == Particle([3.0, 4.0])
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
        target = Particle([0.0, 0.0])
        with pytest.raises(ConfigError):
            LikelihoodConfig(target=target, alpha=-0.1)
        with pytest.raises(ConfigError):
            LikelihoodConfig(target=target, scale=0.0)

    def test_for_prior_default_scale(self):
        cfg = LikelihoodConfig.for_prior(100, 10.0)
        assert cfg.scale == pytest.approx(100.0)
        assert cfg.target == Particle(np.zeros(100))
        assert LikelihoodConfig.for_prior(4, 0.0).scale == 1.0

    def test_smc_config(self):
        lik = LikelihoodConfig(target=Particle([0.0]))
        with pytest.raises(ConfigError):
            SmcConfig(likelihood=lik, n_steps=0)
        with pytest.raises(ConfigError):
            SmcConfig(likelihood=lik, step_std=-0.5)

    def test_mcmc_config_burn_in_bound(self):
        lik = LikelihoodConfig(target=Particle([0.0]))
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
        lik = LikelihoodConfig(target=Particle([0.0]), alpha=1, scale=3)
        assert isinstance(lik.alpha, int) and isinstance(lik.scale, int)

    def test_sampler_fields_reject_bools_and_strings(self):
        lik = LikelihoodConfig(target=Particle([0.0]))
        for kwargs in ({"n_steps": True}, {"step_std": "0.5"}, {"seed": 1.5}):
            with pytest.raises(ConfigError, match=next(iter(kwargs))):
                SmcConfig(likelihood=lik, **kwargs)
        for kwargs in ({"initial_index": True}, {"burn_in": False}, {"step_std": None}):
            with pytest.raises(ConfigError, match=next(iter(kwargs))):
                McmcConfig(likelihood=lik, **kwargs)
        for kwargs in ({"alpha": [1]}, {"scale": True}):
            with pytest.raises(ConfigError, match=next(iter(kwargs))):
                LikelihoodConfig(target=Particle([0.0]), **kwargs)

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
        cfg = LikelihoodConfig(target=Particle([0.5, -1.0]), alpha=2.0, scale=3.0)
        assert LikelihoodConfig.from_dict(cfg.to_dict()) == cfg

    def test_smc_round_trip(self):
        cfg = SmcConfig(likelihood=LikelihoodConfig(target=Particle([0.0])),
                        n_steps=50, step_std=0.25, seed=4)
        assert SmcConfig.from_dict(cfg.to_dict()) == cfg

    def test_mcmc_round_trip(self):
        cfg = McmcConfig(likelihood=LikelihoodConfig(target=Particle([0.0])),
                         n_steps=50, burn_in=5, step_std=0.25, initial_index=2, seed=4)
        assert McmcConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_through_json_text(self):
        cfg = SmcConfig(likelihood=LikelihoodConfig(target=Particle([0.125, -7.5])),
                        n_steps=3, step_std=0.1, seed=1)
        assert SmcConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @pytest.mark.parametrize("record", [
        RangeOracle(low=-1, high=2.5, dimension=3),
        ExternalOracle("awk  'NR==1'", timeout=5),
        TraceSummary(mean=0.5, std=1.25, min=-1.0, max=2.0, count=4),
    ], ids=["range-oracle", "exec-oracle", "trace-summary"])
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


class TestConfigFile:
    def test_loads_sections(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"prior": {"n_particles": 5}, "smc": {"n_steps": 9}}))
        data = load_config_file(path)
        assert data["prior"]["n_particles"] == 5
        assert data["smc"]["n_steps"] == 9

    def test_unknown_section_is_an_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"priors": {}}))
        with pytest.raises(ConfigError, match="unknown"):
            load_config_file(path)

    def test_malformed_json_is_an_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config_file(path)

    @pytest.mark.parametrize("content", [b"\xff{}", b'{"prior": {"seed": 1' + b"0" * 5000 + b"}}"],
                             ids=["not-utf-8", "int-past-the-digit-limit"])
    def test_undecodable_json_is_an_error(self, tmp_path, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="JSON"):
            load_config_file(path)

    def test_non_object_sections_are_errors(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"prior": [1, 2]}))
        with pytest.raises(ConfigError):
            load_config_file(path)
