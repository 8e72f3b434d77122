"""Command-line entry point: abc-fuzz <gen-prior|run|compare>.

Each config record is merged in layers, dataclass defaults <- config-file
section <- flags that were given, and built by its own ``from_dict``; the
fully resolved configuration is echoed into every report.json so each
printed number can be reproduced. Exit codes are a stable contract:
0 success, 2 usage/config error, 3 IO or environment failure, 4 numerical
degeneracy, 130 interrupted (Ctrl-C), 143 and 129 terminated (SIGTERM, SIGHUP).
"""

import argparse
import dataclasses
import json
import math
import os
import re
import signal
import stat
import sys
import threading
from pathlib import Path

# The engine makes no BLAS call, so one OpenBLAS thread spares the pools that
# numpy and scipy would each start at load. Set only where numpy is not yet
# loaded and the caller set no value. Exec-oracle children get the caller's
# environment, without it (oracle.PROCESS_ONLY_ENV).
_SET_BLAS_THREADS = "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
if _SET_BLAS_THREADS:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .core import (
    ConfigError,
    DegeneracyError,
    ENGINE_VERSION,
    LikelihoodConfig,
    McmcConfig,
    ParticleSet,
    PriorConfig,
    SmcConfig,
    _check_rows,
    _field_names,
    _reject_unknown_keys,
    _require,
    _validate_seed,
)
from .diagnostics import (
    CONVERGENCE_NOTE,
    trace_summary,
    weight_sum_delta_series,
    weight_updates_converging,
)
from .mcmc import run_mcmc
from .oracle import (
    ExternalOracle,
    OracleSpawnError,
    OracleTimeoutError,
    PROCESS_ONLY_ENV,
    RangeOracle,
    count_passing,
    pass_rate,
)
from .prior import generate_prior, slice_count
from .report import (
    CACHE_MIN_BYTES,
    CsvSink,
    _find_orjson,
    _read_cached,
    emit_plot_data,
    read_particles_csv,
    write_lines,
    write_particles_csv,
    write_report,
)
# imported only for bench/tracing.py, which wraps cli.write_csv and
# cli.write_json by name
from .report import write_csv, write_json  # noqa: F401
from .smc import run_smc

if _SET_BLAS_THREADS:
    PROCESS_ONLY_ENV.add("OPENBLAS_NUM_THREADS")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ENVIRONMENT = 3
EXIT_DEGENERACY = 4
# The signals main turns into an interrupt and then an exit of 128 + signum,
# as a shell reports it, each only while its handler is this default.
_STOP_SIGNALS = {signal.SIGINT: signal.default_int_handler, signal.SIGTERM: signal.SIG_DFL,
                 **({signal.SIGHUP: signal.SIG_DFL} if hasattr(signal, "SIGHUP") else {})}

_SEED_MODULUS = 2**64
# Bytes a config or target file may hold: each is a few values, never a corpus.
_INPUT_CAP = 16 << 20

# Config section -> {argparse dest: record field}. A dest that a subcommand
# lacks reads as None, like a flag that was not given.
_FLAG_FIELDS = {
    "prior": {"n": "n_particles", "dims": "n_dims", "mean": "mean", "std": "std_dev",
              "zero_fraction": "zero_fraction"},
    "likelihood": {"target": "target", "alpha": "alpha", "scale": "scale"},
    "smc": {"steps": "n_steps", "step_std": "step_std", "seed": "seed"},
    "mcmc": {"steps": "n_steps", "burn_in": "burn_in", "step_std": "step_std",
             "initial_index": "initial_index", "seed": "seed"},
    "oracle": {"oracle_timeout": "timeout"},
}
_SAMPLERS = {"smc": SmcConfig, "mcmc": McmcConfig}
_ORACLES = {"range": RangeOracle, "exec": ExternalOracle}
# The config file's sections and the keys each may hold: its record's
# fields. The likelihood is a section of its own, never a sampler key; the
# oracle section holds the kind plus the fields of every kind's record.
_FILE_KEYS = {
    "prior": _field_names(PriorConfig),
    "likelihood": _field_names(LikelihoodConfig),
    **{name: [f for f in _field_names(cls) if f != "likelihood"]
       for name, cls in _SAMPLERS.items()},
    "oracle": ["kind", *(f for cls in _ORACLES.values() for f in _field_names(cls))],
}


def _checked(convert, ok, requirement: str):
    """argparse type: convert the text, then require ``ok(value)``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(requirement)
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "must be a positive integer")
_nonnegative_int = _checked(int, lambda v: v >= 0, "must be a nonnegative integer")
_nonnegative_float = _checked(float, lambda v: math.isfinite(v) and v >= 0,
                              "must be a finite nonnegative number")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0,
                           "must be a finite positive number")
_finite_float = _checked(float, math.isfinite, "must be a finite number")
_fraction = _checked(float, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
_seed = _checked(int, lambda v: 0 <= v < _SEED_MODULUS, "must fit in 64 unsigned bits")
_path = _checked(str, bool, "must not be empty")

# argparse's negative-number pattern has no exponent, so it reads the word
# "-1e308" as a flag and "--mean -1e308" as lacking its value. There is no
# public hook for the pattern: build_parser replaces each parser's private one.
_NEGATIVE_NUMBER = re.compile(r"^-\d+([eE][-+]?\d+)?$|^-\d*\.\d+([eE][-+]?\d+)?$")


def _oracle_spec(text: str) -> dict:
    """argparse type for --oracle: the oracle-section values it sets."""
    if text == "range":
        return {"kind": "range"}
    if text.startswith("exec:"):
        return {"kind": "exec", "command": text[len("exec:"):]}
    raise argparse.ArgumentTypeError(f"must be 'range' or 'exec:<command>', got {text!r}")


def _input_file(path, name: str, capped: bool = True):
    """``path``, given as ``name``, once it names a regular file, of at most
    _INPUT_CAP bytes where ``capped``: a device, pipe or directory is never
    read. A path that cannot be stat'ed is left for its reader to report."""
    try:
        info = os.stat(path)
    except OSError:
        return path
    except ValueError as exc:  # a NUL in the path
        raise ConfigError(f"{name} {path!r} is not a valid path: {exc}") from exc
    _require(stat.S_ISREG(info.st_mode), f"{name} {path} is not a regular file")
    _require(not capped or info.st_size <= _INPUT_CAP,
             f"{name} {path} is larger than the {_INPUT_CAP >> 20} MiB cap")
    return path


def _load_file_config(path) -> dict:
    """The config file's sections: a JSON object of ``_FILE_KEYS`` sections,
    each an object, every one checked for unknown keys whether or not the
    command reads it."""
    if path is None:
        return {}
    with open(_input_file(path, "--config"), "r", encoding="utf-8") as fh:
        try:
            file_cfg = json.load(fh)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, a huge int, deep nesting
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    _require(isinstance(file_cfg, dict), f"config file {path} must hold a JSON object")
    _reject_unknown_keys("file", file_cfg, _FILE_KEYS)
    for name, data in file_cfg.items():
        _require(isinstance(data, dict), f"config section {name!r} must be a JSON object")
    for name, data in file_cfg.items():
        _reject_unknown_keys(name, data, _FILE_KEYS[name])
    return file_cfg


def _section(file_cfg: dict, name: str, args, derived=None, **flags) -> dict:
    """One section's values: derived defaults <- file section <- flags given.

    ``flags`` adds flag-level values to the section's ``_FLAG_FIELDS``
    entries; a None flag was not given. The record's own dataclass defaults
    fill every key that no layer sets.
    """
    flags = {**{field: getattr(args, dest, None)
                for dest, field in _FLAG_FIELDS[name].items()}, **flags}
    merged = {**(derived or {}), **file_cfg.get(name, {})}
    merged.update((field, value) for field, value in flags.items() if value is not None)
    return merged


def _sampler_section(file_cfg: dict, name: str, args, **flags):
    """A sampler section's merged values plus its seed, validated up front
    because the prior seed derives from it."""
    data = _section(file_cfg, name, args, **flags)
    return data, _validate_seed(data.get("seed", _SAMPLERS[name].seed))


def _output_dir(out_flag, run_id: str) -> Path:
    """The run's output directory; the writers create it with the first artifact,
    so a run that fails before writing leaves none behind."""
    if out_flag is not None:
        return Path(out_flag)
    return Path(os.environ.get("ABC_FUZZ_OUT") or "out") / run_id


def _add_config_flags(parser):
    parser.add_argument("--config", type=_path, metavar="FILE",
                        help="JSON config file; flags override its values")
    parser.add_argument("--out", type=_path, metavar="DIR",
                        help="output directory (default: <root>/<run-id>/, root from "
                             "$ABC_FUZZ_OUT or ./out)")


def _add_prior_flags(parser):
    parser.add_argument("--n", type=_positive_int,
                        help=f"prior particle count (default {PriorConfig.n_particles})")
    parser.add_argument("--dims", type=_positive_int,
                        help=f"particle dimensionality (default {PriorConfig.n_dims})")
    parser.add_argument("--mean", type=_finite_float,
                        help=f"prior mean (default {PriorConfig.mean})")
    parser.add_argument("--std", type=_nonnegative_float,
                        help=f"prior standard deviation (default {PriorConfig.std_dev})")
    parser.add_argument("--zero-fraction", type=_fraction,
                        help="fraction of particles with dimension 0 forced to 0 "
                             f"(default {PriorConfig.zero_fraction})")


def _add_likelihood_flags(parser):
    parser.add_argument("--alpha", type=_nonnegative_float,
                        help="first-dimension penalty weight "
                             f"(default {LikelihoodConfig.alpha})")
    parser.add_argument("--scale", type=_positive_float,
                        help="distance normalizer (default sqrt(dims) * prior std)")
    parser.add_argument("--target", type=_path, metavar="origin|FILE",
                        help="likelihood target point: 'origin' or a one-particle CSV "
                             "(default origin)")


def _add_oracle_flags(parser):
    parser.add_argument("--oracle", type=_oracle_spec, metavar="range|exec:CMD",
                        help="pass/fail oracle: in-process range check, or an external "
                             "command judged by exit status (default range)")
    parser.add_argument("--oracle-timeout", type=_positive_float, metavar="SEC",
                        help="kill external oracle commands after SEC seconds "
                             f"(default {ExternalOracle.timeout})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abc-fuzz",
        description="Particle-based inference engine that steers fuzz-test inputs "
                    "toward a target's passing region.")
    parser.add_argument("--version", action="version", version=f"abc-fuzz {ENGINE_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-prior", help="generate the Gaussian prior population")
    _add_prior_flags(gen)
    gen.add_argument("--seed", type=_seed,
                     help=f"prior generation seed (default {PriorConfig.seed})")
    _add_config_flags(gen)
    gen.set_defaults(func=cmd_gen_prior)

    run = sub.add_parser("run", help="run a sampler against an oracle")
    run.add_argument("sampler", choices=("smc", "mcmc"))
    run.add_argument("--prior", type=_path, metavar="FILE",
                     help="load the prior from a particle CSV instead of generating it")
    _add_prior_flags(run)
    run.add_argument("--prior-seed", type=_seed,
                     help="seed for the generated prior (default: sampler seed + 1)")
    run.add_argument("--steps", type=_positive_int,
                     help=f"sampler steps (default {SmcConfig.n_steps})")
    run.add_argument("--burn-in", type=_nonnegative_int,
                     help="mcmc only: steps discarded before the chain "
                          f"(default {McmcConfig.burn_in})")
    run.add_argument("--step-std", type=_nonnegative_float,
                     help=f"random-walk proposal std per dimension (default {SmcConfig.step_std})")
    run.add_argument("--initial-index", type=_nonnegative_int,
                     help="mcmc only: prior index of the starting state "
                          "(default: random prior particle)")
    run.add_argument("--trace-all", action="store_true", default=None,
                     help="mcmc only: also record every state in full dimension")
    _add_likelihood_flags(run)
    run.add_argument("--seed", type=_seed, help=f"sampler seed (default {SmcConfig.seed})")
    _add_oracle_flags(run)
    _add_config_flags(run)
    run.set_defaults(func=cmd_run)

    comp = sub.add_parser(
        "compare",
        help="race SMC against random prior sampling under one oracle-call budget")
    comp.add_argument("--budget", type=_positive_int, required=True,
                      help="oracle calls granted to each method")
    _add_prior_flags(comp)
    comp.add_argument("--step-std", type=_nonnegative_float,
                      help="random-walk proposal std per dimension "
                           f"(default {SmcConfig.step_std})")
    _add_likelihood_flags(comp)
    comp.add_argument("--seed", type=_seed,
                      help="base seed; the SMC run uses it, the prior and the random "
                           f"baseline use seed+1 and seed+2 (default {SmcConfig.seed})")
    _add_oracle_flags(comp)
    _add_config_flags(comp)
    comp.set_defaults(func=cmd_compare)

    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _resolve_target(spec, n_dims: int, name: str):
    """Resolve 'origin' (or null) and a one-particle CSV path given as ``name``;
    any other value is left for LikelihoodConfig.from_dict to check."""
    if spec is None or spec == "origin":
        return np.zeros(n_dims)
    if not isinstance(spec, str):
        return spec
    _require(spec != "", "likelihood target must be 'origin' or a particle CSV path, got ''")
    target_set = read_particles_csv(_input_file(spec, name))
    if target_set.n != 1:
        raise ConfigError(
            f"target file {spec} must contain exactly one particle, got {target_set.n}")
    return target_set[0]


def _resolve_likelihood(args, file_cfg: dict, n_dims: int, prior_std,
                        std_from: str = "std from --std/std_dev") -> LikelihoodConfig:
    """The likelihood record; ``prior_std()`` is called only for a derived
    scale, and ``std_from`` says where that std comes from when the scale overflows."""
    data = _section(file_cfg, "likelihood", args)
    name = "likelihood.target" if getattr(args, "target", None) is None else "--target"
    data["target"] = _resolve_target(data.get("target"), n_dims, name)
    if data.get("scale") is None:  # null, like an absent key, means "derive"
        std = prior_std()
        try:
            data["scale"] = LikelihoodConfig.for_prior(n_dims, std).scale
        except ConfigError as exc:  # the one fault of a derived scale: it overflows
            raise ConfigError(
                f"likelihood scale derived as sqrt(n_dims) * std overflows: "
                f"sqrt({n_dims}) * {std!r}, {std_from}; set --scale or likelihood.scale") from exc
    cfg = LikelihoodConfig.from_dict(data)
    if cfg.target.size != n_dims:
        raise ConfigError(
            f"{name} has {cfg.target.size} dims but the prior has {n_dims}")
    return cfg


def _resolve_oracle(args, file_cfg: dict):
    """Build the oracle plus its config echo for the report.

    The section holds ``kind`` plus the fields of each kind's record; only
    the fields of the kind in use are read. ``--oracle`` overrides the kind,
    and for exec also the command; ``--oracle-timeout`` is an error with
    the range oracle.
    """
    spec = getattr(args, "oracle", None) or {}  # gen-prior has no --oracle flag
    data = _section(file_cfg, "oracle", args, **spec)
    kind = data.pop("kind", "range")
    _require(isinstance(kind, str) and kind in _ORACLES,
             f"oracle kind must be 'range' or 'exec', got {kind!r}")
    # a file key of the other kind is ignored, a flag the user gave is not
    _require(kind == "exec" or getattr(args, "oracle_timeout", None) is None,
             "--oracle-timeout only applies to an exec oracle")
    cls = _ORACLES[kind]
    oracle = cls.from_dict({key: data[key] for key in _field_names(cls) if key in data})
    return oracle, {"kind": kind, **oracle.to_dict()}


def _estimated_std(particles: ParticleSet) -> float:
    """The std of a --prior file's values, inf where it overflows."""
    with np.errstate(over="ignore"):
        return float(particles.values.std())


def _generated_std(cfg: PriorConfig) -> float:
    """A generated prior's std. One so large that the derived scale,
    sqrt(n_dims) times it, overflows is drawn first, so that a draw which
    overflows too is reported as such, naming std_dev and mean."""
    if math.sqrt(cfg.n_dims) * cfg.std_dev > sys.float_info.max:
        generate_prior(cfg)
    return cfg.std_dev


def cmd_gen_prior(args) -> int:
    file_cfg = _load_file_config(args.config)
    cfg = PriorConfig.from_dict(_section(file_cfg, "prior", args, seed=args.seed))
    oracle, oracle_echo = _resolve_oracle(args, file_cfg)
    particles = generate_prior(cfg)
    zeroed = slice_count(cfg)
    rate = pass_rate(particles, oracle)
    _find_orjson()

    outdir = _output_dir(args.out, f"gen-prior-seed{cfg.seed}")
    write_particles_csv(particles, outdir / "prior.csv")
    write_lines([range(zeroed)], [(outdir / "slice-indices.csv", "index", None)])
    emit_plot_data(particles, "prior-histogram-data", outdir / "plot-prior-histogram.dat",
                   zeroed=zeroed)
    if particles.dim >= 4:
        emit_plot_data(particles, "dims-1-3-surface-data", outdir / "plot-prior-surface.dat")

    write_report({
        "kind": "prior",
        "seed": cfg.seed,
        "config_echo": {"prior": cfg.to_dict(), "oracle": oracle_echo},
        "pass_rate": rate,
        "oracle_calls": particles.n,
        "slice_indices": list(range(zeroed)),
    }, outdir / "report.json")

    print(f"prior pass rate: {rate!r} (n={cfg.n_particles}, oracle={oracle_echo['kind']})")
    print(f"wrote {outdir}")
    return EXIT_OK


def _cache_dir():
    """The parsed-matrix cache directory, made with mode 0o700 where it is
    missing: $XDG_CACHE_HOME/abc-fuzz where that is an absolute path, else
    ~/.cache/abc-fuzz. None where neither is absolute or it cannot be made."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    directory = os.path.join(base, "abc-fuzz")
    if not os.path.isabs(directory):
        return None
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
    except OSError:
        return None
    return directory


def _read_prior(path) -> ParticleSet:
    """A --prior file's particles; a file of CACHE_MIN_BYTES or more is read
    through the parsed-matrix cache, where there is one."""
    try:
        large = os.stat(path).st_size >= CACHE_MIN_BYTES
    except OSError:  # read_particles_csv reports it
        large = False
    directory = _cache_dir() if large else None
    if directory is None:
        return read_particles_csv(path)
    return _read_cached(path, directory, read_particles_csv)


def _resolve_run_prior(args, file_cfg: dict, sampler_seed: int):
    """The prior before any draw: (particles, config, echo). A --prior file
    is read, with no config; a generated prior is configured, not drawn."""
    if args.prior is not None:
        particles = _read_prior(_input_file(args.prior, "--prior", capped=False))
        echo = {"file": str(args.prior), "n_particles": particles.n,
                "n_dims": particles.dim}
        return particles, None, echo
    derived = {"seed": (sampler_seed + 1) % _SEED_MODULUS}
    cfg = PriorConfig.from_dict(
        _section(file_cfg, "prior", args, derived, seed=args.prior_seed))
    return None, cfg, cfg.to_dict()


def cmd_run(args) -> int:
    file_cfg = _load_file_config(args.config)
    sampler = args.sampler
    if sampler == "smc":
        for flag, name in ((args.burn_in, "--burn-in"),
                           (args.initial_index, "--initial-index"),
                           (args.trace_all, "--trace-all")):
            if flag is not None:
                raise ConfigError(f"{name} only applies to mcmc")

    data, seed = _sampler_section(file_cfg, sampler, args)
    # every config record is built before a generated prior is drawn
    particles, prior_cfg, prior_echo = _resolve_run_prior(args, file_cfg, seed)
    if particles is not None:
        likelihood = _resolve_likelihood(args, file_cfg, particles.dim,
                                         lambda: _estimated_std(particles),
                                         f"std of the values in --prior file {args.prior}")
    else:
        likelihood = _resolve_likelihood(args, file_cfg, prior_cfg.n_dims,
                                         lambda: _generated_std(prior_cfg))
    oracle, oracle_echo = _resolve_oracle(args, file_cfg)
    cfg = _SAMPLERS[sampler].from_dict({**data, "likelihood": likelihood})
    if particles is None:
        particles = generate_prior(prior_cfg)
    # an oracle that does not fit the particles fails here, before the loop
    prior_rate = pass_rate(particles, oracle)
    n_steps = cfg.n_steps
    outdir = _output_dir(args.out, f"{sampler}-seed{seed}")

    if sampler == "smc":
        # posterior.csv is judged and formatted chunk by chunk while the loop
        # runs, so a failing oracle leaves none
        passing = 0

        def judge(rows):
            nonlocal passing
            passing += count_passing(ParticleSet._adopt(rows), oracle)

        header = [f"x{i}" for i in range(particles.dim)]
        _find_orjson()
        with CsvSink(outdir / "posterior.csv", header, judge) as sink:
            result = run_smc(particles, cfg, sink=sink)
        judged, posterior_rate = n_steps, passing / n_steps

        sums = result.weight_sum_series
        write_lines([range(n_steps), sums, result.ess_series], [
            (outdir / "plot-smc-weights.dat", "step,log_weight_sum,ess,delta",
             np.abs(np.diff(sums, prepend=np.nan))),
            (outdir / "diagnostics.csv", "step,log_weight_sum,ess", None)])
        diagnostics = {
            "n_steps": n_steps,
            "n_particles": particles.n,
            "final_log_weight_sum": float(result.weight_sum_series[-1]),
            "ess_final": float(result.ess_series[-1]),
            "ess_min": float(result.ess_series.min()),
            "ess_mean": float(result.ess_series.mean()),
        }
        if n_steps >= 2:
            deltas = weight_sum_delta_series(result.weight_sum_series)
            diagnostics["weight_updates_converging"] = weight_updates_converging(deltas)
            diagnostics["convergence_note"] = CONVERGENCE_NOTE
        config_echo = {"prior": prior_echo, "smc": cfg.to_dict(), "oracle": oracle_echo}
    else:
        result = run_mcmc(particles, cfg, trace_all_dims=bool(args.trace_all))
        judged, posterior_rate = result.chain.n, pass_rate(result.chain, oracle)
        # a summary that overflows fails here, before the first artifact
        diagnostics = {
            "n_steps": n_steps,
            "burn_in": cfg.burn_in,
            "chain_length": result.chain.n,
            "acceptance_rate": result.acceptance_rate,
        }
        if result.chain.n >= 2:
            diagnostics["trace_dim0_summary"] = trace_summary(result.trace_dim0, cfg.burn_in)
        config_echo = {"prior": prior_echo, "mcmc": cfg.to_dict(), "oracle": oracle_echo}

        _find_orjson()  # before the line tables, which precede posterior.csv
        write_lines([range(n_steps), result.trace_dim0], [
            (outdir / "plot-mcmc-trace.dat", "step,x0", None),
            (outdir / "diagnostics.csv", "step,x0,accepted_flag", result.accepted.astype(int))])
        if result.trace_full is not None:
            write_particles_csv(ParticleSet._adopt(result.trace_full),
                                outdir / "trace-full.csv")
        write_particles_csv(result.chain, outdir / "posterior.csv")

    oracle_calls = particles.n + judged
    write_report({
        "sampler": sampler,
        "seed": seed,
        "config_echo": config_echo,
        "prior_pass_rate": prior_rate,
        "posterior_pass_rate": posterior_rate,
        "oracle_calls": oracle_calls,
        "diagnostics": diagnostics,
    }, outdir / "report.json")

    print(f"{sampler} steps={n_steps} prior_pass_rate={prior_rate!r} "
          f"posterior_pass_rate={posterior_rate!r} oracle_calls={oracle_calls}")
    return EXIT_OK


def cmd_compare(args) -> int:
    file_cfg = _load_file_config(args.config)
    _require("seed" not in file_cfg.get("prior", {}),
             "compare does not read prior.seed: it derives the prior seed from --seed "
             "(seed + 1); remove the key from the config file")
    budget = args.budget
    data, seed = _sampler_section(file_cfg, "smc", args, n_steps=budget)
    oracle, oracle_echo = _resolve_oracle(args, file_cfg)

    prior_cfg = PriorConfig.from_dict(
        _section(file_cfg, "prior", args, seed=(seed + 1) % _SEED_MODULUS))
    # both arms hold budget x n_dims matrices; name the flag, not the fields it sets
    _check_rows("--budget", budget, prior_cfg.n_dims)
    likelihood = _resolve_likelihood(args, file_cfg, prior_cfg.n_dims,
                                     lambda: prior_cfg.std_dev)
    smc_cfg = SmcConfig.from_dict({**data, "likelihood": likelihood})

    # Arm 1: random sampling. Budget fresh draws from the prior construction,
    # every one of them oracle-evaluated.
    random_cfg = dataclasses.replace(prior_cfg, n_particles=budget,
                                     seed=(seed + 2) % _SEED_MODULUS)
    random_found = count_passing(generate_prior(random_cfg), oracle)

    # Arm 2: SMC. One posterior particle per step, so budget steps produce
    # exactly budget oracle-evaluated candidates; the small live population
    # itself is never oracle-evaluated.
    smc_result = run_smc(generate_prior(prior_cfg), smc_cfg)
    smc_found = count_passing(smc_result.posterior, oracle)

    rows = [
        ("random", budget, random_found, random_found / budget),
        ("smc", budget, smc_found, smc_found / budget),
    ]
    outdir = _output_dir(args.out, f"compare-seed{seed}")
    write_lines(list(zip(*rows)), [
        (outdir / "compare-table.csv", "method,oracle_calls,passing,pass_rate", None)])
    write_report({
        "kind": "compare",
        "seed": seed,
        "budget": budget,
        "config_echo": {"prior": prior_cfg.to_dict(), "random_prior": random_cfg.to_dict(),
                        "smc": smc_cfg.to_dict(), "oracle": oracle_echo},
        "results": [
            {"method": m, "oracle_calls": c, "passing": f, "pass_rate": r}
            for m, c, f, r in rows
        ],
    }, outdir / "report.json")

    print(f"{'method':<8} {'oracle_calls':>12} {'passing':>8} pass_rate")
    for method, calls, found, rate in rows:
        print(f"{method:<8} {calls:>12} {found:>8} {rate!r}")
    return EXIT_OK


def _interrupt_once(signum, frame):
    """Stop-signal handler while a command runs: the first signal interrupts
    it and every later one is ignored, so the temporary files are removed,
    the exit message printed and 128 + signum returned whatever more arrive."""
    for sig in _STOP_SIGNALS:
        if signal.getsignal(sig) == _interrupt_once:
            signal.signal(sig, signal.SIG_IGN)
    raise KeyboardInterrupt(signum)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    # Take each stop signal over only where its handler is the default (never
    # where it is ignored or the caller's own), and give it back on return.
    caller_handlers = {sig: signal.getsignal(sig) for sig in _STOP_SIGNALS}
    owned = [sig for sig, default in _STOP_SIGNALS.items() if caller_handlers[sig] == default
             and threading.current_thread() is threading.main_thread()]
    for sig in owned:
        signal.signal(sig, _interrupt_once)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"abc-fuzz: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OracleSpawnError, OracleTimeoutError, OSError, ImportError) as exc:
        print(f"abc-fuzz: environment error: {exc}", file=sys.stderr)
        return EXIT_ENVIRONMENT
    except MemoryError as exc:
        print(f"abc-fuzz: environment error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ENVIRONMENT
    except DegeneracyError as exc:
        step = f" (step {exc.step})" if exc.step is not None else ""
        print(f"abc-fuzz: degeneracy{step}: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY
    except KeyboardInterrupt as exc:
        # _interrupt_once names its signal; Python's own Ctrl-C handler does not
        signum = exc.args[0] if exc.args else signal.SIGINT
        print(f"abc-fuzz: {'interrupted' if signum == signal.SIGINT else 'terminated'}",
              file=sys.stderr)
        return 128 + signum
    finally:
        for sig in owned:
            signal.signal(sig, caller_handlers[sig])


if __name__ == "__main__":
    sys.exit(main())
