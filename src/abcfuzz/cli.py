"""Command-line entry point: abc-fuzz <gen-prior|run|compare>.

Flag values override config-file values, which override built-in defaults;
the fully resolved configuration is echoed into every report.json so each
printed number can be reproduced. Exit codes are a stable contract:
0 success, 2 usage/config error, 3 IO or environment failure, 4 numerical
degeneracy.
"""

import argparse
import math
import os
import shlex
import sys
from pathlib import Path

import numpy as np

from .core import (
    ConfigError,
    DegeneracyError,
    ENGINE_VERSION,
    LikelihoodConfig,
    McmcConfig,
    Particle,
    ParticleSet,
    PriorConfig,
    SmcConfig,
    _reject_unknown_keys,
    load_config_file,
)
from .diagnostics import (
    CONVERGENCE_NOTE,
    trace_summary,
    weight_sum_delta_series,
    weight_updates_converging,
)
from .mcmc import run_mcmc
from .oracle import (
    CountingOracle,
    ExternalOracle,
    OracleSpawnError,
    OracleTimeoutError,
    RangeOracle,
    RangeOracleConfig,
    pass_rate,
)
from .prior import generate_prior, slice_indices
from .report import (
    PLOT_KINDS,
    RunReport,
    emit_plot_data,
    read_particles_csv,
    utc_now_iso,
    write_csv,
    write_json,
    write_particles_csv,
    write_report,
)
from .smc import run_smc

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ENVIRONMENT = 3
EXIT_DEGENERACY = 4

_SEED_MODULUS = 2**64

_ORACLE_SECTION_KEYS = ("kind", "low", "high", "dimension", "command", "timeout")
_SMC_SECTION_KEYS = ("n_steps", "step_std", "seed")
_MCMC_SECTION_KEYS = ("n_steps", "burn_in", "step_std", "initial_index", "seed")
_PRIOR_SECTION_KEYS = ("n_particles", "n_dims", "mean", "std_dev", "zero_fraction", "seed")
_LIKELIHOOD_SECTION_KEYS = ("target", "alpha", "scale")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError("must be a finite nonnegative number")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError("must be a finite positive number")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be a finite number")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError("must lie in [0, 1]")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < _SEED_MODULUS:
        raise argparse.ArgumentTypeError("must fit in 64 unsigned bits")
    return value


def _merged(flag_value, section: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    if key in section:
        return section[key]
    return default


def _load_file_config(path) -> dict:
    if path is None:
        return {}
    data = load_config_file(path)
    checks = {
        "prior": _PRIOR_SECTION_KEYS,
        "likelihood": _LIKELIHOOD_SECTION_KEYS,
        "smc": _SMC_SECTION_KEYS,
        "mcmc": _MCMC_SECTION_KEYS,
        "oracle": _ORACLE_SECTION_KEYS,
    }
    for section, allowed in checks.items():
        if section in data:
            _reject_unknown_keys(section, data[section], allowed)
    return data


def _output_dir(out_flag, run_id: str) -> Path:
    if out_flag is not None:
        path = Path(out_flag)
    else:
        path = Path(os.environ.get("ABC_FUZZ_OUT", "out")) / run_id
    path.mkdir(parents=True, exist_ok=True)
    return path


def _add_config_flags(parser):
    parser.add_argument("--config", metavar="FILE",
                        help="JSON config file; flags override its values")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (default: <root>/<run-id>/, root from "
                             "$ABC_FUZZ_OUT or ./out)")


def _add_prior_flags(parser):
    parser.add_argument("--n", type=_positive_int, help="prior particle count (default 10)")
    parser.add_argument("--dims", type=_positive_int,
                        help="particle dimensionality (default 100)")
    parser.add_argument("--mean", type=_finite_float, help="prior mean (default 0)")
    parser.add_argument("--std", type=_nonnegative_float,
                        help="prior standard deviation (default 10)")
    parser.add_argument("--zero-fraction", type=_fraction,
                        help="fraction of particles with dimension 0 forced to 0 (default 0.3)")


def _add_likelihood_flags(parser):
    parser.add_argument("--alpha", type=_nonnegative_float,
                        help="first-dimension penalty weight (default 1.0)")
    parser.add_argument("--scale", type=_positive_float,
                        help="distance normalizer (default sqrt(dims) * prior std)")
    parser.add_argument("--target", metavar="origin|FILE",
                        help="likelihood target point: 'origin' or a one-particle CSV "
                             "(default origin)")


def _add_oracle_flags(parser):
    parser.add_argument("--oracle", metavar="range|exec:CMD",
                        help="pass/fail oracle: in-process range check, or an external "
                             "command judged by exit status (default range)")
    parser.add_argument("--oracle-timeout", type=_positive_float, metavar="SEC",
                        help="kill external oracle commands after SEC seconds (default 5)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abc-fuzz",
        description="Particle-based inference engine that steers fuzz-test inputs "
                    "toward a target's passing region.")
    parser.add_argument("--version", action="version", version=f"abc-fuzz {ENGINE_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-prior", help="generate the Gaussian prior population")
    _add_prior_flags(gen)
    gen.add_argument("--seed", type=_seed, help="prior generation seed (default 0)")
    _add_config_flags(gen)
    gen.set_defaults(func=cmd_gen_prior)

    run = sub.add_parser("run", help="run a sampler against an oracle")
    run.add_argument("sampler", choices=("smc", "mcmc"))
    run.add_argument("--prior", metavar="FILE",
                     help="load the prior from a particle CSV instead of generating it")
    _add_prior_flags(run)
    run.add_argument("--prior-seed", type=_seed,
                     help="seed for the generated prior (default: sampler seed + 1)")
    run.add_argument("--steps", type=_positive_int, help="sampler steps (default 1000)")
    run.add_argument("--burn-in", type=_nonnegative_int,
                     help="mcmc only: steps discarded before the chain (default 100)")
    run.add_argument("--step-std", type=_nonnegative_float,
                     help="random-walk proposal std per dimension (default 0.5)")
    run.add_argument("--initial-index", type=_nonnegative_int,
                     help="mcmc only: prior index of the starting state "
                          "(default: random prior particle)")
    run.add_argument("--trace-all", action="store_true", default=None,
                     help="mcmc only: also record every state in full dimension")
    _add_likelihood_flags(run)
    run.add_argument("--seed", type=_seed, help="sampler seed (default 0)")
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
                      help="random-walk proposal std per dimension (default 0.5)")
    _add_likelihood_flags(comp)
    comp.add_argument("--seed", type=_seed,
                      help="base seed; the SMC run uses it, the prior and the random "
                           "baseline use seed+1 and seed+2 (default 0)")
    _add_oracle_flags(comp)
    _add_config_flags(comp)
    comp.set_defaults(func=cmd_compare)

    return parser


def _resolve_prior_config(args, file_cfg: dict, seed: int) -> PriorConfig:
    section = file_cfg.get("prior", {})
    return PriorConfig(
        n_particles=_merged(args.n, section, "n_particles", 10),
        n_dims=_merged(args.dims, section, "n_dims", 100),
        mean=_merged(args.mean, section, "mean", 0.0),
        std_dev=_merged(args.std, section, "std_dev", 10.0),
        zero_fraction=_merged(args.zero_fraction, section, "zero_fraction", 0.3),
        seed=seed,
    )


def _resolve_target(spec, n_dims: int) -> Particle:
    if spec is None or spec == "origin":
        return Particle(np.zeros(n_dims))
    if isinstance(spec, (list, tuple)):
        return Particle(spec)
    target_set = read_particles_csv(spec)
    if target_set.n != 1:
        raise ConfigError(
            f"target file {spec} must contain exactly one particle, got {target_set.n}")
    return target_set[0]


def _resolve_likelihood(args, file_cfg: dict, n_dims: int, prior_std: float) -> LikelihoodConfig:
    section = file_cfg.get("likelihood", {})
    target = _resolve_target(_merged(args.target, section, "target", None), n_dims)
    if target.dim != n_dims:
        raise ConfigError(
            f"--target has {target.dim} dims but the prior has {n_dims}")
    return LikelihoodConfig.for_prior(
        n_dims, prior_std,
        alpha=_merged(args.alpha, section, "alpha", 1.0),
        scale=_merged(args.scale, section, "scale", None),
        target=target,
    )


def _resolve_oracle(args, file_cfg: dict):
    """Build the oracle callable plus its config echo for the report."""
    section = file_cfg.get("oracle", {})
    spec = args.oracle
    if spec is None:
        kind = section.get("kind", "range")
        command = section.get("command")
    elif spec == "range":
        kind, command = "range", None
    elif spec.startswith("exec:"):
        kind, command = "exec", spec[len("exec:"):]
    else:
        raise ConfigError(f"--oracle must be 'range' or 'exec:<command>', got {spec!r}")

    if kind == "range":
        cfg = RangeOracleConfig(
            low=section.get("low", -0.5),
            high=section.get("high", 0.5),
            dimension=section.get("dimension", 0),
        )
        return RangeOracle(cfg), {"kind": "range", **cfg.to_dict()}
    if kind != "exec":
        raise ConfigError(f"oracle kind must be 'range' or 'exec', got {kind!r}")
    if not command:
        raise ConfigError("exec oracle needs a command")
    timeout = _merged(args.oracle_timeout, section, "timeout", 5.0)
    try:
        argv = tuple(shlex.split(command))
    except ValueError as exc:
        raise ConfigError(f"exec oracle command {command!r} does not parse: {exc}") from exc
    return (ExternalOracle(argv, timeout=timeout),
            {"kind": "exec", "command": command, "timeout": timeout})


def _estimated_std(particles: ParticleSet) -> float:
    value = float(particles.values.std())
    return value if value > 0 else 1.0


def cmd_gen_prior(args) -> int:
    file_cfg = _load_file_config(args.config)
    seed = _merged(args.seed, file_cfg.get("prior", {}), "seed", 0)
    cfg = _resolve_prior_config(args, file_cfg, seed)
    particles = generate_prior(cfg)
    indices = slice_indices(cfg)

    oracle_cfg = RangeOracleConfig()
    counting = CountingOracle(RangeOracle(oracle_cfg))
    rate = pass_rate(particles, counting)

    outdir = _output_dir(args.out, f"gen-prior-seed{cfg.seed}")
    write_particles_csv(particles, outdir / "prior.csv")
    write_csv(outdir / "slice-indices.csv", ["index"], ((i,) for i in sorted(indices)))
    emit_plot_data(particles, "prior-histogram-data",
                   outdir / PLOT_KINDS["prior-histogram-data"], slice_indices=indices)
    if particles.dim >= 4:
        emit_plot_data(particles, "dims-1-3-surface-data",
                       outdir / PLOT_KINDS["dims-1-3-surface-data"])

    write_json({
        "kind": "prior",
        "engine_version": ENGINE_VERSION,
        "timestamp": utc_now_iso(),
        "seed": cfg.seed,
        "config_echo": {"prior": cfg.to_dict(), "oracle": {"kind": "range", **oracle_cfg.to_dict()}},
        "pass_rate": rate,
        "oracle_calls": counting.calls,
        "slice_indices": sorted(indices),
    }, outdir / "report.json")

    print(f"prior pass rate: {rate!r} (n={cfg.n_particles}, oracle=range)")
    print(f"wrote {outdir}")
    return EXIT_OK


def _resolve_run_prior(args, file_cfg: dict, sampler_seed: int):
    """Prior particles plus their config echo, from a file or generated inline."""
    if args.prior is not None:
        particles = read_particles_csv(args.prior)
        echo = {"file": str(args.prior), "n_particles": particles.n,
                "n_dims": particles.dim}
        return particles, echo, _estimated_std(particles)
    default_seed = (sampler_seed + 1) % _SEED_MODULUS
    seed = _merged(args.prior_seed, file_cfg.get("prior", {}), "seed", default_seed)
    cfg = _resolve_prior_config(args, file_cfg, seed)
    return generate_prior(cfg), cfg.to_dict(), cfg.std_dev


def cmd_run(args) -> int:
    file_cfg = _load_file_config(args.config)
    sampler = args.sampler
    if sampler == "smc":
        for flag, name in ((args.burn_in, "--burn-in"),
                           (args.initial_index, "--initial-index"),
                           (args.trace_all, "--trace-all")):
            if flag is not None:
                raise ConfigError(f"{name} only applies to mcmc")

    section = file_cfg.get(sampler, {})
    seed = _merged(args.seed, section, "seed", 0)
    particles, prior_echo, prior_std = _resolve_run_prior(args, file_cfg, seed)
    likelihood = _resolve_likelihood(args, file_cfg, particles.dim, prior_std)
    oracle, oracle_echo = _resolve_oracle(args, file_cfg)

    n_steps = _merged(args.steps, section, "n_steps", 1000)
    step_std = _merged(args.step_std, section, "step_std", 0.5)
    outdir = _output_dir(args.out, f"{sampler}-seed{seed}")

    if sampler == "smc":
        cfg = SmcConfig(likelihood=likelihood, n_steps=n_steps, step_std=step_std, seed=seed)
        result = run_smc(particles, cfg, oracle)
        posterior = result.posterior
        posterior_rate = result.posterior_pass_rate

        write_csv(outdir / "diagnostics.csv", ["step", "log_weight_sum", "ess"],
                  zip(range(n_steps), result.weight_sum_series, result.ess_series))
        emit_plot_data(result, "smc-weights-data", outdir / PLOT_KINDS["smc-weights-data"])
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
        cfg = McmcConfig(
            likelihood=likelihood,
            n_steps=n_steps,
            burn_in=_merged(args.burn_in, section, "burn_in", 100),
            step_std=step_std,
            initial_index=_merged(args.initial_index, section, "initial_index", None),
            seed=seed,
        )
        result = run_mcmc(particles, cfg, oracle,
                          trace_all_dims=bool(args.trace_all))
        posterior = result.chain
        posterior_rate = result.chain_pass_rate

        write_csv(outdir / "diagnostics.csv", ["step", "x0", "accepted_flag"],
                  zip(range(n_steps), result.trace_dim0, result.accepted.astype(int)))
        emit_plot_data(result, "mcmc-trace-data", outdir / PLOT_KINDS["mcmc-trace-data"])
        if result.trace_full is not None:
            write_particles_csv(ParticleSet(result.trace_full), outdir / "trace-full.csv")
        diagnostics = {
            "n_steps": n_steps,
            "burn_in": cfg.burn_in,
            "chain_length": posterior.n,
            "acceptance_rate": result.acceptance_rate,
        }
        if posterior.n >= 2:
            diagnostics["trace_dim0_summary"] = trace_summary(
                result.trace_dim0, cfg.burn_in).to_dict()
        config_echo = {"prior": prior_echo, "mcmc": cfg.to_dict(), "oracle": oracle_echo}

    write_particles_csv(posterior, outdir / "posterior.csv")
    report = RunReport(
        sampler=sampler,
        seed=seed,
        config_echo=config_echo,
        prior_pass_rate=result.prior_pass_rate,
        posterior_pass_rate=posterior_rate,
        oracle_calls=result.oracle_calls,
        diagnostics=diagnostics,
    )
    write_report(report, outdir / "report.json")

    print(f"{sampler} steps={n_steps} prior_pass_rate={result.prior_pass_rate!r} "
          f"posterior_pass_rate={posterior_rate!r} oracle_calls={result.oracle_calls}")
    return EXIT_OK


def _count_passing(particles: ParticleSet, oracle) -> int:
    return sum(1 for p in particles if oracle(p).passed)


def cmd_compare(args) -> int:
    file_cfg = _load_file_config(args.config)
    budget = args.budget
    seed = _merged(args.seed, file_cfg.get("smc", {}), "seed", 0)
    oracle, oracle_echo = _resolve_oracle(args, file_cfg)

    prior_cfg = _resolve_prior_config(args, file_cfg, (seed + 1) % _SEED_MODULUS)
    likelihood = _resolve_likelihood(args, file_cfg, prior_cfg.n_dims, prior_cfg.std_dev)

    # Arm 1: random sampling. Budget fresh draws from the prior construction,
    # every one of them oracle-evaluated.
    random_cfg = PriorConfig(
        n_particles=budget,
        n_dims=prior_cfg.n_dims,
        mean=prior_cfg.mean,
        std_dev=prior_cfg.std_dev,
        zero_fraction=prior_cfg.zero_fraction,
        seed=(seed + 2) % _SEED_MODULUS,
    )
    random_counting = CountingOracle(oracle)
    random_found = _count_passing(generate_prior(random_cfg), random_counting)

    # Arm 2: SMC. One posterior particle per step, so budget steps produce
    # exactly budget oracle-evaluated candidates; the small live population
    # itself is never oracle-evaluated.
    section = file_cfg.get("smc", {})
    smc_cfg = SmcConfig(
        likelihood=likelihood,
        n_steps=budget,
        step_std=_merged(args.step_std, section, "step_std", 0.5),
        seed=seed,
    )
    smc_result = run_smc(generate_prior(prior_cfg), smc_cfg, oracle=None)
    smc_counting = CountingOracle(oracle)
    smc_found = _count_passing(smc_result.posterior, smc_counting)

    rows = [
        ("random", random_counting.calls, random_found, random_found / budget),
        ("smc", smc_counting.calls, smc_found, smc_found / budget),
    ]
    outdir = _output_dir(args.out, f"compare-seed{seed}")
    write_csv(outdir / "compare-table.csv",
              ["method", "oracle_calls", "passing", "pass_rate"], rows)
    write_json({
        "kind": "compare",
        "engine_version": ENGINE_VERSION,
        "timestamp": utc_now_iso(),
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"abc-fuzz: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OracleSpawnError, OracleTimeoutError, OSError) as exc:
        print(f"abc-fuzz: environment error: {exc}", file=sys.stderr)
        return EXIT_ENVIRONMENT
    except DegeneracyError as exc:
        step = f" (step {exc.step})" if exc.step is not None else ""
        print(f"abc-fuzz: degeneracy{step}: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY


if __name__ == "__main__":
    sys.exit(main())
