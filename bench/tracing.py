"""Traced in-process run of the abc-fuzz CLI, and the per-layer metrics read from it.

As a script it imports ``abcfuzz.cli`` (timing the import), wraps the layer
entry points at the names their callers look them up by, calls
``abcfuzz.cli.main(argv)`` in this process and writes every span once, at
exit, to a JSON file:

    python3 bench/tracing.py SPANS_FILE CLI_ARG...

A span is ``[name, start, end, parent, info]``: ``parent`` is the index of
the enclosing span (-1 for the root) and ``info`` a count taken from the
call (draws, rows, bytes, a verdict) or the name of the exception it
raised. ``summarize`` turns one spans file into the per-layer metrics;
``bench/run.py`` imports it. Nothing under ``src/`` is edited: the wrappers
are installed on the imported modules only.
"""

import json
import os
import sys
import time

# Exceptions that count as oracle errors: a child that timed out or could
# not be started.
ORACLE_ERRORS = ("OracleTimeoutError", "OracleSpawnError")


class Tracer:
    """Spans kept in memory; the open ones form a stack of parents."""

    def __init__(self):
        self.spans = []
        self.particle_objects = 0
        self._open = []

    def wrap(self, name, fn, info=None):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[4] = type(exc).__name__
                raise
            finally:
                open_spans.pop()
            span[2] = clock()
            if info is not None:
                span[4] = info(args, result)
            return result

        return traced

    def dump(self, path, import_s):
        # json.dumps encodes in C; json.dump to a file would encode in Python.
        payload = json.dumps({"import_s": import_s, "particle_objects": self.particle_objects,
                              "spans": self.spans})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _file_size(position):
    return lambda args, result: os.path.getsize(args[position])


def _smc_info(args, result):
    # [steps, mean ESS / population size]
    return [int(result.ess_series.size), float(result.ess_series.mean()) / args[0].n]


def _mcmc_info(args, result):
    # [steps, acceptance ratio]
    return [int(result.trace_dim0.size), result.acceptance_rate]


def _draws(args, result):
    return getattr(result, "size", 1)  # an array of draws, or one float


def _verdict(args, result):
    return int(result.passed)


def install(tracer):
    """Wrap every layer entry point the CLI reaches."""
    from abcfuzz import cli, core, mcmc, oracle, smc

    probes = [
        (cli, "run_smc", "smc.run", _smc_info),
        (cli, "run_mcmc", "mcmc.run", _mcmc_info),
        (cli, "generate_prior", "prior.generate", lambda args, result: result.n),
        (cli, "read_particles_csv", "report.read", _file_size(0)),
        (cli, "write_csv", "report.write", _file_size(0)),
        (cli, "write_json", "report.write", _file_size(1)),
        (cli, "write_particles_csv", "report.write", _file_size(1)),
        (cli, "write_report", "report.write", _file_size(1)),
        (cli, "emit_plot_data", "report.write", _file_size(2)),
        (cli, "weight_sum_delta_series", "diagnostics", None),
        (cli, "weight_updates_converging", "diagnostics", None),
        (cli, "trace_summary", "diagnostics", None),
        (cli, "pass_rate", "oracle.pass_rate", None),
        (smc, "pass_rate", "oracle.pass_rate", None),
        (mcmc, "pass_rate", "oracle.pass_rate", None),
        (smc, "log_likelihood_values", "likelihood", lambda args, result: len(result)),
        (mcmc, "log_likelihood_values", "likelihood", lambda args, result: len(result)),
        (smc, "normalize_log_weights", "smc.normalize", None),
        (smc, "systematic_resample", "smc.resample", None),
        (mcmc, "accept_probability", "mcmc.accept", None),
        (core.RandomSource, "uniform", "core.rng", _draws),
        (core.RandomSource, "standard_normal", "core.rng", _draws),
        (oracle.RangeOracle, "__call__", "oracle.call", _verdict),
        (oracle.ExternalOracle, "__call__", "oracle.call", _verdict),
    ]
    for owner, attribute, name, info in probes:
        setattr(owner, attribute, tracer.wrap(name, getattr(owner, attribute), info))

    # Particle objects built by ParticleSet iteration and indexing.
    particle_set = core.ParticleSet
    iterate, index = particle_set.__iter__, particle_set.__getitem__

    def counted_iter(self):
        for particle in iterate(self):
            tracer.particle_objects += 1
            yield particle

    def counted_getitem(self, i):
        tracer.particle_objects += 1
        return index(self, i)

    particle_set.__iter__ = counted_iter
    particle_set.__getitem__ = counted_getitem
    return cli


def summarize(trace):
    """Per-layer metrics of one traced invocation (a loaded spans file)."""
    spans = trace["spans"]
    duration = [end - start for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += duration[i]

    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def named(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(duration[i] for i in named(name))

    def self_time(name):
        return sum(duration[i] - covered[i] for i in named(name))

    def info_sum(name, position=None):
        return sum((spans[i][4] if position is None else spans[i][4][position])
                   for i in named(name) if not isinstance(spans[i][4], str))

    def is_oracle(i):
        return spans[i][0].startswith("oracle.")

    def sampler_metrics(layer):
        runs = set(named(f"{layer}.run"))
        steps = info_sum(f"{layer}.run", 0)
        # Loop time: the run minus the oracle evaluation of its prior and output.
        loop = sum(duration[i] for i in runs) - sum(
            duration[j] for j, span in enumerate(spans) if span[3] in runs and is_oracle(j))
        ratios = [spans[i][4][1] for i in runs if not isinstance(spans[i][4], str)]
        return steps, loop, (sum(ratios) / len(ratios) if ratios else 0.0)

    calls = named("oracle.call")
    passes = info_sum("oracle.call")
    oracle_busy = sum(duration[i] for i in range(len(spans))
                      if is_oracle(i) and not (spans[i][3] >= 0 and is_oracle(spans[i][3])))
    smc_steps, smc_loop, ess_ratio = sampler_metrics("smc")
    mcmc_steps, mcmc_loop, accept_ratio = sampler_metrics("mcmc")
    rng = named("core.rng")
    likelihood = named("likelihood")
    return {
        "cli.import_s": trace["import_s"],
        "cli.self_s": self_time("cli.main"),
        "core.rng.calls": len(rng),
        "core.rng.draws": info_sum("core.rng"),
        "core.rng.busy_s": busy("core.rng"),
        "core.particle.objects": trace["particle_objects"],
        "prior.generate.busy_s": busy("prior.generate"),
        "prior.generate.particles": info_sum("prior.generate"),
        "likelihood.calls": len(likelihood),
        "likelihood.rows": info_sum("likelihood"),
        "likelihood.busy_s": busy("likelihood"),
        "smc.steps": smc_steps,
        "smc.self_s": self_time("smc.run"),
        "smc.normalize.busy_s": busy("smc.normalize"),
        "smc.resample.busy_s": busy("smc.resample"),
        "smc.steps_per_s": smc_steps / smc_loop if smc_loop > 0 else 0.0,
        "smc.ess_ratio": ess_ratio,
        "mcmc.steps": mcmc_steps,
        "mcmc.self_s": self_time("mcmc.run"),
        "mcmc.accept.busy_s": busy("mcmc.accept"),
        "mcmc.steps_per_s": mcmc_steps / mcmc_loop if mcmc_loop > 0 else 0.0,
        "mcmc.accept_ratio": accept_ratio,
        "oracle.calls": len(calls),
        "oracle.passes": passes,
        "oracle.pass_ratio": passes / len(calls) if calls else 0.0,
        "oracle.busy_s": oracle_busy,
        "oracle.calls_per_s": len(calls) / oracle_busy if oracle_busy > 0 else 0.0,
        "oracle.errors": sum(1 for i in calls if spans[i][4] in ORACLE_ERRORS),
        "diagnostics.busy_s": busy("diagnostics"),
        "report.write.busy_s": busy("report.write"),
        "report.write.bytes": info_sum("report.write"),
        "report.read.busy_s": busy("report.read"),
        "report.read.bytes": info_sum("report.read"),
    }


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import abcfuzz.cli  # noqa: F401  (timed: interpreter-side import cost)
    import_s = time.perf_counter() - start
    tracer = Tracer()
    cli = install(tracer)
    try:
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        tracer.dump(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main())
