"""Benchmark of the abc-fuzz CLI: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload smc-default --seed 1 --seconds 55 --trace 0

Load comes from one closed-loop client: each CLI invocation starts only
after the previous one has exited, so the only other processes are the
children an ``exec:`` oracle spawns, one at a time. The program runs from
``src/`` of this checkout and receives only the files and flags generated
here from ``--seed``.

``--trace 0`` times untraced invocations for ``--seconds`` and prints the
end-to-end metrics. ``--trace 1`` alternates untraced invocations with
traced in-process ones (``bench/tracing.py``) and prints the per-layer
metrics, each the median over the traced invocations. Every invocation's
outputs are checked; an invocation fails on a nonzero exit, a traceback
or a failed check, and ``fail_ratio`` = failed / attempted. The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

CORPUS = "<corpus>"  # stands for the generated corpus path in a workload's arguments
EXEC_ORACLE = "exec:awk 'NR==1{exit !($1>=-0.5 && $1<=0.5)}'"
RANGE_LOW, RANGE_HIGH = -0.5, 0.5  # the default range oracle band, which EXEC_ORACLE repeats

# Corpus for mcmc-corpus: the paper's default prior shape, scaled up.
CORPUS_ROWS, CORPUS_DIMS, CORPUS_STD, CORPUS_ZERO_FRACTION = 20000, 100, 10.0, 0.3

INVOCATION_TIMEOUT_S = 60  # a hung invocation is killed and counted as failed
LOOP_LIMIT_S = 90          # no invocation starts after this, whatever --seconds says


@dataclass(frozen=True)
class Workload:
    args: tuple             # CLI arguments; each invocation appends --seed and --out
    oracle_calls: int       # expected `oracle_calls` in report.json
    artifacts: tuple        # files that must be byte-identical at one seed
    posterior_rows: int = 0  # rows of posterior.csv; 0 for compare


WORKLOADS = {
    # The paper's headline sampler at its default shape: SMC loop and posterior.csv writer.
    "smc-default": Workload(
        ("run", "smc", "--steps", "20000"), 20010,
        ("posterior.csv", "diagnostics.csv"), 20000),
    # A chain seeded from an existing corpus: the only user of the mcmc loop and CSV read.
    "mcmc-corpus": Workload(
        ("run", "mcmc", "--prior", CORPUS, "--steps", "40000", "--burn-in", "30000"),
        30000, ("posterior.csv", "diagnostics.csv"), 10000),
    # The README's black-box oracle: one child process per verdict, samplers nearly idle.
    # Not listed in BENCHMARK.json: ExternalOracle waits for each child with
    # subprocess's timeout polling, which sleeps 1 ms, then 2 ms, ...; a child
    # that misses the 1 ms check costs 3.5 ms instead of 1.5 ms, so wall time
    # follows how often the host delays a child by a fraction of a millisecond.
    "compare-exec": Workload(
        ("compare", "--budget", "1000", "--oracle", EXEC_ORACLE), 2000,
        ("compare-table.csv",)),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "inputs_per_s": "1/s",
    "passing_per_s": "1/s",
    "pass_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.self_s": "s",
    "core.rng.calls": "count", "core.rng.draws": "count", "core.rng.busy_s": "s",
    "core.particle.objects": "count",
    "prior.generate.busy_s": "s", "prior.generate.particles": "count",
    "likelihood.calls": "count", "likelihood.rows": "count", "likelihood.busy_s": "s",
    "smc.steps": "count", "smc.self_s": "s", "smc.normalize.busy_s": "s",
    "smc.resample.busy_s": "s", "smc.steps_per_s": "1/s", "smc.ess_ratio": "ratio",
    "mcmc.steps": "count", "mcmc.self_s": "s", "mcmc.accept.busy_s": "s",
    "mcmc.steps_per_s": "1/s", "mcmc.accept_ratio": "ratio",
    "oracle.calls": "count", "oracle.passes": "count", "oracle.pass_ratio": "ratio",
    "oracle.busy_s": "s", "oracle.calls_per_s": "1/s", "oracle.errors": "count",
    "diagnostics.busy_s": "s",
    "report.write.busy_s": "s", "report.write.bytes": "bytes",
    "report.read.busy_s": "s", "report.read.bytes": "bytes",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    calls: int       # oracle calls from report.json (both arms for compare)
    passing: int     # passing oracle verdicts, prior and posterior (the SMC arm for compare)
    pass_rate: float


@dataclass
class Checker:
    """Checks each invocation's outputs; remembers digests per CLI seed."""

    workload: Workload
    reference: dict = field(default_factory=dict)  # seed -> range-oracle compare counts
    digests: dict = field(default_factory=dict)    # seed -> artifact digests
    corpus: tuple = ()  # (rows, rows with x0 in the band) of the generated corpus

    def check(self, seed, outdir, code, stderr) -> tuple:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if "Traceback" in stderr:
            problems.append("traceback on stderr")
        if problems:
            return problems, 0, 0, 0.0
        report = json.loads((outdir / "report.json").read_text())
        if self.workload.posterior_rows:
            calls, rate = report["oracle_calls"], report["posterior_pass_rate"]
            rows, passing = recount_x0(outdir / "posterior.csv")
            if rows != self.workload.posterior_rows:
                problems.append(f"posterior.csv has {rows} rows")
            if passing / rows != rate:
                problems.append(f"x0 recount {passing}/{rows} != pass rate {rate!r}")
            prior_rate = report["prior_pass_rate"]
            if self.corpus and self.corpus[1] / self.corpus[0] != prior_rate:
                problems.append(f"corpus x0 recount {self.corpus} != prior pass rate "
                                f"{prior_rate!r}")
            passing += round(prior_rate * report["config_echo"]["prior"]["n_particles"])
        else:
            arms = {arm["method"]: arm for arm in report["results"]}
            calls = sum(arm["oracle_calls"] for arm in arms.values())
            passing, rate = arms["smc"]["passing"], arms["smc"]["pass_rate"]
            counts = {m: arm["passing"] for m, arm in arms.items()}
            if counts != self.reference.get(seed):
                problems.append(f"exec oracle counts {counts} != range oracle "
                                f"{self.reference.get(seed)}")
        if calls != self.workload.oracle_calls:
            problems.append(f"oracle_calls {calls} != {self.workload.oracle_calls}")
        digests = {name: sha256(outdir / name) for name in self.workload.artifacts}
        if self.digests.setdefault(seed, digests) != digests:
            problems.append("outputs differ from an earlier invocation at the same seed")
        return problems, calls, passing, rate


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def recount_x0(path) -> tuple:
    """Rows of a particle CSV, and how many have x0 in the range band."""
    rows = passing = 0
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            rows += 1
            if RANGE_LOW <= float(line.split(",", 1)[0]) <= RANGE_HIGH:
                passing += 1
    return rows, passing


def write_corpus(path, seed) -> int:
    """20000x100 Gaussian corpus, 30% of rows with x0 = 0; returns its size."""
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, CORPUS_STD, (CORPUS_ROWS, CORPUS_DIMS))
    values[:int(CORPUS_ZERO_FRACTION * CORPUS_ROWS), 0] = 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{i}" for i in range(CORPUS_DIMS)) + "\n")
        for row in values.tolist():
            fh.write(",".join(map(repr, row)) + "\n")
    return os.path.getsize(path)


def spawn(argv, cwd, env) -> tuple:
    """Run one child to completion: (wall seconds, max RSS in MB, exit code, stdout, stderr)."""
    with open(cwd / "stdout.log", "w+b") as out, open(cwd / "stderr.log", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted (e.g. SIGTERM): leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (wall, usage.ru_maxrss / 1024.0, proc.returncode,
                out.read().decode(errors="replace"), err.read().decode(errors="replace"))


class Runner:
    def __init__(self, name, seed):
        self.name = name
        self.workload = WORKLOADS[name]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        words = np.random.SeedSequence(seed).generate_state(3)
        self.cli_seeds = [int(words[0]), int(words[1])]
        self.corpus_seed = int(words[2])
        self.checker = Checker(self.workload)
        self.attempted = 0
        self.failed = 0
        self.meta = {}
        self.samples = []  # wall seconds of each timed invocation

    def cli_argv(self, seed, outdir) -> list:
        corpus = str(self.work / "corpus.csv")
        args = [corpus if a == CORPUS else a for a in self.workload.args]
        return args + ["--seed", str(seed), "--out", str(outdir)]

    def prepare(self, seeds):
        if CORPUS in self.workload.args:
            corpus = self.work / "corpus.csv"
            self.meta["corpus_bytes"] = write_corpus(corpus, self.corpus_seed)
            self.checker.corpus = recount_x0(corpus)
        if EXEC_ORACLE in self.workload.args:
            # The same run with the range oracle gives the passing counts the
            # exec oracle must match.
            for seed in seeds:
                outdir = self.work / f"reference-{seed}"
                argv = [a for a in self.cli_argv(seed, outdir)
                        if a not in ("--oracle", EXEC_ORACLE)]
                _, _, code, _, stderr = spawn(self.program(argv), self.work, self.env)
                self.attempted += 1
                try:
                    if code != 0 or "Traceback" in stderr:
                        raise ValueError(f"exit code {code}")
                    report = json.loads((outdir / "report.json").read_text())
                    self.checker.reference[seed] = {
                        arm["method"]: arm["passing"] for arm in report["results"]}
                except (OSError, ValueError, KeyError) as exc:
                    self.failed += 1
                    print(f"range-oracle reference failed (seed {seed}): {exc!r}",
                          file=sys.stderr)

    def program(self, args) -> list:
        return [sys.executable, "-m", "abcfuzz.cli", *args]

    def invoke(self, seed, traced=False) -> Invocation:
        outdir = self.work / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        args = self.cli_argv(seed, outdir)
        spans = self.work / "spans.json"
        argv = ([sys.executable, str(BENCH / "tracing.py"), str(spans), *args]
                if traced else self.program(args))
        wall, rss, code, _, stderr = spawn(argv, self.work, self.env)
        try:
            problems, calls, passing, rate = self.checker.check(seed, outdir, code, stderr)
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            problems, calls, passing, rate = [f"unreadable output: {exc!r}"], 0, 0, 0.0
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"check failed ({self.name}, seed {seed}): {'; '.join(problems)}",
                  file=sys.stderr)
        return Invocation(wall, rss, calls, passing, rate)

    def setup_time(self) -> float:
        """Wall time of `abc-fuzz --version`: interpreter start, imports, parser."""
        wall, _, code, stdout, stderr = spawn(self.program(["--version"]), self.work, self.env)
        self.attempted += 1
        if code != 0 or not stdout.startswith("abc-fuzz ") or "Traceback" in stderr:
            self.failed += 1
            print(f"--version failed: exit code {code}", file=sys.stderr)
        return wall

    def end_to_end(self, seconds) -> dict:
        self.prepare(self.cli_seeds)
        self.setup_time()  # warms the caches, untimed
        runs, rates, setup, lengths = [], {}, [], []
        start = time.perf_counter()
        # Seeds A A B B A A ...: each pair checks byte-identical outputs, and
        # pass_rate averages both seeds. One set-up sample follows each
        # invocation, so both are spread over the same stretch of time.
        while more(start, lengths, 4, seconds):
            seed = self.cli_seeds[(len(runs) // 2) % 2]
            run = self.invoke(seed)
            runs.append(run)
            rates[seed] = run.pass_rate
            setup.append(self.setup_time())
            lengths.append(run.wall_s + setup[-1])
        self.samples = [r.wall_s for r in runs]
        return {
            "wall_s": statistics.median(r.wall_s for r in runs),
            "inputs_per_s": statistics.median(r.calls / r.wall_s for r in runs),
            "passing_per_s": statistics.median(r.passing / r.wall_s for r in runs),
            "pass_rate": statistics.fmean(rates.values()),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        }

    def per_layer(self, seconds) -> dict:
        seed = self.cli_seeds[0]
        self.prepare([seed])
        pairs, layers = [], []
        start = time.perf_counter()
        while more(start, [u + t for u, t in pairs], 1, seconds):
            untraced = self.invoke(seed).wall_s
            traced = self.invoke(seed, traced=True).wall_s
            pairs.append((untraced, traced))
            spans = self.work / "spans.json"
            if spans.exists():
                layers.append(summarize(json.loads(spans.read_text())))
                spans.unlink()
        if not layers:
            raise BenchError("no traced invocation wrote its spans")
        self.samples = [t for _, t in pairs]
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in layers[0]}
        metrics["trace.overhead_s"] = (statistics.median(t for _, t in pairs)
                                       - statistics.median(u for u, _ in pairs))
        return metrics

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def more(start, lengths, minimum, seconds) -> bool:
    """Whether to start another invocation: until `minimum` are done, then
    while one more of median length still ends within `seconds`."""
    elapsed = time.perf_counter() - start
    if elapsed > LOOP_LIMIT_S:
        return False
    if len(lengths) < minimum:
        return True
    return elapsed + statistics.median(lengths) <= seconds


def metadata(runner) -> dict:
    """Ungated facts about the code and machine measured."""
    probe = ("import json, sys, abcfuzz, numpy, scipy; print(json.dumps({"
             "'file': abcfuzz.__file__, 'engine_version': abcfuzz.ENGINE_VERSION, "
             "'public_names': len(abcfuzz.__all__), 'python': sys.version.split()[0], "
             "'numpy': numpy.__version__, 'scipy': scipy.__version__}))")
    _, _, code, stdout, stderr = spawn([sys.executable, "-c", probe], runner.work, runner.env)
    if code != 0:
        raise BenchError(f"cannot import abcfuzz from {SRC}: {stderr.strip()[-500:]}")
    meta = json.loads(stdout.strip().splitlines()[-1])
    if Path(meta.pop("file")).resolve().parent != SRC / "abcfuzz":
        raise BenchError(f"abcfuzz was not imported from {SRC}")
    sha = "unknown"  # the checkout measured need not be a git repository
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:
            sha = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    source_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                       for p in sorted((SRC / "abcfuzz").glob("*.py")))
    return {"git_sha": sha, "nproc": os.cpu_count(), "source_lines": source_lines, **meta}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "abcfuzz" / "__init__.py").is_file():
        print(f"bench: no abcfuzz sources under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        meta = metadata(runner)
        if args.trace:
            values = runner.per_layer(args.seconds)
            units = PER_LAYER_UNITS
        else:
            values = runner.end_to_end(args.seconds)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.cleanup()
    meta.update(runner.meta, workload=args.workload, seed=args.seed, cli_seeds=runner.cli_seeds)
    print("meta " + json.dumps(meta, sort_keys=True))
    kind = "traced" if args.trace else "untraced"
    print(f"{len(runner.samples)} {kind} invocations, wall s: "
          + " ".join(f"{wall:.3f}" for wall in runner.samples))
    print(f"attempted {runner.attempted}, failed {runner.failed}, "
          f"fail_ratio {runner.failed / runner.attempted!r}")
    for name, unit in units.items():
        print(f"{name:<26} {values[name]!r} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
