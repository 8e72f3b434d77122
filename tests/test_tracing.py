"""The benchmark's tracing probes: every wrapped entry point still exists, and
the oracle verdicts they count match each report's ``oracle_calls``."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _summarize(trace):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summarize(trace)


@pytest.mark.parametrize("command, calls", [
    (["gen-prior", "--n", "30"], 30),
    (["run", "smc", "--steps", "50"], 60),
    (["run", "mcmc", "--steps", "60", "--burn-in", "10"], 60),
    (["compare", "--budget", "40"], 80),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_traced_oracle_calls_match_the_report(tmp_path, command, calls):
    spans, out = tmp_path / "spans.json", tmp_path / "run"
    proc = subprocess.run([sys.executable, str(TRACING), str(spans), *command, "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text())
    if command[0] == "compare":
        reported = sum(row["oracle_calls"] for row in report["results"])
    else:
        reported = report["oracle_calls"]
    assert _summarize(json.loads(spans.read_text()))["oracle.calls"] == reported == calls
