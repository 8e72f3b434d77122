"""The README's documented examples run against the current library."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _python_block_under(heading: str) -> str:
    """The first fenced python block after ``heading`` in README.md."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n{heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_prints_two_rates(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", _python_block_under("## Library")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rates = [float(word) for word in proc.stdout.split()]
    assert len(rates) == 2 and all(0.0 <= rate <= 1.0 for rate in rates), proc.stdout
