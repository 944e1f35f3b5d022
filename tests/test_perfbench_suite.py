"""The benchmark's own tests pass against the current source.

`perfbench/harness.py` reads the corpus (`groups`, `id`), the exports
(`edge_attr["data"]`) and `cli.EXPORT_SCHEMA`, so a source change can break
the benchmark while every test under `tests/` passes. Its suite runs in a
separate interpreter, because its `conftest` module and this suite's share
one name and cannot both be imported into one pytest session.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_suite_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "perfbench"], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
