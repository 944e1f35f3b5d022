"""Smoke run of the example script, which calls the training APIs."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def load_script(name: str):
    """The script `scripts/<name>` as a module, without running its main."""
    spec = importlib.util.spec_from_file_location(Path(name).stem, ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flags", [(), ("--variational",)])
def test_train_vanillin_runs(flags):
    out = run_script("train_vanillin.py", "--epochs", "2", *flags)
    kind = "variational" if flags else "deterministic"
    assert f"trained {kind} model, 2 epochs per tier" in out
    assert "tier 3: 1 nodes, embedding 1x16" in out
