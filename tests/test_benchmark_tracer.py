"""The benchmark's tracer must still find every name it wraps.

A traced name that no longer resolves is only reported as uncalled, and its
per-layer metric then reads 0, so a rename in tiergae would go unnoticed.
"""

import importlib.util
import sys
from pathlib import Path

from tiergae import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_benchmark_tracer_finds_every_target(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    original = cli.read_json
    tracer = tracing.Tracer()
    try:
        assert tracer.install() == []
        assert cli.read_json is not original
    finally:
        tracer.uninstall()
    assert cli.read_json is original
