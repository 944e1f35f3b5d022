"""The benchmark's tracer must still find, and the pipeline still call,
every name it wraps.

A traced name that no longer resolves, or that the pipeline stops calling,
is only reported as uncalled, and its per-layer metric then reads 0, so a
rename or a schedule refactor in tiergae would go unnoticed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from tiergae import cli
from tiergae.tgae import RunConfig

from conftest import VANILLIN_SDF

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# names that only the other flavor's run calls
OTHER_FLAVOR = {
    "tgae": {"tvgae.train_tier_variational", "tvgae.kl_divergence",
             "tvgae.reparameterize", "tvgae.next_tier_samples_variational",
             "tvgae.encode_tiered_variational"},
    "tvgae": {"tgae.train_tier", "tgae.next_tier_samples", "tgae.encode_tiered"},
}


@pytest.fixture()
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_target(tracing):
    original = cli.read_json
    tracer = tracing.Tracer()
    try:
        assert tracer.install() == []
        assert cli.read_json is not original
    finally:
        tracer.uninstall()
    assert cli.read_json is original


@pytest.mark.parametrize("flavor", ["tgae", "tvgae"])
def test_vanillin_pipeline_calls_every_traced_name(tracing, tmp_path, flavor):
    tracer = tracing.Tracer()
    try:
        assert tracer.install() == []
        corpus = cli.cmd_ingest([VANILLIN_SDF], tmp_path / "corpus.json")
        cfg = RunConfig(model=flavor, epochs=2, hidden=4, d_z=2)
        checkpoint, _ = cli.cmd_train(cfg, corpus, tmp_path / "model.json")
        cli.cmd_embed(checkpoint, corpus, tmp_path / "export")
    finally:
        tracer.uninstall()
    summary = tracing.summarize(tracer.spans)
    assert OTHER_FLAVOR[flavor] <= set(tracing.SPAN_NAMES)
    uncalled = {name for name in tracing.SPAN_NAMES if summary[f"{name}.calls"] == 0}
    assert uncalled == OTHER_FLAVOR[flavor]
