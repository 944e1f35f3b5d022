"""Tests of the benchmark itself: inputs, span arithmetic and smoke runs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import warnings
from pathlib import Path

import pytest

from tiergae import cli, gcn, tgae
from tiergae.fgroups import membership_from_partition, partition_molecule
from tiergae.graphs import validate
from tiergae.sdf import featurize, parse_sdf, write_sdf

import harness
import tracing
from tracing import Span, check_spans, self_times
from workloads import WORKLOADS, generate

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
DECLARED = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(kind):
    return {m["name"] for m in DECLARED[kind]}


def test_declared_workloads_are_the_generated_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_byte_identical_for_a_seed(name):
    w = WORKLOADS[name]
    first = write_sdf(generate(w, 3))
    assert first == write_sdf(generate(w, 3))
    assert first != write_sdf(generate(w, 4))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_molecules_parse_cleanly_and_validate(name):
    w = WORKLOADS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        molecules = parse_sdf(write_sdf(generate(w, 5)))
    assert len(molecules) == len(w.sizes)
    for mol in molecules:
        assert validate(featurize(mol)) == []
        orders = {b.order for b in mol.bonds}
        assert 4 in orders and 2 in orders
        assert "N" in {a.symbol for a in mol.atoms}
        membership_from_partition(partition_molecule(mol), mol.atom_count)


def test_generated_sizes_stay_near_targets():
    w = WORKLOADS["drugs-tgae"]
    counts = [m.atom_count for m in generate(w, 0)]
    assert min(counts) >= min(w.sizes)
    assert max(counts) <= max(w.sizes) + 9


def _tree():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9];
    # a second root r [11, 12] has no children
    return [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("g", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("r", 11.0, 12.0, -1),
    ]


def test_self_times_subtract_children():
    spans = _tree()
    selfs = self_times(spans)
    assert selfs == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert check_spans(spans, selfs) == []


def test_check_spans_flags_a_child_outside_its_parent():
    spans = _tree()
    spans[3] = Span("b", 5.0, 10.5, 0)
    assert any("outside" in p for p in check_spans(spans, self_times(spans)))


def test_check_spans_flags_self_times_that_do_not_add_up():
    spans = _tree()
    selfs = self_times(spans)
    selfs[2] += 0.5
    assert any("add up" in p for p in check_spans(spans, selfs))


def test_summarize_reports_every_name_and_module():
    spans = [Span("gcn.encode", 0.0, 2.0, -1), Span("gcn.gcn_norm", 0.5, 1.0, 0, True)]
    out = tracing.summarize(spans)
    assert out["gcn.encode.self_s"] == 1.5
    assert out["gcn.gcn_norm.calls"] == 1
    assert out["gcn.failed"] == 1
    assert out["tvgae.kl_divergence.calls"] == 0
    assert set(k.rsplit(".", 1)[0] for k in out if k.endswith(".self_s")) == set(
        tracing.SPAN_NAMES)


def test_tracer_sees_calls_through_importing_modules_and_restores_them():
    mol = generate(WORKLOADS["drugs-tgae"], 0)[0]
    graph = featurize(mol)
    m1 = membership_from_partition(partition_molecule(mol), mol.atom_count)
    models = tgae.make_tier_models(graph.x.shape[1])
    original = tgae.encode_numpy
    tracer = tracing.Tracer()
    assert tracer.install() == []
    try:
        assert tgae.encode_numpy is not original
        assert gcn.encode_numpy is tgae.encode_numpy
        tgae.encode_tiered(graph, m1, models)
    finally:
        tracer.uninstall()
    assert tgae.encode_numpy is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "tgae.encode_tiered"
    assert names.count("gcn.encode_numpy") == 3
    assert all(s.parent == 0 for s in tracer.spans if s.name == "gcn.encode_numpy")
    assert tracer.counts["pooling.cells"] > 0 and tracer.counts["gcn.flops"] > 0


def _smoke(name):
    w = WORKLOADS[name]
    return dataclasses.replace(w, sizes=w.sizes[:3], epochs=2, ingest_reps=1, embed_reps=1)


@pytest.fixture
def root(tmp_path):
    (tmp_path / "src").symlink_to(SRC, target_is_directory=True)
    return tmp_path


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_completes_a_smoke_run(name, root):
    result, report = harness.run(_smoke(name), 0, 0.01, False, root)
    assert result["correct"], report
    assert result["failed"] == 0
    assert result["attempted"] == 3 * harness.MIN_PASSES  # ingest, train, embed
    assert set(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (root / ".bench_work" / f"{name}-s0").exists()


def test_traced_smoke_run_reports_every_layer(root):
    result, report = harness.run(_smoke("library-tvgae"), 0, 0.01, True, root)
    assert result["correct"], report
    metrics = result["metrics"]
    assert set(metrics) == _declared("per_layer")
    deterministic_only = {"tgae.train_tier", "tgae.next_tier_samples", "tgae.encode_tiered"}
    for name in tracing.SPAN_NAMES:
        called = metrics[f"{name}.calls"]["value"] > 0
        assert called != (name in deterministic_only), name
    for counter in tracing.COUNTERS:
        assert metrics[counter]["value"] > 0, counter
    assert "trace_overhead_s" in metrics and "final_loss_t3" in metrics
    doc = json.loads((root / ".bench_work" / "trace-library-tvgae-s0.json").read_text())
    assert len(doc["passes"]) == harness.MIN_TRACED_PASSES


def test_a_failed_check_fails_the_run(root, monkeypatch):
    real = cli.cmd_train

    def diverged(cfg, corpus, out):
        checkpoint, history = real(cfg, corpus, out)
        history.write_text("epoch,tier,loss\n0,1,nan\n", encoding="utf-8")
        return checkpoint, history

    monkeypatch.setattr(cli, "cmd_train", diverged)
    result, report = harness.run(_smoke("drugs-tgae"), 0, 0.01, False, root)
    assert not result["correct"]
    assert result["failed"] == 1
    assert any("non-finite" in line for line in report)
