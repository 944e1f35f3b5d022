import json
import re
import signal
import tempfile
import time
from dataclasses import fields
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiergae import cli
from tiergae.cli import (
    EXPORT_SCHEMA,
    RunConfig,
    array_to_json,
    cmd_embed,
    cmd_fetch,
    cmd_ingest,
    cmd_train,
    corpus_items,
    json_to_array,
    load_checkpoint,
    load_config_file,
    load_corpus,
    main,
    params_state,
    resolve_config,
    validate_config,
    write_json,
)
from tiergae.errors import CliError, ConfigError
from tiergae.fgroups import membership_from_partition, partition_molecule
from tiergae.graphs import coo_to_dense, validate
from tiergae.pooling import graph_tier_membership, pool_adjacency
from tiergae.tgae import make_tier_models, train_tiered
from tiergae.tvgae import make_variational_tier_models, train_tiered_variational

from conftest import VANILLIN_SDF, export_violations
from oracles import dense_membership, membership_from_partition_dense
from test_pubchem import RecordingTransport


@pytest.fixture()
def corpus_path(tmp_path):
    return cmd_ingest([VANILLIN_SDF], tmp_path / "corpus.json")


def small_cfg(**kw):
    base = dict(epochs=5, hidden=6, d_z=3, seed=0)
    base.update(kw)
    return validate_config(RunConfig(**base))


# ---------------------------------------------------------------- arrays


def test_array_json_round_trip():
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 4))
    again = json_to_array(array_to_json(arr))
    assert np.array_equal(again, arr)
    ints = np.array([[0, 2], [11, 4]], dtype=np.int64)
    again = json_to_array(array_to_json(ints), dtype=np.int64)
    assert again.dtype == np.int64 and np.array_equal(again, ints)


def test_array_json_bytes_match_per_element_conversion():
    rng = np.random.default_rng(1)
    arrays = [
        rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-300, 300, size=(3, 4)),
        np.array([-0.0, 0.0, 2.5e17, 1e-320, -1.5, 1e16, 123456789.0]),
        np.array([[0, 5, 2**53 + 1], [7, 0, -3]], dtype=np.int64),  # edge_index is int64
        np.zeros((2, 0)),
        np.zeros((2, 0), dtype=np.int64),
    ]
    for arr in arrays:
        convert = int if arr.dtype.kind == "i" else float
        old = {"shape": [int(s) for s in arr.shape], "data": [convert(x) for x in arr.ravel()]}
        assert json.dumps(array_to_json(arr), sort_keys=True) == json.dumps(old, sort_keys=True)


def test_array_json_writes_an_int_dtype_as_ints():
    group = np.array([0, 3, 1, 2**40 + 1], dtype=np.int64)
    doc = array_to_json(group)
    assert doc == {"shape": [4], "data": [0, 3, 1, 2**40 + 1]}
    assert all(type(v) is int for v in doc["data"])
    again = json_to_array(doc, dtype=np.int64)
    assert again.dtype == np.int64 and np.array_equal(again, group)
    assert all(type(v) is float for v in array_to_json(group.astype(np.float64))["data"])
    for value in (2**53 + 1, 2**63 - 1, -2**63):  # not all exact in a float64
        again = json_to_array({"shape": [1], "data": [value]}, dtype=np.int64)
        assert again.dtype == np.int64 and again.tolist() == [value]


def test_array_json_empty_and_1d():
    empty = np.zeros((2, 0))
    assert json_to_array(array_to_json(empty)).shape == (2, 0)
    vec = np.array([1.5, -2.5])
    assert np.array_equal(json_to_array(array_to_json(vec)), vec)


@pytest.mark.parametrize("data", [[0.7, 1.9], [0.0, -0.5], [0.0, 2.0**63],
                                  [0, 2**63], [0, 1.0], [0, True], [0, -2**63 - 1]])
def test_json_to_array_rejects_values_that_are_not_ints(data):
    with pytest.raises(ConfigError, match="not an int64"):
        json_to_array({"shape": [2, 1], "data": data}, dtype=np.int64)


def test_write_json_is_byte_stable(tmp_path):
    doc = {"b": [1, 2], "a": {"y": 0.5, "x": 1.0}}
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    write_json(p1, doc)
    write_json(p2, {"a": {"x": 1.0, "y": 0.5}, "b": [1, 2]})
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")


# ---------------------------------------------------------------- config


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# training setup\n"
        "model = tvgae\n"
        "epochs = 50   # short run\n"
        "lr = 0.005\n"
        "\n"
        "d_z = 8\n"
    )
    values = load_config_file(p)
    assert values == {"model": "tvgae", "epochs": 50, "lr": 0.005, "d_z": 8}


def test_config_file_rejects_unknown_key(tmp_path):
    p = tmp_path / "run.cfg"
    for key in ("moddel = tgae", "corpus = x"):
        p.write_text(key + "\n")
        with pytest.raises(ConfigError) as exc:
            load_config_file(p)
        assert key.split()[0] in str(exc.value)


def test_config_file_rejects_bad_syntax_and_values(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("just some words\n")
    with pytest.raises(ConfigError):
        load_config_file(p)
    p.write_text("epochs = soon\n")
    with pytest.raises(ConfigError) as exc:
        load_config_file(p)
    assert "epochs" in str(exc.value)


def test_flags_beat_file_beats_defaults(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("epochs = 50\nlr = 0.005\n")
    cfg = resolve_config(p, epochs=7)
    assert cfg.epochs == 7          # flag wins
    assert cfg.lr == 0.005          # file wins over default
    assert cfg.hidden == 32         # default survives
    cfg = resolve_config(None)
    assert cfg == validate_config(RunConfig())


def test_validation_names_the_offending_field():
    cases = [
        (dict(model="gae"), "model"),
        (dict(epochs=2.5), "epochs"),
        (dict(k=True), "k"),
        (dict(lr="0.1"), "lr"),
        (dict(seed=-1), "seed"),
        (dict(epochs=0), "epochs"),
        (dict(lr=0.0), "lr"),
        (dict(hidden=-4), "hidden"),
        (dict(d_z=0), "d_z"),
        (dict(kl_weight=0.0), "kl_weight"),
        (dict(k=1), "k"),
        (dict(k=7), "k"),
    ]
    for kw, field_name in cases:
        with pytest.raises(ConfigError) as exc:
            validate_config(RunConfig(**kw))
        assert field_name in str(exc.value)


# ---------------------------------------------------------------- ingest


def test_ingest_vanillin(corpus_path):
    assert json.loads(corpus_path.read_text())["format_version"] == 3
    entries = load_corpus(corpus_path)
    assert len(entries) == 1
    e = entries[0]
    assert e["id"] == "1183"
    assert e["cid"] == 1183
    assert e["formula"] == "C8H8O3"
    assert e["x"]["shape"] == [19, 13]
    assert "membership" not in e  # the partition is stored once, as groups
    assert "pos" not in e  # nothing reads atom coordinates
    assert e["edge_index"]["shape"] == [2, 38]
    assert all(type(v) is int for v in e["edge_index"]["data"])
    assert sorted(a for g in e["groups"] for a in g) == list(range(19))
    assert len(e["groups"]) == 10
    assert e["group_kinds"].count("functional") == 3


def test_ingest_directory_input(tmp_path):
    d = tmp_path / "sdf"
    d.mkdir()
    (d / "a.sdf").write_bytes(VANILLIN_SDF.read_bytes())
    (d / "b.sdf").write_bytes(VANILLIN_SDF.read_bytes())
    out = cmd_ingest([d], tmp_path / "corpus.json")
    assert len(load_corpus(out)) == 2


def test_ingest_skips_broken_file_but_reports(tmp_path, capsys):
    d = tmp_path / "sdf"
    d.mkdir()
    (d / "bad.sdf").write_text("broken")
    (d / "good.sdf").write_bytes(VANILLIN_SDF.read_bytes())
    out = cmd_ingest([d], tmp_path / "corpus.json")
    assert len(load_corpus(out)) == 1
    assert "bad.sdf" in capsys.readouterr().err


@pytest.mark.parametrize("good, bad", [
    # atom-block charge code, columns 37-39 of the first atom line
    ("0.0000 C   0  0", "0.0000 C   0  x"),
    # value of an M  CHG pair
    ("M  END", "M  CHG  1   1  y\nM  END"),
])
def test_ingest_skips_file_with_unreadable_charge(tmp_path, good, bad):
    text = VANILLIN_SDF.read_text()
    assert good in text
    d = tmp_path / "sdf"
    d.mkdir()
    (d / "bad.sdf").write_text(text.replace(good, bad, 1))
    (d / "good.sdf").write_text(text)
    corpus = tmp_path / "corpus.json"
    assert main(["ingest", str(d), "--out", str(corpus)]) == 0
    assert len(load_corpus(corpus)) == 1


@pytest.mark.parametrize("field", ["9OA", "C$M", "A.0"])
def test_ingest_skips_file_with_bad_element_field(tmp_path, capsys, field):
    text = VANILLIN_SDF.read_text()
    good = "0.0000 C   0  0"
    assert good in text
    d = tmp_path / "sdf"
    d.mkdir()
    (d / "bad.sdf").write_text(text.replace(good, f"0.0000 {field} 0  0", 1))
    (d / "good.sdf").write_text(text)
    corpus = tmp_path / "corpus.json"
    assert main(["ingest", str(d), "--out", str(corpus)]) == 0
    assert len(load_corpus(corpus)) == 1
    assert f"bad.sdf: atom line 1: {field!r} is not an element symbol" in capsys.readouterr().err


def test_ingest_nothing_usable_fails(tmp_path):
    (tmp_path / "bad.sdf").write_text("broken")
    with pytest.raises(CliError):
        cmd_ingest([tmp_path / "bad.sdf"], tmp_path / "corpus.json")


@pytest.mark.parametrize("broken", [False, True])
def test_main_ingest_names_the_command_once(tmp_path, capsys, broken):
    inputs = tmp_path / "in"
    inputs.mkdir()
    if broken:
        (inputs / "bad.sdf").write_text("broken")
    assert main(["ingest", str(inputs), "--out", str(tmp_path / "corpus.json")]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == ("tiergae ingest: no molecules ingested (1 file(s) failed)" if broken
                    else "tiergae ingest: no input files")


def test_corpus_items_rebuild_valid_graphs(corpus_path):
    items = corpus_items(load_corpus(corpus_path))
    graph, membership = items[0]
    assert validate(graph) == []
    assert graph.edge_index.dtype == np.int64
    assert membership.group.shape == (19,) and membership.num_groups == 10


def test_corpus_version_gate(tmp_path, corpus_path):
    doc = json.loads(corpus_path.read_text())
    doc["format_version"] = 999
    bad = tmp_path / "bad_corpus.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_corpus(bad)


@pytest.mark.parametrize("reverse", [False, True])
def test_corpus_membership_is_rebuilt_from_groups(corpus_path, vanillin_mol, reverse):
    doc = json.loads(corpus_path.read_text())
    if reverse:  # the group order and each group's member order carry no meaning
        doc["molecules"][0]["groups"] = [g[::-1] for g in doc["molecules"][0]["groups"][::-1]]
    _, membership = corpus_items(doc["molecules"])[0]
    part = partition_molecule(vanillin_mol)
    assert np.array_equal(membership.group, membership_from_partition(part, 19).group)
    got, expected = dense_membership(membership), membership_from_partition_dense(part, 19)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def test_main_rejects_a_version_1_corpus(tmp_path, capsys, corpus_path):
    doc = json.loads(corpus_path.read_text())
    mol = doc["molecules"][0]
    # version 2 also wrote edge_index as floats and the atom coordinates
    mol["edge_index"]["data"] = [float(v) for v in mol["edge_index"]["data"]]
    mol["pos"] = {"shape": [19, 3], "data": [0.0] * 57}
    for version in (1, 2):
        doc["format_version"] = version
        old = tmp_path / f"v{version}.json"
        old.write_text(json.dumps(doc))
        assert main(["train", str(old), "--out", str(tmp_path / "m.json")]) == 2
        assert f"format_version {version} != supported 3" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


# ---------------------------------------------------------------- train


def test_train_writes_checkpoint_and_history(tmp_path, corpus_path):
    ckpt, hist = cmd_train(small_cfg(), corpus_path, tmp_path / "model.json")
    doc = json.loads(ckpt.read_text())
    assert doc["format_version"] == 1
    assert doc["model"] == "tgae"
    assert doc["dims"] == {"d_in": 13, "hidden": 6, "d_z": 3, "k": 2}
    rows = hist.read_text().splitlines()
    assert rows[0] == "epoch,tier,loss"
    assert len(rows) == 1 + 3 * 5
    losses = [float(r.split(",")[2]) for r in rows[1:]]
    assert all(np.isfinite(v) for v in losses)


def test_train_descends_on_tier1(tmp_path, corpus_path):
    _, hist = cmd_train(
        small_cfg(epochs=25), corpus_path, tmp_path / "model.json"
    )
    rows = [r.split(",") for r in hist.read_text().splitlines()[1:]]
    tier1 = [float(loss) for _, tier, loss in rows if tier == "1"]
    assert tier1[-1] < tier1[0]


def test_train_variational_model(tmp_path, corpus_path):
    ckpt, hist = cmd_train(
        small_cfg(model="tvgae"), corpus_path, tmp_path / "vmodel.json"
    )
    doc = json.loads(ckpt.read_text())
    assert doc["model"] == "tvgae"
    assert any("logsigma" in name for name in doc["params"])
    assert len(hist.read_text().splitlines()) == 1 + 3 * 5


def test_history_floats_round_trip_exactly(tmp_path, corpus_path):
    # repr() of a float parses back to the identical double
    _, hist = cmd_train(small_cfg(epochs=3), corpus_path, tmp_path / "m.json")
    for row in hist.read_text().splitlines()[1:]:
        text = row.split(",")[2]
        assert repr(float(text)) == text


def test_checkpoint_round_trip(tmp_path, corpus_path):
    ckpt, _ = cmd_train(small_cfg(), corpus_path, tmp_path / "model.json")
    models, kind = load_checkpoint(ckpt, d_in=13)
    assert kind == "tgae"
    doc = json.loads(ckpt.read_text())
    flat = [p for m in models for p in m.params()]
    for p in flat:
        assert np.array_equal(p.value, json_to_array(doc["params"][p.name]))


def test_checkpoint_version_and_dims_gates(tmp_path, corpus_path):
    ckpt, _ = cmd_train(small_cfg(), corpus_path, tmp_path / "model.json")
    doc = json.loads(ckpt.read_text())

    wrong_version = dict(doc, format_version=2)
    p = tmp_path / "wrong_version.json"
    p.write_text(json.dumps(wrong_version))
    with pytest.raises(ConfigError):
        load_checkpoint(p)

    with pytest.raises(ConfigError):
        load_checkpoint(ckpt, d_in=99)

    wrong_model = dict(doc, model="mystery")
    p = tmp_path / "wrong_model.json"
    p.write_text(json.dumps(wrong_model))
    with pytest.raises(ConfigError):
        load_checkpoint(p)


# ---------------------------------------------------------------- embed


def test_embed_exports_validate_against_schema(tmp_path, corpus_path):
    ckpt, _ = cmd_train(small_cfg(), corpus_path, tmp_path / "model.json")
    written = cmd_embed(ckpt, corpus_path, tmp_path / "export")
    assert [p.name for p in written] == ["1183.json"]
    doc = json.loads(written[0].read_text())
    jsonschema.validate(doc, EXPORT_SCHEMA)
    assert doc["model"] == "tgae"
    assert doc["cid"] == 1183
    assert doc["tiers"]["1"]["z"]["shape"] == [19, 3]
    assert doc["tiers"]["2"]["z"]["shape"] == [10, 3]
    assert doc["tiers"]["3"]["z"]["shape"] == [1, 3]
    assert doc["format_version"] == 3
    assert doc["tiers"]["1"]["membership"]["shape"] == [19]
    for tier in ("1", "2", "3"):
        assert all(type(v) is int for v in doc["tiers"][tier]["edge_index"]["data"])
    assert doc["tiers"]["2"]["membership"] == {"shape": [10], "data": [0] * 10}
    assert "membership" not in doc["tiers"]["3"]


@pytest.mark.parametrize("model", ["tgae", "tvgae"])
def test_export_membership_decodes_to_the_partition_matrix(tmp_path, corpus_path,
                                                          vanillin_mol, model):
    ckpt, _ = cmd_train(small_cfg(model=model), corpus_path, tmp_path / "model.json")
    doc = json.loads(cmd_embed(ckpt, corpus_path, tmp_path / "export")[0].read_text())
    tiers = doc["tiers"]
    m1 = membership_from_partition_dense(partition_molecule(vanillin_mol), 19)
    m2 = dense_membership(graph_tier_membership(m1.shape[1]))
    for tier, want in (("1", m1), ("2", m2)):
        group = json_to_array(tiers[tier]["membership"], dtype=np.int64)
        g = tiers[str(int(tier) + 1)]["x"]["shape"][0]  # the next tier's node count
        assert np.eye(g)[group].tobytes() == want.tobytes()


@pytest.mark.parametrize("change", ["dense", "float", "negative", "version"])
def test_export_schema_holds_one_group_index_per_node(tmp_path, corpus_path, change):
    ckpt, _ = cmd_train(small_cfg(), corpus_path, tmp_path / "model.json")
    doc = json.loads(cmd_embed(ckpt, corpus_path, tmp_path / "export")[0].read_text())
    jsonschema.validate(doc, EXPORT_SCHEMA)
    membership = doc["tiers"]["1"]["membership"]
    if change == "dense":  # the N x G matrix of export format 1
        group = np.asarray(membership["data"])
        membership.update(array_to_json(np.eye(10)[group]))
    elif change == "float":
        membership["data"][3] = 0.5
    elif change == "negative":
        membership["data"][3] = -1
    else:
        doc["format_version"] = 1
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, EXPORT_SCHEMA)


@pytest.mark.parametrize("value", [0.5, -1])
def test_export_schema_holds_int_edge_indices(tmp_path, corpus_path, value):
    ckpt, _ = cmd_train(small_cfg(), corpus_path, tmp_path / "model.json")
    doc = json.loads(cmd_embed(ckpt, corpus_path, tmp_path / "export")[0].read_text())
    jsonschema.validate(doc, EXPORT_SCHEMA)
    doc["tiers"]["2"]["edge_index"]["data"][0] = value
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, EXPORT_SCHEMA)


def test_export_schema_passes_a_whole_float_index_that_json_to_array_refuses(tmp_path,
                                                                            corpus_path):
    # JSON Schema counts 1.0 as an integer; the exact check is json_to_array's
    ckpt, _ = cmd_train(small_cfg(), corpus_path, tmp_path / "model.json")
    doc = json.loads(cmd_embed(ckpt, corpus_path, tmp_path / "export")[0].read_text())
    tier = doc["tiers"]["1"]
    tier["membership"] = {"shape": [1], "data": [1.0]}
    tier["edge_index"]["data"][0] = float(tier["edge_index"]["data"][0])
    jsonschema.validate(doc, EXPORT_SCHEMA)
    for key in ("membership", "edge_index"):
        with pytest.raises(ConfigError, match=r"^array data holds \d+\.0, not an int64$"):
            json_to_array(tier[key], np.int64)


def test_embed_variational_uses_mu(tmp_path, corpus_path):
    ckpt, _ = cmd_train(
        small_cfg(model="tvgae"), corpus_path, tmp_path / "vmodel.json"
    )
    one = cmd_embed(ckpt, corpus_path, tmp_path / "e1")
    two = cmd_embed(ckpt, corpus_path, tmp_path / "e2")
    # mu-mode inference twice over: identical bytes, no sampling
    assert one[0].read_bytes() == two[0].read_bytes()
    doc = json.loads(one[0].read_text())
    jsonschema.validate(doc, EXPORT_SCHEMA)
    assert doc["model"] == "tvgae"


def test_embed_is_deterministic_across_runs(tmp_path, corpus_path):
    ckpt, _ = cmd_train(small_cfg(), corpus_path, tmp_path / "model.json")
    one = cmd_embed(ckpt, corpus_path, tmp_path / "e1")
    two = cmd_embed(ckpt, corpus_path, tmp_path / "e2")
    assert one[0].read_bytes() == two[0].read_bytes()


# ---------------------------------------------------------------- fetch


def test_fetch_writes_files(tmp_path, vanillin_sdf_bytes):
    t = RecordingTransport([(200, vanillin_sdf_bytes)])
    written = cmd_fetch([1183], tmp_path / "sdf", transport=t)
    assert [p.name for p in written] == ["1183.sdf"]
    assert written[0].read_bytes() == vanillin_sdf_bytes


def test_fetch_partial_failure_keeps_going(tmp_path, capsys):
    t = RecordingTransport([(404, b""), (200, b"data")])
    written = cmd_fetch([1, 2], tmp_path / "sdf", transport=t)
    assert [p.name for p in written] == ["2.sdf"]
    assert "cid 1" in capsys.readouterr().err


def test_fetch_pauses_between_requests(tmp_path, monkeypatch):
    events = []
    monkeypatch.setattr(time, "sleep", lambda s: events.append(("sleep", s)))

    def transport(url):
        events.append(("get", url.split("/")[-3]))
        return 200, b"data"

    cmd_fetch([1, 2, 3], tmp_path / "sdf", transport=transport, delay=0.5)
    assert events == [("get", "1"), ("sleep", 0.5), ("get", "2"),
                      ("sleep", 0.5), ("get", "3")]


@pytest.mark.parametrize("delay", ["inf", "1e300", "-inf", "nan", "-1", "-0.001",
                                   "86400.001"])
def test_main_fetch_refuses_a_delay_before_the_first_request(tmp_path, monkeypatch, capsys,
                                                             delay):
    transport = RecordingTransport([(200, b"data")] * 2)
    monkeypatch.setattr(cli.pubchem, "urllib_transport", lambda: transport)
    monkeypatch.setattr(time, "sleep", lambda s: pytest.fail(f"slept {s}"))
    out = tmp_path / "sdf"
    assert main(["fetch", "1", "2", f"--delay={delay}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "tiergae fetch: delay must be between 0 and 86400 seconds, got " in err
    assert "fetch: fetch:" not in err
    assert "Traceback" not in err
    assert transport.urls == [] and not out.exists()


@pytest.mark.parametrize("delay", ["0", "-0.0", "86400"])
def test_main_fetch_takes_a_delay_within_the_bound(tmp_path, monkeypatch, delay):
    transport = RecordingTransport([(200, b"data")] * 2)
    monkeypatch.setattr(cli.pubchem, "urllib_transport", lambda: transport)
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    assert main(["fetch", "1", "2", f"--delay={delay}", "--out", str(tmp_path / "sdf")]) == 0
    assert len(transport.urls) == 2
    assert slept == ([float(delay)] if float(delay) > 0 else [])


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
def test_time_sleep_takes_the_longest_fetch_delay():
    # a delay past what time.sleep takes fails at once; one it takes sleeps
    # until the timer's signal stops it
    class Woken(Exception):
        pass

    def wake(signum, frame):
        raise Woken

    previous = signal.signal(signal.SIGALRM, wake)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        with pytest.raises(Woken):
            time.sleep(cli.MAX_FETCH_DELAY)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_fetch_unwritable_output_is_a_cli_error(tmp_path, vanillin_sdf_bytes):
    blocker = tmp_path / "file"
    blocker.write_text("")
    t = RecordingTransport([(200, vanillin_sdf_bytes)])
    with pytest.raises(CliError, match=f"cannot write {re.escape(str(blocker))}"):
        cmd_fetch([1183], blocker, transport=t)
    target = tmp_path / "sdf" / "1183.sdf"
    target.mkdir(parents=True)
    with pytest.raises(CliError, match=f"cannot write {re.escape(str(target))}"):
        cmd_fetch([1183], tmp_path / "sdf", transport=t)


def test_fetch_total_failure_raises(tmp_path):
    t = RecordingTransport([(404, b""), (404, b"")])
    with pytest.raises(CliError):
        cmd_fetch([1, 2], tmp_path / "sdf", transport=t)


def test_main_fetch_total_failure_names_the_command_once(tmp_path, monkeypatch, capsys):
    transport = RecordingTransport([(404, b""), (404, b"")])
    monkeypatch.setattr(cli.pubchem, "urllib_transport", lambda: transport)
    monkeypatch.setattr(time, "sleep", lambda s: None)
    assert main(["fetch", "1", "2", "--out", str(tmp_path / "sdf")]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "tiergae fetch: all 2 requests failed"


# ---------------------------------------------------------------- main


def test_main_pipeline_end_to_end(tmp_path):
    corpus = tmp_path / "corpus.json"
    ckpt = tmp_path / "model.json"
    export = tmp_path / "export"
    assert main(["ingest", str(VANILLIN_SDF), "--out", str(corpus)]) == 0
    assert main([
        "train", str(corpus), "--out", str(ckpt),
        "--epochs", "3", "--hidden", "4", "--d-z", "2",
    ]) == 0
    assert main([
        "embed", str(corpus), "--checkpoint", str(ckpt), "--out", str(export),
    ]) == 0
    doc = json.loads((export / "1183.json").read_text())
    jsonschema.validate(doc, EXPORT_SCHEMA)


def test_main_reports_failures_with_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.sdf"
    missing.write_text("not an sdf")
    assert main(["ingest", str(missing), "--out", str(tmp_path / "c.json")]) == 2
    assert "ingest" in capsys.readouterr().err


def test_main_missing_corpus_is_a_clean_error(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["train", str(tmp_path / "nope.json"), "--out", str(out)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_main_malformed_corpus_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "corpus.json"
    bad.write_text("{truncated")
    assert main(["train", str(bad), "--out", str(tmp_path / "m.json")]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{"format_version": cli.CORPUS_FORMAT_VERSION},
                                 {"format_version": cli.CORPUS_FORMAT_VERSION, "molecules": []}])
def test_main_corpus_without_molecules_is_a_clean_error(tmp_path, capsys, doc):
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps(doc))
    assert main(["train", str(bad), "--out", str(tmp_path / "m.json")]) == 2
    assert "no molecules" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [[], "corpus", 3])
def test_main_corpus_not_an_object_is_a_clean_error(tmp_path, capsys, doc):
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps(doc))
    assert main(["train", str(bad), "--out", str(tmp_path / "m.json")]) == 2
    assert "expected a JSON object" in capsys.readouterr().err


def test_main_corpus_with_asymmetric_edges_is_a_clean_error(tmp_path, capsys, corpus_path):
    doc = json.loads(corpus_path.read_text())
    mol = doc["molecules"][0]
    edge_index = json_to_array(mol["edge_index"], dtype=np.int64)
    # keep the last edge (i, j) but drop its (j, i) twin
    i, j = edge_index[:, -1].tolist()
    keep = [e for e, pair in enumerate(edge_index.T.tolist()) if pair != [j, i]]
    mol["edge_index"] = array_to_json(edge_index[:, keep])
    mol["edge_attr"] = array_to_json(json_to_array(mol["edge_attr"])[keep])
    bad = tmp_path / "asymmetric.json"
    bad.write_text(json.dumps(doc))
    assert main(["train", str(bad), "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert f"corpus molecule {mol['id']!r}" in err
    assert f"MissingReverseEdge: ({i}, {j}) present but ({j}, {i}) absent" in err
    assert not (tmp_path / "m.json").exists()


def test_main_corpus_entry_missing_key_is_a_clean_error(tmp_path, capsys, corpus_path):
    doc = json.loads(corpus_path.read_text())
    del doc["molecules"][0]["groups"]
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps(doc))
    assert main(["train", str(bad), "--out", str(tmp_path / "m.json")]) == 2
    assert "corpus molecule #0: missing key(s) 'groups'" in capsys.readouterr().err


def _replace_atom(groups: list, atom: int, value) -> list:
    return [[value if a == atom else a for a in g] for g in groups]


# vanillin's `groups` (10 groups over 19 atoms), broken in one way each
GROUPS_EDITS = {
    "not-a-list": lambda groups: {"0": groups},
    "group-not-a-list": lambda groups: groups + [19],
    "empty-group": lambda groups: groups + [[]],
    "repeated-atom": lambda groups: groups + [[0]],
    "missing-atom": lambda groups: [[a for a in g if a != 18] for g in groups if g != [18]],
    "out-of-range": lambda groups: _replace_atom(groups, 18, 99),
    "float": lambda groups: _replace_atom(groups, 1, 1.0),
    "bool": lambda groups: _replace_atom(groups, 1, True),
    "more-atoms-than-N": lambda groups: groups + [[19]],  # a partition of 20 atoms
}


@pytest.mark.parametrize("case", GROUPS_EDITS)
def test_main_malformed_groups_exit_2_and_write_nothing(tmp_path, capsys, corpus_path, case):
    ckpt, _ = cmd_train(small_cfg(epochs=1), corpus_path, tmp_path / "model.json")
    doc = json.loads(corpus_path.read_text())
    mol = doc["molecules"][0]
    mol["groups"] = GROUPS_EDITS[case](mol["groups"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out, export = tmp_path / "m.json", tmp_path / "export"
    assert main(["train", str(bad), "--epochs", "1", "--out", str(out)]) == 2
    assert f"corpus molecule {mol['id']!r}: groups" in capsys.readouterr().err
    assert main(["embed", str(bad), "--checkpoint", str(ckpt), "--out", str(export)]) == 2
    assert f"corpus molecule {mol['id']!r}: groups" in capsys.readouterr().err
    assert not out.exists() and not export.exists()


def test_main_embed_refuses_ids_that_share_an_export_file(tmp_path, capsys, corpus_path):
    ckpt, _ = cmd_train(small_cfg(epochs=1), corpus_path, tmp_path / "model.json")
    doc = json.loads(corpus_path.read_text())
    twin = json.loads(json.dumps(doc["molecules"][0]))
    doc["molecules"][0]["id"], twin["id"] = "a/b", "a_b"
    doc["molecules"].append(twin)
    corpus = tmp_path / "twins.json"
    corpus.write_text(json.dumps(doc))
    export = tmp_path / "export"
    assert main(["embed", str(corpus), "--checkpoint", str(ckpt), "--out", str(export)]) == 2
    assert ("corpus molecule 'a/b' and corpus molecule 'a_b' both export to a_b.json"
            in capsys.readouterr().err)
    assert not export.exists()


def test_main_corpus_or_checkpoint_that_is_not_utf8_exits_2(tmp_path, capsys, corpus_path):
    ckpt, _ = cmd_train(small_cfg(epochs=1), corpus_path, tmp_path / "model.json")
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"id": "\xff"}')  # 0xff starts no UTF-8 sequence
    assert main(["train", str(bad), "--out", str(tmp_path / "m.json")]) == 2
    assert f"{bad} is not valid JSON" in capsys.readouterr().err
    export = tmp_path / "export"
    assert main(["embed", str(corpus_path), "--checkpoint", str(bad), "--out", str(export)]) == 2
    assert f"{bad} is not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists() and not export.exists()


@pytest.mark.parametrize("content", [None, b"epochs = 2\xff\n"],
                         ids=["missing", "not-utf8"])
def test_main_unreadable_config_file_exits_2(tmp_path, capsys, corpus_path, content):
    cfg = tmp_path / "run.cfg"
    if content is not None:
        cfg.write_bytes(content)
    out = tmp_path / "m.json"
    assert main(["train", str(corpus_path), "--config", str(cfg), "--out", str(out)]) == 2
    assert f"cannot read config file {cfg}" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture()
def checkpoint_doc(tmp_path, corpus_path):
    ckpt, _ = cmd_train(small_cfg(epochs=1), corpus_path, tmp_path / "model.json")
    return json.loads(ckpt.read_text())


def _write_checkpoint(tmp_path, doc) -> Path:
    ckpt = tmp_path / "edited.json"
    ckpt.write_text(json.dumps(doc))
    return ckpt


def _embed_with_checkpoint(tmp_path, corpus_path, doc) -> int:
    return main(["embed", str(corpus_path), "--checkpoint", str(_write_checkpoint(tmp_path, doc)),
                 "--out", str(tmp_path / "export")])


@pytest.mark.parametrize("key", ["dims", "model", "params"])
def test_main_checkpoint_missing_key_is_a_clean_error(tmp_path, capsys, corpus_path,
                                                      checkpoint_doc, key):
    del checkpoint_doc[key]
    assert _embed_with_checkpoint(tmp_path, corpus_path, checkpoint_doc) == 2
    assert f"missing key(s) {key!r}" in capsys.readouterr().err


def test_main_checkpoint_bad_dims_and_params_are_clean_errors(tmp_path, capsys, corpus_path,
                                                              checkpoint_doc):
    doc = dict(checkpoint_doc, dims={"d_in": 13})
    assert _embed_with_checkpoint(tmp_path, corpus_path, doc) == 2
    assert "dims: missing key(s) 'hidden', 'd_z', 'k'" in capsys.readouterr().err
    params = dict(checkpoint_doc["params"])
    name = sorted(params)[0]
    del params[name]
    doc = dict(checkpoint_doc, params=params)
    assert _embed_with_checkpoint(tmp_path, corpus_path, doc) == 2
    assert f"missing param {name!r}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("hidden", "x", "config field 'hidden': expected int, got 'x'"),
    ("d_z", 2.5, "config field 'd_z': expected int, got 2.5"),
    ("hidden", -1, "config field 'hidden': must be strictly positive"),
    ("k", 1000, "config field 'k': must be in [2, 6], got 1000"),
    ("hidden", True, "config field 'hidden': expected int, got True"),
    ("d_in", 13.0, "d_in must be a positive int, got 13.0"),
    ("seed", -1, None),
], ids=["hidden-str", "d_z-float", "hidden-negative", "k-large", "hidden-bool",
        "d_in-float", "seed-negative"])
def test_main_checkpoint_dims_follow_the_config_rules(tmp_path, capsys, corpus_path,
                                                      checkpoint_doc, key, value, message):
    # dims pass the rules of the train flags; the seed is not read, because
    # every weight it would draw is overwritten by the checkpoint's params
    expected = cmd_embed(_write_checkpoint(tmp_path, checkpoint_doc), corpus_path,
                         tmp_path / "expected")
    if key == "seed":
        checkpoint_doc[key] = value
    else:
        checkpoint_doc["dims"][key] = value
    code = _embed_with_checkpoint(tmp_path, corpus_path, checkpoint_doc)
    if message is None:
        assert code == 0
        written = sorted((tmp_path / "export").iterdir())
        assert [p.read_bytes() for p in written] == [p.read_bytes() for p in expected]
    else:
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "export").exists()


# past MAX_WIDTH; 2**31 asked numpy for 208 GiB and 2**63 overflowed its generator
WIDE = [cli.MAX_WIDTH + 1, 2**31, 2**63]


def forbid_weights(monkeypatch) -> None:
    def build(*args):
        raise AssertionError("weights drawn for a width past the bound")

    for name in ("make_tier_models", "make_variational_tier_models"):
        monkeypatch.setattr(cli, name, build)


def width_error(field: str, value: int) -> str:
    return f"config field {field!r}: must be at most {cli.MAX_WIDTH}, got {value}"


@pytest.mark.parametrize("value", WIDE)
@pytest.mark.parametrize("flag, field", [("--hidden", "hidden"), ("--d-z", "d_z")])
def test_main_width_past_the_bound_exits_2_and_draws_no_weight(tmp_path, capsys, monkeypatch,
                                                               corpus_path, flag, field,
                                                               value):
    forbid_weights(monkeypatch)
    out = tmp_path / "m.json"
    assert main(["train", str(corpus_path), flag, str(value), "--out", str(out)]) == 2
    assert width_error(field, value) in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text(f"{field} = {value}\n")
    assert main(["train", str(corpus_path), "--config", str(config), "--out", str(out)]) == 2
    assert width_error(field, value) in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [corpus_path, config]
    validate_config(RunConfig(**{field: cli.MAX_WIDTH}))  # the bound itself is valid


@pytest.mark.parametrize("value", WIDE)
@pytest.mark.parametrize("field", ["hidden", "d_z"])
def test_main_checkpoint_width_past_the_bound_exits_2_and_draws_no_weight(
        tmp_path, capsys, monkeypatch, corpus_path, checkpoint_doc, field, value):
    checkpoint_doc["dims"][field] = value
    forbid_weights(monkeypatch)
    assert _embed_with_checkpoint(tmp_path, corpus_path, checkpoint_doc) == 2
    assert width_error(field, value) in capsys.readouterr().err
    assert not (tmp_path / "export").exists()


@pytest.mark.parametrize("doc", [[], None])
def test_main_checkpoint_not_an_object_is_a_clean_error(tmp_path, capsys, corpus_path, doc):
    assert _embed_with_checkpoint(tmp_path, corpus_path, doc) == 2
    assert "expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--lr", "nan"], ["--lr", "inf"], ["--kl-weight", "nan"],
    ["--model", "tvgae", "--kl-weight", "inf"],
])
def test_main_non_finite_rate_or_weight_exits_2(tmp_path, capsys, corpus_path, flags):
    out = tmp_path / "m.json"
    assert main(["train", str(corpus_path), "--epochs", "2", "--out", str(out), *flags]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    ("epochs", -10**400, "must be strictly positive"),
    ("hidden", 10**400, "must be at most 1024"),
    ("d_z", -10**400, "must be strictly positive"),
    ("k", 10**400, "must be in [2, 6]"),
])
def test_main_int_past_the_float_range_exits_2(tmp_path, capsys, monkeypatch, corpus_path,
                                               checkpoint_doc, field, value, message):
    # an int is finite; asking math.isfinite about one past the float range
    # raised OverflowError
    forbid_weights(monkeypatch)
    expected = f"config field {field!r}: {message}"
    out = tmp_path / "m.json"
    flag = "--" + field.replace("_", "-")
    assert main(["train", str(corpus_path), f"{flag}={value}", "--out", str(out)]) == 2
    assert expected in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text(f"{field} = {value}\n")
    assert main(["train", str(corpus_path), "--config", str(config), "--out", str(out)]) == 2
    assert expected in capsys.readouterr().err
    assert not out.exists()
    if field in checkpoint_doc["dims"]:
        checkpoint_doc["dims"][field] = value
        assert _embed_with_checkpoint(tmp_path, corpus_path, checkpoint_doc) == 2
        assert f"checkpoint {tmp_path / 'edited.json'}: {expected}" in capsys.readouterr().err
        assert not (tmp_path / "export").exists()


@pytest.mark.parametrize("flags, tier", [
    (["--lr", "1e308"], 1),
    (["--lr", "1e308", "--epochs", "1"], 2),  # tier 1's weights overflow as they pool
    (["--model", "tvgae", "--kl-weight", "1e308"], 1),
])
def test_main_diverging_run_exits_2_without_a_warning(tmp_path, capsys, corpus_path, flags,
                                                      tier):
    # the suite turns warnings into errors, so an overflow warning fails here
    out = tmp_path / "m.json"
    assert main(["train", str(corpus_path), "--epochs", "3", "--out", str(out), *flags]) == 2
    assert re.search(rf"tiergae train: tier {tier}: epoch \d loss is (nan|inf)\n",
                     capsys.readouterr().err)
    assert not out.exists()


def test_main_embed_with_weights_that_overflow_exits_2(tmp_path, capsys, corpus_path,
                                                       checkpoint_doc):
    weight = checkpoint_doc["params"]["tier2.layer0.weight"]
    weight["data"] = [1e308] * len(weight["data"])
    assert _embed_with_checkpoint(tmp_path, corpus_path, checkpoint_doc) == 2
    assert re.search(r"tiergae embed: corpus molecule '1183': tier [23] features or "
                     r"embedding not finite\n", capsys.readouterr().err)
    assert not (tmp_path / "export" / "1183.json").exists()


@pytest.mark.parametrize("key, value", [
    ("x", float("nan")), ("x", float("-inf")), ("edge_attr", float("inf")),
    ("edge_index", float("inf")), ("edge_index", 0.9), ("edge_index", -0.5),
    ("edge_index", 1.0), ("edge_index", True), ("edge_index", 2**63),  # not int64
    ("x", True), ("edge_attr", False),  # a bool is not a float either
])
def test_main_corpus_with_non_finite_value_exits_2(tmp_path, capsys, corpus_path,
                                                    key, value):
    ckpt, _ = cmd_train(small_cfg(epochs=1), corpus_path, tmp_path / "model.json")
    doc = json.loads(corpus_path.read_text())
    doc["molecules"][0][key]["data"][0] = value
    bad = tmp_path / "corpus.json"
    bad.write_text(json.dumps(doc))  # writes the JSON tokens NaN, Infinity, -Infinity
    out, export = tmp_path / "m.json", tmp_path / "export"
    message = f"corpus molecule {doc['molecules'][0]['id']!r}: array data"
    assert main(["train", str(bad), "--epochs", "2", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert main(["embed", str(bad), "--checkpoint", str(ckpt), "--out", str(export)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() and not export.exists()


def _train_and_embed_exit_2(tmp_path, capsys, corpus_path, edit, message: str) -> None:
    """`train` and `embed` of vanillin's corpus with `edit` applied to its
    molecule exit 2, print `message` after the molecule's name and write
    nothing."""
    ckpt, _ = cmd_train(small_cfg(epochs=1), corpus_path, tmp_path / "model.json")
    doc = json.loads(corpus_path.read_text())
    edit(doc["molecules"][0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out, export = tmp_path / "m.json", tmp_path / "export"
    expected = f"tiergae train: corpus molecule {doc['molecules'][0]['id']!r}: {message}"
    assert main(["train", str(bad), "--epochs", "2", "--out", str(out)]) == 2
    assert expected in capsys.readouterr().err
    assert main(["embed", str(bad), "--checkpoint", str(ckpt), "--out", str(export)]) == 2
    assert expected.replace("train", "embed", 1) in capsys.readouterr().err
    assert not out.exists() and not export.exists()


def test_main_corpus_molecule_without_atoms_exits_2(tmp_path, capsys, corpus_path):
    def no_atoms(mol):
        mol.update(x={"shape": [0, 13], "data": []}, edge_index={"shape": [2, 0], "data": []},
                   edge_attr={"shape": [0, mol["edge_attr"]["shape"][1]], "data": []},
                   groups=[], group_kinds=[])

    _train_and_embed_exit_2(tmp_path, capsys, corpus_path, no_atoms,
                            "x has shape (0, 13), no atoms or features")


def test_main_corpus_molecule_without_node_features_exits_2(tmp_path, capsys, corpus_path):
    def no_features(mol):
        mol["x"] = {"shape": [19, 0], "data": []}

    _train_and_embed_exit_2(tmp_path, capsys, corpus_path, no_features,
                            "x has shape (19, 0), no atoms or features")


@pytest.mark.filterwarnings("error")  # no overflow warning on the way either
def test_main_corpus_edge_features_whose_pooled_sums_overflow_exit_2(tmp_path, capsys,
                                                                     corpus_path):
    def huge(mol):
        mol["edge_attr"]["data"] = [1e308] * len(mol["edge_attr"]["data"])

    _train_and_embed_exit_2(tmp_path, capsys, corpus_path, huge,
                            "edge features too large to pool")


def test_corpus_edge_features_inside_the_pooling_bound_pool_finite(corpus_path):
    # one bond of 4e307 each way: twice the mass is 1.6e308, and the
    # molecule's tier-3 entry 8e307 plus the other bonds
    doc = json.loads(corpus_path.read_text())
    attr = doc["molecules"][0]["edge_attr"]
    for e in range(2):  # edges 0 and 1 are the two directions of one bond
        attr["data"][e * attr["shape"][1]] = 4e307
    graph, m1 = corpus_items(doc["molecules"])[0]
    tier2 = pool_adjacency(coo_to_dense(graph), m1)
    tier3 = pool_adjacency(tier2, graph_tier_membership(m1.num_groups))
    assert np.isfinite(tier3).all() and tier3[0, 0, 0] >= 8e307


def cancelling_corpus(path: Path, q: float) -> Path:
    """A corpus of one 4-atom molecule in groups {0, 1} and {2, 3}, with
    bonds (0, 2), (0, 3) and (1, 2) of edge feature 1e16, q and -1e16. Its
    tier-2 edge sums them; summed row-major, cell (0, 1) is
    (1e16 + q) - 1e16 and cell (1, 0) is (1e16 - 1e16) + q, which round
    apart: to 0.0 and 1.0 for q = 1, to 4.0 and 3.0 for q = 3."""
    bonds = {(0, 2): 1e16, (0, 3): q, (1, 2): -1e16}
    edges = sorted([*bonds, *((j, i) for i, j in bonds)])
    doc = {"format_version": cli.CORPUS_FORMAT_VERSION, "molecules": [{
        "id": "cancel",
        "x": array_to_json(np.eye(4)),
        "edge_index": array_to_json(np.array(edges, dtype=np.int64).T),
        "edge_attr": array_to_json(np.array([[bonds[min(e), max(e)]] for e in edges])),
        "groups": [[0, 1], [2, 3]],
    }]}
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("model", ["tgae", "tvgae"])
@pytest.mark.parametrize("q", [1.0, 3.0])
def test_main_cancelling_edge_features_pool_to_an_undirected_tier(tmp_path, model, q):
    corpus = cancelling_corpus(tmp_path / "corpus.json", q)
    ckpt, export = tmp_path / "model.json", tmp_path / "export"
    assert main(["train", str(corpus), "--model", model, "--epochs", "2", "--hidden", "4",
                 "--d-z", "2", "--out", str(ckpt)]) == 0
    assert main(["embed", str(corpus), "--checkpoint", str(ckpt), "--out", str(export)]) == 0
    assert export_violations(export) == []
    tier2 = json.loads((export / "cancel.json").read_text())["tiers"]["2"]
    # the one edge, both ways, with the bits of the row-major sum above the diagonal
    want = {1.0: [], 3.0: [[4.0], [4.0]]}[q]
    assert json_to_array(tier2["edge_attr"]).tolist() == want


@pytest.mark.parametrize("command, out", [
    ("ingest", "dir"), ("train", "dir"), ("train", "file/ck.json"),
    ("embed", "file"), ("embed", "file/sub"),
])
def test_main_unwritable_output_exits_2_and_names_it(tmp_path, capsys, corpus_path,
                                                      command, out):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    out = str(tmp_path / out)
    if command == "ingest":
        argv = ["ingest", str(VANILLIN_SDF)]
    elif command == "train":
        argv = ["train", str(corpus_path), "--epochs", "1"]
    else:
        ckpt, _ = cmd_train(small_cfg(epochs=1), corpus_path, tmp_path / "model.json")
        argv = ["embed", str(corpus_path), "--checkpoint", str(ckpt)]
    assert main([*argv, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"tiergae {command}: cannot write {out}: " in err
    assert "Traceback" not in err


def test_main_unwritable_history_exits_2_and_names_it(tmp_path, capsys, corpus_path):
    history = tmp_path / "model_history.csv"
    history.mkdir()
    out = tmp_path / "model.json"
    assert main(["train", str(corpus_path), "--epochs", "1", "--out", str(out)]) == 2
    assert f"tiergae train: cannot write {history}: " in capsys.readouterr().err
    assert not out.exists()


def test_main_unwritable_checkpoint_leaves_no_history(tmp_path, capsys, corpus_path):
    out = tmp_path / "model.json"
    out.mkdir()
    assert main(["train", str(corpus_path), "--epochs", "1", "--out", str(out)]) == 2
    assert f"tiergae train: cannot write {out}: " in capsys.readouterr().err
    assert out.is_dir() and not (tmp_path / "model_history.csv").exists()


def test_main_checkpoint_with_non_finite_param_exits_2(tmp_path, capsys, corpus_path,
                                                      checkpoint_doc):
    name = sorted(checkpoint_doc["params"])[0]
    checkpoint_doc["params"][name]["data"][0] = float("nan")
    assert _embed_with_checkpoint(tmp_path, corpus_path, checkpoint_doc) == 2
    assert f"param {name!r}: array data holds a non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "export").exists()


@pytest.mark.parametrize("value", [True, "0.5"])
def test_main_checkpoint_with_non_number_param_exits_2(tmp_path, capsys, corpus_path,
                                                       checkpoint_doc, value):
    name = sorted(checkpoint_doc["params"])[0]
    checkpoint_doc["params"][name]["data"][0] = value
    assert _embed_with_checkpoint(tmp_path, corpus_path, checkpoint_doc) == 2
    assert f"param {name!r}: array data holds {value!r}, not a number" in capsys.readouterr().err
    assert not (tmp_path / "export").exists()


def test_main_train_writes_no_file_after_a_non_finite_loss(tmp_path, capsys, corpus_path,
                                                          monkeypatch):
    # with the config check bypassed, a NaN learning rate reaches training
    monkeypatch.setattr(cli, "validate_config", lambda cfg: cfg)
    out = tmp_path / "m.json"
    assert main(["train", str(corpus_path), "--epochs", "3", "--lr", "nan",
                 "--out", str(out)]) == 2
    assert "tier 1: epoch 1 loss is nan" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [corpus_path]


def _corpus_with_wide_second_molecule(tmp_path, corpus_path) -> Path:
    """The vanillin corpus plus a copy, named 'wide', with one more feature column."""
    doc = json.loads(corpus_path.read_text())
    wide = json.loads(json.dumps(doc["molecules"][0]))
    x = json_to_array(wide["x"])
    wide["id"] = "wide"
    wide["x"] = array_to_json(np.hstack([x, np.zeros((x.shape[0], 1))]))
    doc["molecules"].append(wide)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    return path


def test_main_embed_checks_every_width_before_writing(tmp_path, capsys, corpus_path):
    ckpt, _ = cmd_train(small_cfg(epochs=1), corpus_path, tmp_path / "model.json")
    mixed = _corpus_with_wide_second_molecule(tmp_path, corpus_path)
    out = tmp_path / "export"
    assert main(["embed", str(mixed), "--checkpoint", str(ckpt), "--out", str(out)]) == 2
    assert "corpus molecule 'wide': 14 node features" in capsys.readouterr().err
    assert list(out.glob("*")) == []


def test_main_train_names_the_molecule_with_another_width(tmp_path, capsys, corpus_path):
    mixed = _corpus_with_wide_second_molecule(tmp_path, corpus_path)
    out = tmp_path / "m.json"
    assert main(["train", str(mixed), "--epochs", "1", "--out", str(out)]) == 2
    assert "corpus molecule 'wide': 14 node features, the first molecule has 13" in (
        capsys.readouterr().err)
    assert not out.exists()


def _ingest_exit_code(data: bytes) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        sdf = Path(tmp) / "in.sdf"
        sdf.write_bytes(data)
        return main(["ingest", str(sdf), "--out", str(Path(tmp) / "corpus.json")])


@pytest.mark.filterwarnings("ignore:element .* not in vocabulary:UserWarning")
@settings(deadline=None, max_examples=60)
@given(data=st.binary(max_size=3000))
def test_ingest_arbitrary_bytes_exit_0_or_2(data):
    assert _ingest_exit_code(data) in (0, 2)


# bytes that SDF fields are made of, so mutations reach past the first check
_SDF_BYTES = st.binary(max_size=6) | st.lists(
    st.sampled_from(b"0123456789 +-.\nMEDCHGNOVA$"), min_size=1, max_size=6).map(bytes)
_EDIT = st.tuples(st.integers(0, 10**6), st.sampled_from(("replace", "insert", "delete")),
                  _SDF_BYTES)


def mutated(data: bytes, edits) -> bytes:
    """`data` with each (position, kind, chunk) of `edits` applied in turn."""
    data = bytearray(data)
    for pos, kind, chunk in edits:
        i = pos % (len(data) + 1)
        if kind == "replace":
            data[i:i + len(chunk)] = chunk
        elif kind == "insert":
            data[i:i] = chunk
        else:
            del data[i:i + max(len(chunk), 1)]
    return bytes(data)


@pytest.mark.filterwarnings("ignore:element .* not in vocabulary:UserWarning")
@settings(deadline=None, max_examples=120)
@given(edits=st.lists(_EDIT, min_size=1, max_size=5))
def test_ingest_mutated_vanillin_exit_0_or_2(edits):
    assert _ingest_exit_code(mutated(VANILLIN_SDF.read_bytes(), edits)) in (0, 2)


def test_main_train_config_file(tmp_path):
    corpus = tmp_path / "corpus.json"
    main(["ingest", str(VANILLIN_SDF), "--out", str(corpus)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 2\nhidden = 4\nd_z = 2\nmodel = tvgae\n")
    ckpt = tmp_path / "model.json"
    assert main(["train", str(corpus), "--config", str(cfg), "--out", str(ckpt)]) == 0
    assert json.loads(ckpt.read_text())["model"] == "tvgae"


def test_main_rejects_bad_config(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    main(["ingest", str(VANILLIN_SDF), "--out", str(corpus)])
    assert main(["train", str(corpus), "--epochs", "0",
                 "--out", str(tmp_path / "m.json")]) == 2
    assert "epochs" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["tgae", "tvgae"])
def test_cli_and_library_train_the_same_weights(tmp_path, corpus_path, model):
    # every setting off its default, so one the command line drops changes the weights
    cfg = RunConfig(model=model, seed=7, epochs=3, lr=0.02, hidden=5, d_z=3,
                    kl_weight=0.5, k=3)
    assert all(getattr(cfg, f.name) != f.default for f in fields(RunConfig)
               if f.name != "model")
    ckpt = tmp_path / "model.json"
    assert main(["train", str(corpus_path), "--model", model, "--seed", "7",
                 "--epochs", "3", "--lr", "0.02", "--hidden", "5", "--d-z", "3",
                 "--kl-weight", "0.5", "--k", "3", "--out", str(ckpt)]) == 0
    make, train = {"tgae": (make_tier_models, train_tiered),
                   "tvgae": (make_variational_tier_models, train_tiered_variational)}[model]
    items = corpus_items(load_corpus(corpus_path))
    models = make(items[0][0].x.shape[1], cfg)
    train(models, items, cfg)
    expected = params_state([p for m in models for p in m.params()])
    assert json.loads(ckpt.read_text())["params"] == expected
