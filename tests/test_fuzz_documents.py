"""Fuzz the documents and flags that `train` and `embed` read, through `main`.

Each example changes one field of vanillin's corpus, of a checkpoint trained
on it or of a config file, or draws a set of `train` flags, and runs the
command through `main([...])`. It must exit 0 or 2: a malformed input is a
TiergaeError, never a traceback. A field is changed by replacing it with an
odd value, removing it, or adding an extra key or element next to it.
Ingest's SDF bytes are fuzzed in test_cli.py.

One-field changes keep a corpus's bonds symmetric only by leaving them be.
A second corpus strategy redraws every bond's edge-feature value over 24
decades and both signs, the same value both ways, so the corpus stays
valid, and groups the atoms anew: vanillin's own groups share one bond per
pair, and a pooled cell needs three or more terms to round apart from its
mirror. `embed`'s exports must then
hold undirected graphs at every tier.

The corpus holds one molecule, so each tier trains one stack and nothing
forks; the runs are two epochs of a narrow model, a few milliseconds each.
"""

import copy
import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from tiergae.cli import array_to_json, cmd_ingest, cmd_train, json_to_array, validate_config
from tiergae.cli import main as cli_main
from tiergae.tgae import RunConfig

from conftest import VANILLIN_SDF, export_violations

SMALL = ["--epochs", "2", "--hidden", "4", "--d-z", "2"]
HUGE = str(10**400)  # an int past the float range

# a field's wrong types, ints past int64 and past float64, signed zero,
# NaN and the infinities (as the JSON tokens and as strings), and empties
ODD_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, -1, 1, 2**31, 2**63, -2**63 - 1, 10**400, 0.5,
                     -0.0, 1e308, -1e308, 5e-324, math.nan, math.inf, -math.inf, "NaN",
                     "Infinity", "", "tgae", [], {}, [[]], [0], [2**63], [-1, 3],
                     {"shape": [], "data": []}, {"shape": [0], "data": []}]),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(-2, 40), max_size=3),
)


def main(argv: list[str]) -> int:
    """`cli.main`'s exit code, with argparse's usage error as its 2."""
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code


def places(doc, path=()):
    """The path of every value in a JSON document, the root first; of a
    number array's data, only the first two and the last element."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
        if path and path[-1] == "data" and len(doc) > 3:
            items = [(0, doc[0]), (1, doc[1]), (len(doc) - 1, doc[-1])]
    else:
        items = ()
    for key, value in items:
        yield from places(value, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def one_field_changed(draw, doc):
    """`doc` with the value at one place replaced by an odd value, removed,
    or (a dict or list) given an extra key or element."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(places(doc))))
    target = at(doc, path)
    kinds = ["replace"] + ["remove"] * bool(path) + ["extra"] * isinstance(target, (dict, list))
    kind = draw(st.sampled_from(kinds))
    if kind == "extra" and isinstance(target, dict):
        target["extra"] = draw(ODD_VALUES)
    elif kind == "extra":
        target.insert(draw(st.integers(0, len(target))), draw(ODD_VALUES))
    elif kind == "remove":
        del at(doc, path[:-1])[path[-1]]
    elif path:
        at(doc, path[:-1])[path[-1]] = draw(ODD_VALUES)
    else:
        doc = draw(ODD_VALUES)
    return doc


@pytest.fixture(scope="module")
def documents(tmp_path_factory) -> dict:
    """Vanillin's corpus and a two-epoch checkpoint of each flavor, paths and
    parsed documents."""
    root = tmp_path_factory.mktemp("documents")
    corpus = cmd_ingest([VANILLIN_SDF], root / "corpus.json")
    docs = {"corpus": corpus, "corpus_doc": json.loads(corpus.read_text())}
    for flavor in ("tgae", "tvgae"):
        cfg = validate_config(RunConfig(model=flavor, epochs=2, hidden=4, d_z=2))
        checkpoint, _ = cmd_train(cfg, corpus, root / f"{flavor}.json")
        docs[flavor] = json.loads(checkpoint.read_text())
    return docs


def write(tmp: str, name: str, doc) -> str:
    path = Path(tmp) / name
    path.write_text(json.dumps(doc))  # NaN and the infinities as their JSON tokens
    return str(path)


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_train_and_embed_of_a_changed_corpus_exit_0_or_2(documents, data):
    doc = data.draw(one_field_changed(documents["corpus_doc"]))
    flavor = data.draw(st.sampled_from(("tgae", "tvgae")))
    with tempfile.TemporaryDirectory() as tmp:
        corpus = write(tmp, "corpus.json", doc)
        checkpoint = write(tmp, "model.json", documents[flavor])
        assert main(["train", corpus, "--model", flavor, *SMALL,
                     "--out", f"{tmp}/out/model.json"]) in (0, 2)
        assert main(["embed", corpus, "--checkpoint", checkpoint,
                     "--out", f"{tmp}/export"]) in (0, 2)


# an edge-feature value over 24 decades, of either sign
BOND_VALUES = st.builds(lambda sign, mantissa, decade: sign * mantissa * 10.0 ** decade,
                        st.sampled_from([-1.0, 1.0]), st.floats(1.0, 10.0, exclude_max=True),
                        st.integers(-8, 16))


@st.composite
def bond_values_redrawn(draw, doc):
    """`doc` with each bond's nonzero edge features set to one value of
    BOND_VALUES, the same in both directions, and (unless it keeps them)
    its atoms grouped anew into one to four groups."""
    doc = copy.deepcopy(doc)
    mol = doc["molecules"][0]
    edges = json_to_array(mol["edge_index"], dtype=np.int64).T.tolist()
    attr = json_to_array(mol["edge_attr"])
    bonds = sorted({(min(e), max(e)) for e in edges})
    values = dict(zip(bonds, draw(st.lists(BOND_VALUES, min_size=len(bonds),
                                           max_size=len(bonds)))))
    for row, e in zip(attr, edges):
        row[row != 0.0] = values[min(e), max(e)]
    mol["edge_attr"] = array_to_json(attr)
    if draw(st.booleans()):
        n = mol["x"]["shape"][0]
        label = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        mol["groups"] = [[i for i in range(n) if label[i] == k] for k in sorted(set(label))]
    return doc


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_train_and_embed_of_redrawn_bond_values_export_undirected_tiers(documents, data):
    doc = data.draw(bond_values_redrawn(documents["corpus_doc"]))
    flavor = data.draw(st.sampled_from(("tgae", "tvgae")))
    with tempfile.TemporaryDirectory() as tmp:
        corpus = write(tmp, "corpus.json", doc)
        checkpoint = write(tmp, "model.json", documents[flavor])
        assert main(["train", corpus, "--model", flavor, *SMALL,
                     "--out", f"{tmp}/out/model.json"]) in (0, 2)
        code = main(["embed", corpus, "--checkpoint", checkpoint, "--out", f"{tmp}/export"])
        assert code in (0, 2)
        if code == 0:
            assert export_violations(f"{tmp}/export") == []


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_embed_with_a_changed_checkpoint_exits_0_or_2(documents, data):
    doc = data.draw(one_field_changed(documents[data.draw(st.sampled_from(("tgae", "tvgae")))]))
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = write(tmp, "model.json", doc)
        assert main(["embed", str(documents["corpus"]), "--checkpoint", checkpoint,
                     "--out", f"{tmp}/export"]) in (0, 2)


# the text of a config value: one the field takes, or an odd one
CONFIG_TEXT = st.one_of(
    st.sampled_from(["1", "2", "0", "-1", "0.5", "-0.0", "nan", "inf", "-inf", "1e400",
                     "2147483648", "9223372036854775808", HUGE, f"-{HUGE}", "1_000", "tgae",
                     "tvgae", "",
                     "true", "0x10", " 3 "]),
    st.text(alphabet="0123456789.-+eE_ xn", max_size=6),
)
CONFIG_KEYS = st.sampled_from([f.name for f in fields(RunConfig)] + ["extra", "", "epochs epochs"])


@settings(deadline=None, max_examples=100)
@given(lines=st.lists(st.tuples(CONFIG_KEYS, st.sampled_from(["=", " = ", "", "=="]),
                                CONFIG_TEXT), max_size=3))
def test_train_with_a_drawn_config_file_exits_0_or_2(documents, lines):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        config.write_text("".join(f"{key}{sep}{value}\n" for key, sep, value in lines))
        # the flags keep the run small unless the file's line is the bad one
        assert main(["train", str(documents["corpus"]), "--config", str(config), *SMALL,
                     "--out", f"{tmp}/model.json"]) in (0, 2)


# train flags with a value each: the cheap values a run takes, and odd ones
FLAG_VALUES = {
    "--epochs": ["1", "3", "0", "-1", "1.5", "nan", f"-{HUGE}"],
    "--lr": ["0.01", "1e308", "0", "-0.0", "-1", "nan", "inf", "5e-324", "x"],
    "--hidden": ["1", "3", "0", "-2", "1025", "2147483648", "9223372036854775808", "1e3", HUGE],
    "--d-z": ["1", "2", "0", "-1", "1025", "9223372036854775808", "", HUGE],
    "--kl-weight": ["1", "0.5", "0", "-1", "nan", "-inf", "1e308"],
    "--k": ["2", "3", "1", "7", "0", "-3", HUGE],
    "--seed": ["0", "7", "-1", "9223372036854775808", "1e2", HUGE],
    "--model": ["tgae", "tvgae", "vae", ""],
}


@settings(deadline=None, max_examples=100)
@given(flags=st.fixed_dictionaries({}, optional={flag: st.sampled_from(values)
                                                 for flag, values in FLAG_VALUES.items()}))
def test_train_with_drawn_flags_exits_0_or_2(documents, flags):
    # the epoch count and widths stay small unless drawn, so no run is long
    argv = {**dict(zip(SMALL[::2], SMALL[1::2])), **flags}
    with tempfile.TemporaryDirectory() as tmp:
        assert main(["train", str(documents["corpus"]),
                     *(f"{flag}={value}" for flag, value in argv.items()),
                     "--out", f"{tmp}/model.json"]) in (0, 2)
