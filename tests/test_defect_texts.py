"""One text per graph defect. `graphs.first_defect` decides which graphs
the tier path takes, and each defect it finds has one text T: the corpus
(`cli.corpus_items`) reports `<molecule name>: T` in a ConfigError, and
every library entry point raises `graph #k: T` in the defect's own error
class. Each case puts one bad graph after a good one, so k is 1."""

import numpy as np
import pytest

from tiergae import graphs
from tiergae.cli import array_to_json, corpus_items
from tiergae.errors import (
    AsymmetricEdgeError,
    ConfigError,
    DomainError,
    DuplicateEdgeError,
    IndexOutOfRangeError,
    ShapeMismatchError,
)
from tiergae.graphs import Graph, MembershipMatrix, first_defect
from tiergae.tgae import RunConfig, encode_tiered, make_tier_models, train_tiered
from tiergae.tvgae import (
    encode_tiered_variational,
    make_variational_tier_models,
    train_tiered_variational,
)

MAX_ATOMS = 3  # the bound while these tests run, so that four atoms are too many
CFG = RunConfig(epochs=1, hidden=2, d_z=2)


def graph(n: int = 2, width: int = 3, pairs=((0, 1), (1, 0)), attr=None) -> Graph:
    attr = np.ones((len(pairs), 1)) if attr is None else np.asarray(attr, dtype=np.float64)
    edge_index = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return Graph(x=np.ones((n, width)), edge_index=edge_index, edge_attr=attr)


def one_group(n: int) -> MembershipMatrix:
    return MembershipMatrix(np.zeros(n, dtype=np.int64), 1 if n else 0)


GOOD = graph()

# kind: the bad graph, its membership (None: all its nodes in one group),
# the error class of its defect and the defect's text
CASES = {
    "one-way edge": (graph(pairs=[(0, 1)]), None, AsymmetricEdgeError,
                     "MissingReverseEdge: (0, 1) present but (1, 0) absent"),
    "asymmetric features": (graph(attr=[[1.0], [2.0]]), None, AsymmetricEdgeError,
                            "AsymmetricEdgeAttr: edge features of (0, 1) and (1, 0) differ"),
    "repeated edge": (graph(pairs=[(0, 1), (1, 0), (0, 1)]), None, DuplicateEdgeError,
                      "DuplicateEdge: entry (0, 1) repeated at edge 2"),
    "out-of-range edge": (graph(pairs=[(0, 1), (1, 0), (0, 2), (2, 0)]), None,
                          IndexOutOfRangeError,
                          "IndexOutOfRange: edge 2 references (0, 2), N=2"),
    "too many atoms": (graph(n=4), None, DomainError,
                       f"TooManyAtoms: 4 atoms, more than MAX_ATOMS = {MAX_ATOMS}"),
    "no atoms": (graph(n=0, pairs=[]), None, ShapeMismatchError,
                 "x has shape (0, 3), no atoms or features"),
    "no features": (graph(width=0), None, ShapeMismatchError,
                    "x has shape (2, 0), no atoms or features"),
    "pooled overflow": (graph(attr=[[1e308], [1e308]]), None, DomainError,
                        "edge features too large to pool"),
    "other width": (graph(width=4), None, ShapeMismatchError,
                    "4 node features, the first molecule has 3"),
    # a corpus builds each membership from its graph's row count
    "membership rows": (GOOD, one_group(3), ShapeMismatchError,
                        "membership rows 3 != node count 2"),
}


@pytest.fixture(autouse=True)
def small_max_atoms(monkeypatch):
    monkeypatch.setattr(graphs, "MAX_ATOMS", MAX_ATOMS)


def entry(name: str, g: Graph) -> dict:
    return {"id": name, "x": array_to_json(g.x), "edge_index": array_to_json(g.edge_index),
            "edge_attr": array_to_json(g.edge_attr),
            "groups": [list(range(g.num_nodes))] if g.num_nodes else []}


def case(kind: str):
    bad, m, error, text = CASES[kind]
    return bad, one_group(bad.num_nodes) if m is None else m, error, text


@pytest.mark.parametrize("kind", sorted(CASES))
def test_first_defect_gives_the_one_text(kind):
    bad, m, error, text = case(kind)
    index, found = first_defect([GOOD, bad], [one_group(2), m])
    assert index == 1 and type(found) is error and str(found) == text


@pytest.mark.parametrize("kind", sorted(set(CASES) - {"membership rows"}))
def test_the_corpus_names_the_molecule_before_the_text(kind):
    bad, _, _, text = case(kind)
    with pytest.raises(ConfigError) as info:
        corpus_items([entry("good", GOOD), entry("bad", bad)])
    assert type(info.value) is ConfigError
    assert str(info.value) == f"corpus molecule 'bad': {text}"


@pytest.mark.parametrize("call", [
    lambda gs, ms: train_tiered(make_tier_models(3, CFG), list(zip(gs, ms)), CFG),
    lambda gs, ms: encode_tiered(gs, ms, make_tier_models(3, CFG)),
    lambda gs, ms: train_tiered_variational(make_variational_tier_models(3, CFG),
                                            list(zip(gs, ms)), CFG),
    lambda gs, ms: encode_tiered_variational(gs, ms, make_variational_tier_models(3, CFG)),
], ids=["train", "encode", "train-variational", "encode-variational"])
@pytest.mark.parametrize("kind", sorted(CASES))
def test_the_library_names_the_graph_before_the_text(kind, call):
    bad, m, error, text = case(kind)
    with pytest.raises(error) as info:
        call([GOOD, bad], [one_group(2), m])
    assert type(info.value) is error
    assert str(info.value) == f"graph #1: {text}"
