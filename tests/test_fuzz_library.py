"""Fuzz the library entry points: `train_tiered`, `train_tiered_variational`,
`encode_tiered` and `encode_tiered_variational`, called from Python.

Each example draws what a Python caller hands them: training's items or
inference's graph and membership lists, a model list and a `RunConfig`.
Each is drawn from well-formed values and odd ones: an item that is not a
(Graph, MembershipMatrix) pair, an entry that is not a Graph or not a
MembershipMatrix, a graph with a one-way, repeated or out-of-range edge or
with one more node feature, a membership with a row too many, a model list
of the wrong length, order, flavor or input width, and `RunConfig` fields
of the wrong type or out of bounds, built by the constructor or through
`dataclasses.replace`. Every call must return a result of the right form
or raise a TiergaeError: the library refuses what the CLI refuses.
`test_a_refused_input_raises_a_tiergae_error` holds the inputs that once
escaped as other errors, as explicit examples.

The calls run under `np.errstate(over="ignore", invalid="ignore")`, as
`cli.cmd_train` does: a valid learning rate of 1e308 diverges, and the run
must end at the loss check that names tier and epoch, not in numpy's
overflow warning (which the suite turns into an error). The graphs have at
most four nodes and the valid configs train one or two epochs of a narrow
model, so every tier is one stack and nothing forks.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiergae.errors import ConfigError, ShapeMismatchError, TiergaeError
from tiergae.graphs import Graph, MembershipMatrix
from tiergae.tgae import (
    RunConfig,
    TieredRepresentation,
    encode_tiered,
    make_tier_models,
    train_tiered,
)
from tiergae.tvgae import (
    encode_tiered_variational,
    make_variational_tier_models,
    train_tiered_variational,
)

D_IN = 3  # the node-feature width of every well-formed graph
MODEL_CFG = RunConfig(hidden=3, d_z=2)
FLAVORS = {
    "tgae": (make_tier_models, train_tiered, encode_tiered),
    "tvgae": (make_variational_tier_models, train_tiered_variational,
              encode_tiered_variational),
}
HUGE = 10**400  # an int past the float range

# per field, values a run takes (kept cheap) and values it must refuse
VALID_FIELDS = {
    "model": ["tgae", "tvgae"],
    "seed": [0, 7],
    "epochs": [1, 2],
    "lr": [0.01, 1.0, 1e308],
    "hidden": [1, 3],
    "d_z": [1, 2],
    "kl_weight": [1.0, 0.5, 1e308],
    "k": [2, 3],
}
ODD_VALUES = [None, True, 0, -1, 2.5, -0.0, 0.0, "1", math.nan, math.inf, -math.inf, HUGE,
              -HUGE, 7, 1025, 2**63, "vae", [], 1e-300]


def two_way(pairs):
    return [[i for i, j in pairs] + [j for i, j in pairs],
            [j for i, j in pairs] + [i for i, j in pairs]]


def fault(draw, kinds: list):
    """One of `kinds` one time in eight, else None: most parts are drawn
    well formed, so that most examples reach the tier path."""
    return draw(st.sampled_from(kinds)) if draw(st.integers(0, 7)) == 7 else None


@st.composite
def graphs(draw) -> Graph:
    """A graph of one to four nodes and D_IN node features with undirected
    edges, or one that breaks an invariant or is wider."""
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bonds = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    x = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n * D_IN, max_size=n * D_IN)))
    edge_index = two_way(bonds)
    defect = fault(draw, ["one-way", "repeated", "out-of-range", "wide"])
    if defect == "one-way":
        edge_index = [edge_index[0] + [0], edge_index[1] + [n - 1]]
    elif defect == "repeated":
        edge_index = [edge_index[0] + [0, 0], edge_index[1] + [n - 1, n - 1]]
    elif defect == "out-of-range":
        edge_index = two_way(bonds + [(0, n)])
    elif defect == "wide":
        x = np.concatenate([x, np.ones(n)])
    width = D_IN + (defect == "wide")
    edge_index = np.array(edge_index, dtype=np.int64).reshape(2, -1)
    return Graph(x=x.reshape(n, width), edge_index=edge_index,
                 edge_attr=np.ones((edge_index.shape[1], 1)))


@st.composite
def graph_entries(draw):
    """A graph, or an odd value in its place."""
    odd = fault(draw, [None, {}, "g"])
    return draw(graphs()) if odd is None else odd


@st.composite
def memberships(draw, n: int):
    """A membership of n nodes, or one of n + 1 nodes, or an odd value in
    its place."""
    kind = fault(draw, ["rows", "odd"])
    if kind == "odd":
        return draw(st.sampled_from([None, {}, 0, "m", np.zeros(n, dtype=np.int64)]))
    rows = n + (kind == "rows")
    labels = draw(st.lists(st.integers(0, rows - 1), min_size=rows, max_size=rows))
    _, group = np.unique(labels, return_inverse=True)
    return MembershipMatrix(group.astype(np.int64), int(group.max()) + 1)


@st.composite
def items(draw):
    """A (Graph, MembershipMatrix) pair, or something else in its place."""
    graph = draw(graphs())
    m = draw(memberships(graph.num_nodes))
    kind = fault(draw, ["list", "short", "long", "swapped", "bare", "dict"])
    return {None: (graph, m), "list": [graph, m], "short": (graph,), "long": (graph, m, m),
            "swapped": (m, graph), "bare": graph, "dict": ({"x": graph.x}, m)}[kind]


@st.composite
def model_lists(draw, flavor: str):
    """The three tier models of `flavor`, or a list that breaks the rule:
    reordered, cut, extended, with an entry of the other flavor or None, or
    built for another input width."""
    kind = fault(draw, ["reversed", "cut", "extended", "other", "none", "width"])
    models = FLAVORS[flavor][0](D_IN + (kind == "width"), MODEL_CFG)
    other = FLAVORS["tvgae" if flavor == "tgae" else "tgae"][0](D_IN, MODEL_CFG)
    if kind == "reversed":
        return models[::-1]
    if kind == "cut":
        return models[:2]
    if kind == "extended":
        return models + models[2:]
    if kind in ("other", "none"):
        tier = draw(st.integers(0, 2))
        models[tier] = other[tier] if kind == "other" else None
    return models


@st.composite
def config_builds(draw):
    """A function that builds a RunConfig with some fields drawn, a field's
    value one time in four from ODD_VALUES, by the constructor or by
    `dataclasses.replace` of a valid one."""
    chosen = draw(st.lists(st.sampled_from(sorted(VALID_FIELDS)), unique=True, max_size=3))
    values = {name: draw(st.sampled_from(VALID_FIELDS[name] + ODD_VALUES)
                         if draw(st.integers(0, 3)) == 3
                         else st.sampled_from(VALID_FIELDS[name]))
              for name in chosen}
    base = dict(epochs=1, hidden=2, d_z=2)
    if draw(st.booleans()):
        return lambda: RunConfig(**{**base, **values})
    return lambda: replace(RunConfig(**base), **values)


def outcome(call):
    """The result of call(), or the TiergaeError it raises; any other
    exception fails the example."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return call()
    except TiergaeError as exc:
        return exc


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_training_returns_histories_or_raises_a_tiergae_error(data):
    flavor = data.draw(st.sampled_from(sorted(FLAVORS)))
    models = data.draw(model_lists(flavor))
    corpus = data.draw(st.lists(items(), min_size=1, max_size=3))
    build = data.draw(config_builds())
    train = FLAVORS[flavor][1]
    cfg = outcome(build)
    if isinstance(cfg, TiergaeError):
        assert isinstance(cfg, ConfigError)
        return
    if cfg.epochs > 2:  # valid (2**63 and 10**400 are too), but too long a run
        cfg = replace(cfg, epochs=2)
    result = outcome(lambda: train(models, corpus, cfg))
    if not isinstance(result, TiergaeError):
        assert sorted(result) == [1, 2, 3]
        assert all(len(history) == cfg.epochs for history in result.values())


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_inference_returns_representations_or_raises_a_tiergae_error(data):
    flavor = data.draw(st.sampled_from(sorted(FLAVORS)))
    models = data.draw(model_lists(flavor))
    gs = data.draw(st.lists(graph_entries(), max_size=3))
    ms = [data.draw(memberships(g.num_nodes if isinstance(g, Graph) else 2)) for g in gs]
    count = fault(data.draw, ["fewer", "more"])
    if count == "fewer":
        ms = ms[:-1]
    elif count == "more":
        ms.append(data.draw(memberships(2)))
    encode = FLAVORS[flavor][2]
    # a lone Graph and its membership give its one representation
    alone = bool(gs) and isinstance(gs[0], Graph) and data.draw(st.booleans())
    result = outcome(lambda: encode(gs[0], ms[0] if ms else None, models) if alone
                     else encode(gs, ms, models))
    if isinstance(result, TiergaeError):
        return
    for rep in [result] if alone else result:
        assert isinstance(rep, TieredRepresentation) and len(rep.tiers) == 3
    if not alone:
        assert len(result) == len(gs)


# --------------------------------------------------------------- examples

TWO_NODES = Graph(x=np.ones((2, D_IN)), edge_index=np.array([[0, 1], [1, 0]]),
                  edge_attr=np.ones((2, 1)))
ONE_GROUP = MembershipMatrix(np.zeros(2, dtype=np.int64), 1)
CFG = RunConfig(epochs=1, hidden=2, d_z=2)


def train_tgae(corpus, models=None):
    return train_tiered(models or make_tier_models(D_IN, CFG), corpus, CFG)


def encode_tgae(gs, ms, models=None):
    return encode_tiered(gs, ms, models or make_tier_models(D_IN, CFG))


@pytest.mark.parametrize("call, error, message", [
    (lambda: train_tgae([(TWO_NODES,)]), ShapeMismatchError,
     r"item #0 is not a \(Graph, MembershipMatrix\) pair"),
    (lambda: train_tgae([(TWO_NODES, ONE_GROUP), TWO_NODES]), ShapeMismatchError,
     r"item #1 is not a \(Graph, MembershipMatrix\) pair"),
    (lambda: train_tgae([(TWO_NODES, None)]), ShapeMismatchError,
     "membership #0 is a NoneType, not a MembershipMatrix"),
    (lambda: encode_tgae([TWO_NODES], [None]), ShapeMismatchError,
     "membership #0 is a NoneType, not a MembershipMatrix"),
    (lambda: train_tgae([({"x": TWO_NODES.x}, ONE_GROUP)]), ShapeMismatchError,
     "graph #0 is a dict, not a Graph"),
    (lambda: encode_tgae([TWO_NODES, None], [ONE_GROUP, ONE_GROUP]), ShapeMismatchError,
     "graph #1 is a NoneType, not a Graph"),
    (lambda: RunConfig(epochs=-1), ConfigError,
     "config field 'epochs': must be strictly positive"),
    (lambda: RunConfig(kl_weight=-1.0), ConfigError,
     "config field 'kl_weight': must be strictly positive"),
    (lambda: RunConfig(hidden=0), ConfigError,
     "config field 'hidden': must be strictly positive"),
    (lambda: RunConfig(k=0), ConfigError, "config field 'k': must be strictly positive"),
    (lambda: replace(CFG, k=1), ConfigError, r"config field 'k': must be in \[2, 6\], got 1"),
    (lambda: train_tgae([(TWO_NODES, ONE_GROUP)], make_tier_models(D_IN, CFG)[::-1]),
     ShapeMismatchError, "expected models for tiers 1, 2, 3 in order"),
    (lambda: encode_tgae([TWO_NODES], [ONE_GROUP], make_tier_models(D_IN, CFG)[:2]),
     ShapeMismatchError, "expected models for tiers 1, 2, 3 in order"),
    (lambda: train_tiered_variational(make_tier_models(D_IN, CFG), [(TWO_NODES, ONE_GROUP)],
                                      CFG),
     ShapeMismatchError, "expected models for tiers 1, 2, 3 in order"),
    (lambda: train_tgae([]), ConfigError, "empty corpus"),
], ids=["short-item", "bare-graph", "train-none-membership", "encode-none-membership",
        "dict-graph", "encode-none-graph", "negative-epochs", "negative-kl-weight",
        "zero-hidden", "zero-k", "replace-k", "reversed-models", "two-models",
        "other-flavor", "empty-corpus"])
def test_a_refused_input_raises_a_tiergae_error(call, error, message):
    # each error is also a ValueError, as the bare errors it replaces were
    with pytest.raises(error, match=f"^{message}$") as info:
        call()
    assert isinstance(info.value, ValueError)
