"""Inference and the training handoff on padded stacks against one graph at a
time, bit for bit.

Both stack a tier's graphs (`tgae.stack_samples`), embed the stacks
(`tgae.embed_stacks`) and pool every graph's rows in one scatter-add
(`tgae.pool_rows`); `oracles.encode_tiers_per_graph` and
`oracles.pool_samples_per_graph` are the per-graph chain they replaced. The
corpus has one-node graphs, graphs of one group (one node at tier 2) and
layer widths of 2 and 3, where a BLAS product over a padded shape would
round differently from the graph's own.
"""

import numpy as np
import pytest

from tiergae import tgae
from tiergae.errors import ShapeMismatchError
from tiergae.graphs import Graph, coo_to_dense, dense_to_coo
from tiergae.pooling import graph_tier_membership
from tiergae.tgae import (
    STACK_CELLS,
    RunConfig,
    encode_tiers,
    make_tier_models,
    pool_samples,
    stack_samples,
    tier_sample,
)
from tiergae.tvgae import make_variational_tier_models

from oracles import (
    assert_same_bits,
    encode_tiers_per_graph,
    pool_samples_per_graph,
    random_membership,
)

# node counts, with repeats, one-node graphs and a graph past 30 nodes
SIZES = (7, 1, 12, 7, 3, 20, 2, 12, 31, 5, 1, 9)
ONE_GROUP = {3, 9}  # graphs whose atoms form one group
D_IN, CHANNELS = 5, 3
# a stack per node count, stacks of a few small graphs, and the default
SMALL_BUDGET = 200
BUDGETS = (0, SMALL_BUDGET, STACK_CELLS)
WIDTHS = {"narrow": dict(hidden=3, d_z=2, k=3), "wide": dict(hidden=9, d_z=6, k=2)}


def corpus(seed=0) -> list[tuple[Graph, object]]:
    """Random undirected graphs with features and edge features over many
    decades, and their tier-1 memberships."""
    rng = np.random.default_rng(seed)
    items = []
    for i, n in enumerate(SIZES):
        upper = np.triu(rng.random((n, n)) < 0.3, k=1)
        a = rng.standard_normal((n, n, CHANNELS)) * 10.0 ** rng.integers(-4, 4, (n, n, 1))
        a = np.triu(a.transpose(2, 0, 1) * upper, k=1).transpose(1, 2, 0)
        a = a + a.transpose(1, 0, 2)
        x = rng.standard_normal((n, D_IN)) * 10.0 ** rng.integers(-4, 4, (n, D_IN))
        m = random_membership(rng, n, 1 if i in ONE_GROUP else 0)
        items.append((Graph(x, *dense_to_coo(a)), m))
    return items


def models_of(flavor: str, width: str):
    make = make_tier_models if flavor == "tgae" else make_variational_tier_models
    return make(D_IN, RunConfig(seed=5, **WIDTHS[width]))


def tier1_samples(items):
    return [tier_sample(g.x, coo_to_dense(g), m) for g, m in items]


def assert_padded_where_the_budget_allows(samples, budget):
    padded = [st for st in stack_samples(samples) if len(set(st.nodes.tolist())) > 1]
    assert bool(padded) == (budget > 0)


def assert_same_samples(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_bits(g.x, w.x)
        assert g.mask.dtype == w.mask.dtype and np.array_equal(g.mask, w.mask)
        if w.m is None:
            assert g.m is None and g.pooled_a is None
        else:
            assert np.array_equal(g.m.group, w.m.group) and g.m.num_groups == w.m.num_groups
            assert_same_bits(g.pooled_a, w.pooled_a)


@pytest.mark.parametrize("width", sorted(WIDTHS))
@pytest.mark.parametrize("flavor", ["tgae", "tvgae"])
@pytest.mark.parametrize("budget", BUDGETS)
def test_stacked_inference_matches_one_graph_at_a_time_bit_for_bit(monkeypatch, budget,
                                                                   flavor, width):
    monkeypatch.setattr(tgae, "STACK_CELLS", budget)
    items = corpus()
    models = models_of(flavor, width)
    assert_padded_where_the_budget_allows(tier1_samples(items), budget)
    reps = encode_tiers([g for g, _ in items], [m for _, m in items], models)
    assert len(reps) == len(items)
    for (graph, m1), rep in zip(items, reps):
        want = encode_tiers_per_graph(graph, m1, models)
        assert len(rep.tiers) == len(want.tiers) == 3
        for got, ref in zip(rep.tiers, want.tiers):
            assert_same_bits(got.x, ref.x)
            assert_same_bits(got.z, ref.z)
            assert np.array_equal(got.edge_index, ref.edge_index)
            assert_same_bits(got.edge_attr, ref.edge_attr)
            if ref.membership is None:
                assert got.membership is None
            else:
                assert np.array_equal(got.membership, ref.membership)


@pytest.mark.parametrize("width", sorted(WIDTHS))
@pytest.mark.parametrize("flavor", ["tgae", "tvgae"])
@pytest.mark.parametrize("budget", BUDGETS)
def test_the_handoff_matches_one_sample_at_a_time_bit_for_bit(monkeypatch, budget, flavor,
                                                              width):
    monkeypatch.setattr(tgae, "STACK_CELLS", budget)
    items = corpus(1)
    models = models_of(flavor, width)
    samples = reference = tier1_samples(items)
    for model, ms in zip(models, ([graph_tier_membership(m.num_groups) for _, m in items],
                                  [None] * len(items))):
        assert_padded_where_the_budget_allows(samples, budget)
        samples = pool_samples(model, samples, stack_samples(samples), ms)
        reference = pool_samples_per_graph(model, reference, ms)
        assert_same_samples(samples, reference)
    # every graph has one node at tier 3
    assert [s.x.shape[0] for s in samples] == [1] * len(items)


def test_embed_stacks_embeds_each_node_count_of_a_stack_once(monkeypatch):
    monkeypatch.setattr(tgae, "STACK_CELLS", STACK_CELLS)
    model = models_of("tgae", "wide")[0]
    calls = []
    real_embed = model.embed

    def embed(x, a_norm):
        calls.append(x.shape)
        return real_embed(x, a_norm)

    monkeypatch.setattr(model, "embed", embed)
    samples = tier1_samples(corpus())
    stacks = stack_samples(samples)
    z = tgae.embed_stacks(model, stacks)
    assert z.shape == (sum(SIZES), WIDTHS["wide"]["d_z"])
    want = [(SIZES.count(n), n, D_IN) for st in stacks for n in dict.fromkeys(st.nodes.tolist())]
    assert calls == want
    assert len(stacks) < len(calls) < len(samples)


def test_a_lone_graph_encodes_as_a_list_of_one():
    items = corpus()
    models = models_of("tvgae", "narrow")
    graph, m1 = items[5]
    lone = encode_tiers(graph, m1, models)
    listed, = encode_tiers([graph], [m1], models)
    for a, b in zip(lone.tiers, listed.tiers, strict=True):
        assert_same_bits(a.z, b.z)
    assert encode_tiers([], [], models) == []
    with pytest.raises(ValueError):
        encode_tiers([graph, graph], [m1], models)
    with pytest.raises(ShapeMismatchError, match="membership rows 20 != node count 7"):
        encode_tiers([items[0][0]], [m1], models)
