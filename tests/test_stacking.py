"""Training on stacks of same-size graphs against one graph at a time."""

import copy

import numpy as np
import pytest

from tiergae import tvgae
from tiergae.autodiff import seeded_rng
from tiergae.tgae import (
    NOISE_ROLE,
    TrainConfig,
    fit_tier,
    make_tier_models,
    stack_samples,
)
from tiergae.tvgae import VariationalTrainConfig, make_variational_tier_models

from oracles import fit_tier_per_graph, mixed_size_samples

# repeated sizes (3, 5), a singleton size (4) and a one-node graph
SIZES = (3, 5, 1, 3, 4, 5, 3)
D_IN = 4
D_Z = 3


def corpus(seed=0):
    return mixed_size_samples(np.random.default_rng(seed), SIZES, D_IN)


def test_stacks_group_by_size_in_sample_order():
    samples = corpus()
    stacks = stack_samples(samples)
    assert [s.index for s in stacks] == [[2], [0, 3, 6], [4], [1, 5]]
    starts = np.cumsum((0,) + SIZES)
    for st in stacks:
        n = st.x.shape[1]
        assert st.x.shape == (len(st.index), n, D_IN)
        assert st.a_norm.shape == st.bce.c1.shape == st.bce.c2.shape == (len(st.index), n, n)
        assert st.rows.tolist() == [starts[i] + k for i in st.index for k in range(n)]


def test_stacks_hold_the_only_copy_of_x_and_a_norm():
    samples = corpus()
    before = [(s.x.copy(), s.a_norm.copy()) for s in samples]
    stacks = stack_samples(samples)
    for st in stacks:
        for i in st.index:
            assert np.shares_memory(samples[i].x, st.x)
            assert np.shares_memory(samples[i].a_norm, st.a_norm)
            assert np.array_equal(samples[i].x, before[i][0])
            assert np.array_equal(samples[i].a_norm, before[i][1])


@pytest.mark.parametrize("flavor", ["tgae", "tvgae"])
def test_stacked_training_matches_one_graph_at_a_time(flavor):
    if flavor == "tgae":
        model = make_tier_models(D_IN, hidden=6, d_z=D_Z, seed=3)[0]
        config, rng = TrainConfig(epochs=12, lr=0.01), lambda: None
    else:
        model = make_variational_tier_models(D_IN, hidden=6, d_z=D_Z, seed=3)[0]
        config = VariationalTrainConfig(epochs=12, lr=0.01, kl_weight=0.5)
        rng = lambda: seeded_rng(3, 1, NOISE_ROLE)
    reference = copy.deepcopy(model)
    stacked = fit_tier(model, corpus(), config, rng())
    one_by_one = fit_tier_per_graph(reference, corpus(), config, rng())
    assert len(stacked) == 12
    assert max(abs(a - b) for a, b in zip(stacked, one_by_one)) <= 1e-12
    for p, q in zip(model.params(), reference.params()):
        assert np.abs(p.value - q.value).max() <= 1e-12


def test_each_graph_gets_its_per_graph_noise(monkeypatch):
    seen = []

    def spy(tape, mu, logsigma, noise):
        seen.append(noise.copy())
        return reparameterize(tape, mu, logsigma, noise)

    reparameterize = tvgae.reparameterize
    monkeypatch.setattr(tvgae, "reparameterize", spy)
    model = make_variational_tier_models(D_IN, hidden=5, d_z=D_Z, seed=4)[0]
    epochs = 3
    fit_tier(model, corpus(), VariationalTrainConfig(epochs=epochs), seeded_rng(4, 1, NOISE_ROLE))

    stacks = stack_samples(corpus())
    assert len(seen) == epochs * len(stacks)
    per_graph = seeded_rng(4, 1, NOISE_ROLE)
    for epoch in range(epochs):
        draws = [per_graph.standard_normal((n, D_Z)) for n in SIZES]
        for st, noise in zip(stacks, seen[epoch * len(stacks):]):
            for j, i in enumerate(st.index):
                assert np.array_equal(noise[j], draws[i])
