"""Training on stacks of same-size graphs against one graph at a time, one
tape per stack against one tape per epoch, and the fused tape ops against
the unfused ones they replaced."""

import copy

import numpy as np
import pytest

from tiergae import tgae, tvgae
from tiergae.autodiff import Tape, seeded_rng
from tiergae.errors import DomainError
from tiergae.tgae import (
    NOISE_ROLE,
    RunConfig,
    fit_tier,
    make_tier_models,
    stack_samples,
    tier_sample,
)
from tiergae.tvgae import make_variational_tier_models

from oracles import (
    assert_same_bits,
    bce_logits_two_softplus,
    decode_adjacency_matmul,
    fit_tier_one_tape,
    fit_tier_per_graph,
    mixed_size_samples,
)

# repeated sizes (3, 5), a singleton size (4) and a one-node graph
SIZES = (3, 5, 1, 3, 4, 5, 3)
D_IN = 4
D_Z = 3


def corpus(seed=0):
    return mixed_size_samples(np.random.default_rng(seed), SIZES, D_IN)


@pytest.fixture()
def one_process(monkeypatch):
    """Train in the calling process alone, so a spy sees every stack; the
    stacks of forked workers are checked against this loop bit for bit in
    test_train_workers.py."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})


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


def test_stacking_drops_the_targets_and_refuses_a_stacked_sample():
    samples = corpus()
    stacks = stack_samples(samples)
    assert all(s.target is None for s in samples)
    assert all(st.bce.c1.shape == st.a_norm.shape for st in stacks)
    with pytest.raises(ValueError, match="^sample 0 was stacked for training already$"):
        stack_samples(samples)


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


def flavor_setup(flavor):
    """A tier-1 model, a run config and a factory of its noise generator."""
    if flavor == "tgae":
        model = make_tier_models(D_IN, RunConfig(hidden=6, d_z=D_Z, seed=3))[0]
        return model, RunConfig(epochs=12, lr=0.01), lambda: None
    model = make_variational_tier_models(D_IN, RunConfig(hidden=6, d_z=D_Z, seed=3))[0]
    return (model, RunConfig(epochs=12, lr=0.01, kl_weight=0.5),
            lambda: seeded_rng(3, 1, NOISE_ROLE))


@pytest.mark.parametrize("flavor", ["tgae", "tvgae"])
def test_stacked_training_matches_one_graph_at_a_time(flavor):
    model, config, rng = flavor_setup(flavor)
    reference = copy.deepcopy(model)
    stacked = fit_tier(model, corpus(), config, rng())
    one_by_one = fit_tier_per_graph(reference, corpus(), config, rng())
    assert len(stacked) == 12
    assert max(abs(a - b) for a, b in zip(stacked, one_by_one)) <= 1e-12
    for p, q in zip(model.params(), reference.params()):
        assert np.abs(p.value - q.value).max() <= 1e-12


def test_each_graph_gets_its_per_graph_noise(monkeypatch, one_process):
    seen = []

    def spy(tape, mu, logsigma, noise):
        seen.append(noise.copy())
        return reparameterize(tape, mu, logsigma, noise)

    reparameterize = tvgae.reparameterize
    monkeypatch.setattr(tvgae, "reparameterize", spy)
    model = make_variational_tier_models(D_IN, RunConfig(hidden=5, d_z=D_Z, seed=4))[0]
    epochs = 3
    fit_tier(model, corpus(), RunConfig(epochs=epochs), seeded_rng(4, 1, NOISE_ROLE))

    # each epoch processes the stacks in reverse order
    stacks = stack_samples(corpus())[::-1]
    assert len(seen) == epochs * len(stacks)
    per_graph = seeded_rng(4, 1, NOISE_ROLE)
    for epoch in range(epochs):
        draws = [per_graph.standard_normal((n, D_Z)) for n in SIZES]
        for st, noise in zip(stacks, seen[epoch * len(stacks):]):
            for j, i in enumerate(st.index):
                assert np.array_equal(noise[j], draws[i])


@pytest.mark.parametrize("flavor", ["tgae", "tvgae"])
def test_one_tape_per_stack_matches_one_tape_per_epoch_bit_for_bit(flavor):
    model, config, rng = flavor_setup(flavor)
    reference = copy.deepcopy(model)
    streamed = fit_tier(model, corpus(), config, rng())
    one_tape = fit_tier_one_tape(reference, corpus(), config, rng())
    assert_same_bits(np.array(streamed), np.array(one_tape))
    for p, q in zip(model.params(), reference.params()):
        assert_same_bits(p.value, q.value)


@pytest.mark.parametrize("flavor", ["tgae", "tvgae"])
def test_each_tape_holds_one_stack(flavor, monkeypatch, one_process):
    tapes = []

    def spy(tape, loss_node):
        tapes.append((tape.nodes[0].value.copy(), len(tape.nodes)))
        return backward(tape, loss_node)

    backward = Tape.backward
    monkeypatch.setattr(Tape, "backward", spy)
    model, config, rng = flavor_setup(flavor)
    fit_tier(model, corpus(), config, rng())

    def one_stack_nodes(st):
        """Nodes on a tape that records the scaled loss of stack st alone."""
        tape = Tape()
        noise = np.zeros(st.x.shape[:2] + (D_Z,)) if flavor == "tvgae" else None
        loss, _ = model.loss(tape, tape.const(st.x), tape.const(st.a_norm), st.bce,
                             config, noise)
        tape.scalar_mul(1.0, loss)
        return len(tape.nodes)

    stacks = stack_samples(corpus())
    assert len(tapes) == config.epochs * len(stacks)
    for k, (x, nodes) in enumerate(tapes):
        st = stacks[-1 - k % len(stacks)]  # reverse order, every epoch
        assert np.array_equal(x, st.x)
        assert nodes == one_stack_nodes(st)


@pytest.mark.parametrize("flavor", ["tgae", "tvgae"])
def test_nan_in_one_stack_raises_at_epoch_0_before_any_update(flavor):
    model, config, rng = flavor_setup(flavor)
    samples = corpus()
    samples[4].x[1, 2] = np.nan  # the only graph of size 4, so one stack of the four
    initial = [p.value.copy() for p in model.params()]
    with pytest.raises(DomainError, match=r"^tier 1: epoch 0 loss is nan$"):
        fit_tier(model, samples, config, rng())
    for p, before in zip(model.params(), initial):
        assert_same_bits(p.value, before)


def large_corpus(seed=0):
    """The mixed-size corpus plus a graph of 200 nodes and a one-node graph
    with a self-loop, whose target is [[1]] like a tier-3 sample's."""
    rng = np.random.default_rng(seed)
    samples = mixed_size_samples(rng, SIZES + (200,), D_IN)
    samples.append(tier_sample(rng.standard_normal((1, D_IN)), np.ones((1, 1, 2))))
    return samples


@pytest.mark.parametrize("flavor", ["tgae", "tvgae"])
def test_training_matches_the_unfused_ops_bit_for_bit(flavor, monkeypatch):
    model, config, rng = flavor_setup(flavor)
    reference = copy.deepcopy(model)
    fused = fit_tier(model, large_corpus(), config, rng())
    monkeypatch.setattr(Tape, "bce_logits", bce_logits_two_softplus)
    monkeypatch.setattr(tgae, "decode_adjacency", decode_adjacency_matmul)
    monkeypatch.setattr(tvgae, "decode_adjacency", decode_adjacency_matmul)
    unfused = fit_tier(reference, large_corpus(), config, rng())
    assert len(fused) == config.epochs
    assert_same_bits(np.array(fused), np.array(unfused))
    for p, q in zip(model.params(), reference.params()):
        assert_same_bits(p.value, q.value)
