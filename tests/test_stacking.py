"""Training on padded stacks of graphs against one graph at a time, the
budget rule that cuts the stacks, the exactness of the padding, one tape
per stack against one tape per epoch, and the fused tape ops against the
unfused ones they replaced."""

import copy

import numpy as np
import pytest

from tiergae import tgae, tvgae
from tiergae.autodiff import Tape, seeded_rng
from tiergae.errors import DomainError, ShapeMismatchError
from tiergae.gcn import gcn_norm
from tiergae.tgae import (
    NOISE_ROLE,
    STACK_CELLS,
    RunConfig,
    bce_weights,
    fit_tier,
    make_tier_models,
    stack_samples,
    tier_sample,
)
from tiergae.tvgae import kl_divergence, make_variational_tier_models

from conftest import kl_value
from oracles import (
    assert_same_bits,
    bce_logits_two_softplus,
    decode_adjacency_matmul,
    fit_tier_one_tape,
    fit_tier_per_graph,
    mixed_size_samples,
)

# repeated sizes (3, 5), a singleton size (4) and a one-node graph: 7 * 5^2
# padded cells, one stack under the budget
SIZES = (3, 5, 1, 3, 4, 5, 3)
D_IN = 4
D_Z = 3
# a budget that cuts SIZES into [1, 3, 3, 3] padded to 3 nodes, [4] and [5, 5]
SMALL_BUDGET = 50


# the stacks of SIZES under a budget: a stack per node count, three stacks
# of which the first is padded, and the one padded stack of STACK_CELLS
BUDGET_STACKS = {0: 4, SMALL_BUDGET: 3, STACK_CELLS: 1}


def corpus(seed=0):
    return mixed_size_samples(np.random.default_rng(seed), SIZES, D_IN)


@pytest.fixture()
def one_process(monkeypatch):
    """Train in the calling process alone, so a spy sees every stack, with
    a stack per node count (a budget of 0 cells), so that it sees several,
    none padded; a spy test may set a budget of its own after this. The
    stacks of forked workers are checked against this loop bit for bit in
    test_train_workers.py."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(tgae, "STACK_CELLS", 0)


def stack_index(sizes, budget=STACK_CELLS):
    """The `index` of each stack of random graphs of `sizes`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tgae, "STACK_CELLS", budget)
        return [st.index for st in stack_samples(
            mixed_size_samples(np.random.default_rng(0), sizes, 2))]


def test_stacks_group_by_size_in_sample_order():
    samples = corpus()
    # each graph's own features, mask and normalized adjacency, made alone
    before = [(s.x.copy(), s.mask.copy(), gcn_norm(s.mask)) for s in samples]
    stacks = stack_samples(samples)
    # smallest node count first, sample order within a count, in one stack
    assert [s.index for s in stacks] == [[2, 0, 3, 6, 4, 1, 5]]
    st = stacks[0]
    bce = bce_weights(st.mask, st.nodes)
    b, n = 7, 5
    assert st.nodes.tolist() == [1, 3, 3, 3, 4, 5, 5]
    assert st.x.shape == (b, n, D_IN)
    assert st.mask.shape == st.a_norm.shape == bce.c1.shape == bce.c2.shape == (b, n, n)
    assert_same_bits(bce.inv_nodes, 1.0 / np.array([1, 3, 3, 3, 4, 5, 5]))
    assert bce.rows.shape == (b, n, 1)
    assert bce.count.tolist() == [1.0, 6.0, 6.0, 6.0, 12.0, 20.0, 20.0]
    starts = np.cumsum((0,) + SIZES)
    pad = starts[-1]  # the row of zeros past every graph's rows
    assert st.rows.tolist() == [starts[i] + k if k < SIZES[i] else pad
                                for i in st.index for k in range(n)]
    for j, i in enumerate(st.index):
        k = SIZES[i]
        x, mask, a_norm = before[i]
        assert_same_bits(st.x[j, :k], x)
        assert np.array_equal(st.mask[j, :k, :k], mask)
        assert_same_bits(st.a_norm[j, :k, :k], a_norm)
        want = bce_weights(mask)
        assert_same_bits(bce.c1[j, :k, :k], want.c1)
        assert_same_bits(bce.c2[j, :k, :k], want.c2)
        # zero past the graph's own rows and columns
        for arr in (st.mask[j], st.a_norm[j], bce.c1[j], bce.c2[j]):
            assert not arr[k:].any() and not arr[:, k:].any()
        assert not st.x[j, k:].any()
        assert bce.rows[j, :, 0].tolist() == [1.0] * k + [0.0] * (n - k)


def test_a_size_group_over_the_budget_is_a_stack_of_its_own():
    # three graphs of 60 nodes are 10,800 cells: alone, unpadded, never split
    sizes = (3, 60, 4, 60, 60, 70, 2)
    assert stack_index(sizes) == [[6, 0, 2], [1, 3, 4], [5]]


def test_a_lone_graph_over_the_budget_is_a_stack_of_its_own():
    # 91^2 = 8,281 cells are over the budget, 90^2 = 8,100 within it
    samples = mixed_size_samples(np.random.default_rng(1), (5, 91, 4, 92, 90), 2)
    x = samples[1].x.copy()
    stacks = stack_samples(samples)
    assert [st.index for st in stacks] == [[2, 0], [4], [1], [3]]
    assert stacks[2].x.shape == (1, 91, 2)
    assert_same_bits(stacks[2].x[0], x)


def test_one_node_graphs_pack_with_a_one_cell_mask():
    rng = np.random.default_rng(2)
    samples = mixed_size_samples(rng, (3,), 2)
    # one-node graphs with and without a self-loop, as at tier 3
    samples += [tier_sample(rng.standard_normal((1, 2)), np.full((1, 1, 2), loop))
                for loop in (1.0, 0.0)]
    st, = stack_samples(samples)
    bce = bce_weights(st.mask, st.nodes)
    assert st.index == [1, 2, 0]
    assert bce.count.tolist() == [1.0, 1.0, 6.0]
    for j, (c1, c2) in enumerate([(1.0, 0.0), (0.0, 1.0)]):
        assert bce.c1[j, 0, 0] == c1 and bce.c2[j, 0, 0] == c2
        for arr in (bce.c1[j], bce.c2[j], st.a_norm[j]):
            assert np.count_nonzero(arr.ravel()[1:]) == 0
    assert st.a_norm[0, 0, 0] > 0.0 and st.a_norm[1, 0, 0] > 0.0


def test_bce_weights_score_no_cell_past_a_graphs_nodes():
    mask = np.zeros((2, 3, 3), dtype=bool)
    mask[0, 0, 1] = mask[0, 1, 0] = True
    want = bce_weights(mask, [2, 3])
    assert want.count.tolist() == [2.0, 6.0]
    # an edge past the first graph's two nodes is neither target nor scored
    mask[0, 2, 0] = True
    got = bce_weights(mask, [2, 3])
    for a, b in ((got.c1, want.c1), (got.c2, want.c2), (got.count, want.count)):
        assert_same_bits(a, b)
    with pytest.raises(ShapeMismatchError):
        bce_weights(mask, [4, 3])


@pytest.mark.parametrize("seed", range(6))
def test_every_stack_is_a_union_of_consecutive_size_stacks(seed):
    rng = np.random.default_rng(seed)
    sizes = tuple(int(n) for n in rng.choice([1, 2, 5, 9, 20, 33, 40, 64, 65, 91],
                                             size=int(rng.integers(1, 16))))
    by_size = stack_index(sizes, budget=0)
    packed = stack_index(sizes)
    assert [i for index in packed for i in index] == [i for index in by_size for i in index]
    cuts = set(np.cumsum([len(index) for index in by_size]).tolist())
    assert set(np.cumsum([len(index) for index in packed]).tolist()) <= cuts
    for index in packed:
        n = max(sizes[i] for i in index)
        # a stack holds one node count, or stays within the budget
        assert len({sizes[i] for i in index}) == 1 or len(index) * n * n <= STACK_CELLS


def test_stacking_leaves_the_samples_as_they_are(monkeypatch):
    # training stacks a tier's samples and its handoff embeds those stacks;
    # inference stacks the samples it makes
    for budget in BUDGET_STACKS:
        monkeypatch.setattr(tgae, "STACK_CELLS", budget)
        samples = corpus()
        stacks = stack_samples(samples)
        again = stack_samples(samples)
        for s, fresh in zip(samples, corpus()):
            assert_same_bits(s.x, fresh.x)
            assert np.array_equal(s.mask, fresh.mask)
        assert len(stacks) == len(again) == BUDGET_STACKS[budget]
        for st, st2 in zip(stacks, again):
            assert st.index == st2.index
            for a, b in ((st.x, st2.x), (st.a_norm, st2.a_norm),
                         (bce_weights(st.mask, st.nodes).c1,
                          bce_weights(st2.mask, st2.nodes).c1)):
                assert_same_bits(a, b)


def test_a_stack_of_one_graph_holds_views_of_its_sample(monkeypatch):
    # a stack per node count: SIZES has one graph of 1 and one of 4 nodes
    monkeypatch.setattr(tgae, "STACK_CELLS", 0)
    samples = corpus()
    stacks = stack_samples(samples)
    assert [len(st.index) for st in stacks] == [1, 3, 1, 2]
    for st in stacks:
        for i in st.index:
            shared = len(st.index) == 1
            assert np.shares_memory(samples[i].x, st.x) == shared
            assert np.shares_memory(samples[i].mask, st.mask) == shared
            # the normalized adjacency is the stack's own
            assert not np.shares_memory(samples[i].mask, st.a_norm)


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
    stacked = fit_tier(model, stack_samples(corpus()), config, rng())
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
    fit_tier(model, stack_samples(corpus()), RunConfig(epochs=epochs), seeded_rng(4, 1, NOISE_ROLE))

    # each epoch processes the stacks in reverse order
    stacks = stack_samples(corpus())[::-1]
    assert len(seen) == epochs * len(stacks)
    per_graph = seeded_rng(4, 1, NOISE_ROLE)
    for epoch in range(epochs):
        draws = [per_graph.standard_normal((n, D_Z)) for n in SIZES]
        for st, noise in zip(stacks, seen[epoch * len(stacks):]):
            for j, i in enumerate(st.index):
                assert np.array_equal(noise[j], draws[i])


def spy_noise(monkeypatch) -> list:
    seen = []

    def spy(tape, mu, logsigma, noise):
        seen.append(noise.copy())
        return reparameterize(tape, mu, logsigma, noise)

    reparameterize = tvgae.reparameterize
    monkeypatch.setattr(tvgae, "reparameterize", spy)
    return seen


def test_each_graph_in_a_padded_stack_gets_its_per_graph_noise(monkeypatch, one_process):
    monkeypatch.setattr(tgae, "STACK_CELLS", SMALL_BUDGET)
    seen = spy_noise(monkeypatch)
    model = make_variational_tier_models(D_IN, RunConfig(hidden=5, d_z=D_Z, seed=4))[0]
    epochs = 3
    fit_tier(model, stack_samples(corpus()), RunConfig(epochs=epochs), seeded_rng(4, 1, NOISE_ROLE))

    stacks = stack_samples(corpus())[::-1]
    assert [st.index for st in stacks] == [[1, 5], [4], [2, 0, 3, 6]]
    assert len(seen) == epochs * len(stacks)
    per_graph = seeded_rng(4, 1, NOISE_ROLE)
    for epoch in range(epochs):
        draws = [per_graph.standard_normal((n, D_Z)) for n in SIZES]
        for st, noise in zip(stacks, seen[epoch * len(stacks):]):
            assert noise.shape == st.x.shape[:2] + (D_Z,)
            for j, i in enumerate(st.index):
                assert_same_bits(noise[j, :SIZES[i]], draws[i])
                assert not noise[j, SIZES[i]:].any()


def padded_stack():
    """The one stack of SIZES, and its graphs' samples, unstacked."""
    return stack_samples(corpus())[0], corpus()


@pytest.mark.parametrize("flavor", ["tgae", "tvgae"])
def test_a_padded_stack_loss_and_gradients_are_the_per_graph_sums(flavor):
    model, config, _ = flavor_setup(flavor)
    st, samples = padded_stack()
    rng = np.random.default_rng(5)
    eps = rng.standard_normal((sum(SIZES) + 1, D_Z))
    eps[-1] = 0.0

    def loss_and_grads(x, a_norm, bce, noise):
        tape = Tape()
        for p in model.params():
            p.grad[...] = 0.0
        loss, _ = model.loss(tape, tape.const(x), tape.const(a_norm), bce, config,
                             None if flavor == "tgae" else noise)
        tape.backward(loss)
        return float(tape.value(loss)), [p.grad.copy() for p in model.params()]

    got, got_grads = loss_and_grads(st.x, st.a_norm, bce_weights(st.mask, st.nodes),
                                    eps[st.rows].reshape(*st.x.shape[:2], D_Z))
    want, want_grads = 0.0, [np.zeros_like(p.value) for p in model.params()]
    starts = np.cumsum((0,) + SIZES)
    for i, s in enumerate(samples):
        loss, grads = loss_and_grads(s.x[None], gcn_norm(s.mask)[None],
                                     bce_weights(s.mask[None]),
                                     eps[starts[i]:starts[i + 1]][None])
        want += loss
        want_grads = [w + g for w, g in zip(want_grads, grads)]
    assert abs(got - want) <= 1e-12
    for g, w in zip(got_grads, want_grads):
        assert np.abs(g - w).max() <= 1e-12


def test_pad_cells_get_no_bce_loss_and_exactly_zero_gradient():
    st, _ = padded_stack()
    bce = bce_weights(st.mask, st.nodes)
    pad = bce.c1 == 0.0
    pad &= bce.c2 == 0.0
    rng = np.random.default_rng(6)
    logits = rng.standard_normal(st.a_norm.shape) * 5.0
    losses, grads = [], []
    for fill in (0.0, 40.0):
        values = np.where(pad, fill * rng.standard_normal(pad.shape), logits)
        p = tgae.Param(values, name="logits")
        tape = Tape()
        loss = tgae.reconstruction_loss(tape, tape.param(p), bce)
        tape.backward(loss)
        losses.append(tape.value(loss))
        grads.append(p.grad)
    assert_same_bits(losses[0], losses[1])
    assert_same_bits(grads[0], grads[1])
    for g in grads:
        assert (g[pad] == 0.0).all()


def test_pad_rows_get_no_kl_and_exactly_zero_gradient():
    st, _ = padded_stack()
    nodes = np.array([SIZES[i] for i in st.index])
    bce = bce_weights(st.mask, st.nodes)
    pad = bce.rows[..., 0] == 0.0
    rng = np.random.default_rng(7)
    mu = rng.standard_normal(st.x.shape[:2] + (D_Z,))
    ls = rng.standard_normal(mu.shape) * 0.5
    values, grads = [], []
    for fill in (0.0, 3.0):
        mu_p = tgae.Param(np.where(pad[..., None], fill, mu), name="mu")
        ls_p = tgae.Param(np.where(pad[..., None], -fill, ls), name="ls")
        tape = Tape()
        kl = kl_divergence(tape, tape.param(mu_p), tape.param(ls_p), bce.rows,
                           bce.inv_nodes)
        tape.backward(kl)
        values.append(tape.value(kl))
        grads += [mu_p.grad, ls_p.grad]
    assert_same_bits(values[0], values[1])
    for g in grads:
        assert (g[pad] == 0.0).all()
    # each real row is weighted 1/n of its own graph
    want = sum(kl_value(mu[j, :n], ls[j, :n]) for j, n in enumerate(nodes))
    assert abs(values[0] - want) <= 1e-12


@pytest.mark.parametrize("flavor", ["tgae", "tvgae"])
def test_one_tape_per_stack_matches_one_tape_per_epoch_bit_for_bit(flavor, monkeypatch):
    # the gradients of several stacks, added in reverse order, and the
    # losses, added in forward order, keep the bits of one tape per epoch
    for budget, count in BUDGET_STACKS.items():
        monkeypatch.setattr(tgae, "STACK_CELLS", budget)
        assert len(stack_samples(corpus())) == count
        model, config, rng = flavor_setup(flavor)
        reference = copy.deepcopy(model)
        streamed = fit_tier(model, stack_samples(corpus()), config, rng())
        one_tape = fit_tier_one_tape(reference, corpus(), config, rng())
        assert_same_bits(np.array(streamed), np.array(one_tape))
        for p, q in zip(model.params(), reference.params()):
            assert_same_bits(p.value, q.value)


@pytest.mark.parametrize("flavor", ["tgae", "tvgae"])
def test_each_tape_holds_one_stack(flavor, monkeypatch, one_process):
    assert_each_tape_holds_one_stack(flavor, monkeypatch)


@pytest.mark.parametrize("flavor", ["tgae", "tvgae"])
def test_each_tape_holds_one_padded_stack(flavor, monkeypatch, one_process):
    monkeypatch.setattr(tgae, "STACK_CELLS", SMALL_BUDGET)
    assert_each_tape_holds_one_stack(flavor, monkeypatch)


def assert_each_tape_holds_one_stack(flavor, monkeypatch):
    tapes = []

    def spy(tape, loss_node):
        tapes.append((tape.nodes[0].value.copy(), len(tape.nodes)))
        return backward(tape, loss_node)

    backward = Tape.backward
    monkeypatch.setattr(Tape, "backward", spy)
    model, config, rng = flavor_setup(flavor)
    fit_tier(model, stack_samples(corpus()), config, rng())

    def one_stack_nodes(st):
        """Nodes on a tape that records the scaled loss of stack st alone."""
        tape = Tape()
        noise = np.zeros(st.x.shape[:2] + (D_Z,)) if flavor == "tvgae" else None
        loss, _ = model.loss(tape, tape.const(st.x), tape.const(st.a_norm),
                             bce_weights(st.mask, st.nodes), config, noise)
        tape.scalar_mul(1.0, loss)
        return len(tape.nodes)

    stacks = stack_samples(corpus())
    assert len(stacks) > 1
    assert len(tapes) == config.epochs * len(stacks)
    for k, (x, nodes) in enumerate(tapes):
        st = stacks[-1 - k % len(stacks)]  # reverse order, every epoch
        assert np.array_equal(x, st.x)
        assert nodes == one_stack_nodes(st)


@pytest.mark.parametrize("flavor", ["tgae", "tvgae"])
def test_nan_in_one_stack_raises_at_epoch_0_before_any_update(flavor, monkeypatch):
    for budget, count in BUDGET_STACKS.items():
        monkeypatch.setattr(tgae, "STACK_CELLS", budget)
        model, config, rng = flavor_setup(flavor)
        samples = corpus()
        # a graph of 3 nodes: in the stack of the three such graphs, in the
        # padded stack of [1, 3, 3, 3] and in the one padded stack
        samples[0].x[1, 2] = np.nan
        assert len(stack_samples(corpus())) == count
        initial = [p.value.copy() for p in model.params()]
        with pytest.raises(DomainError, match=r"^tier 1: epoch 0 loss is nan$"):
            fit_tier(model, stack_samples(samples), config, rng())
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
    fused = fit_tier(model, stack_samples(large_corpus()), config, rng())
    monkeypatch.setattr(Tape, "bce_logits", bce_logits_two_softplus)
    monkeypatch.setattr(tgae, "decode_adjacency", decode_adjacency_matmul)
    monkeypatch.setattr(tvgae, "decode_adjacency", decode_adjacency_matmul)
    unfused = fit_tier(reference, stack_samples(large_corpus()), config, rng())
    assert len(fused) == config.epochs
    assert_same_bits(np.array(fused), np.array(unfused))
    for p, q in zip(model.params(), reference.params()):
        assert_same_bits(p.value, q.value)
