import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiergae.autodiff import Param, Tape
from tiergae.errors import ConfigError, DomainError, ShapeMismatchError
from tiergae.fgroups import membership_from_partition, partition_molecule
from tiergae.gcn import gcn_norm
from tiergae.graphs import Graph, coo_to_dense, dense_to_coo, edge_mask
from tiergae.pooling import graph_tier_membership, pool_adjacency
from tiergae.sdf import featurize
from tiergae.tgae import (
    RunConfig,
    TierModel,
    bce_weights,
    decode_adjacency,
    encode_tiered,
    make_tier_models,
    next_tier_samples,
    reconstruction_loss,
    stack_samples,
    tier_sample,
    train_tier,
    train_tiered,
)

from conftest import path4_adjacency, path4_features, recon_value
from gradcheck import assert_grads_match, finite_difference_grads
from oracles import (
    assert_same_bits,
    decode_adjacency_numpy,
    dense_membership,
    membership_from_dense,
    permute_graph,
    pipeline_loss,
    stable_sigmoid,
    zero_grads,
)


def path4_graph() -> Graph:
    ei, ea = dense_to_coo(path4_adjacency())
    return Graph(x=path4_features(), edge_index=ei, edge_attr=ea)


def path4_items():
    m = membership_from_dense(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
    return [(path4_graph(), m)]


# ---------------------------------------------------------------- decoding


def test_decode_zero_embedding_gives_half_everywhere():
    # zero logits, so every edge probability is one half
    z = np.zeros((3, 4))
    assert np.array_equal(stable_sigmoid(decode_adjacency_numpy(z)), np.full((3, 3), 0.5))


def test_decode_hand_computed():
    z = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(decode_adjacency_numpy(z), [[1.0, 0.0], [0.0, 4.0]])


def test_decode_tape_matches_numpy_bitwise():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((5, 3))
    tape = Tape()
    node = decode_adjacency(tape, tape.const(z))
    assert np.array_equal(tape.value(node), decode_adjacency_numpy(z))


def test_decoded_matrix_symmetric():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((6, 4))
    logits = decode_adjacency_numpy(z)
    assert np.allclose(logits, logits.T, atol=1e-15)
    p = stable_sigmoid(logits)
    assert ((p > 0) & (p < 1)).all()


# ---------------------------------------------------------------- targets


def targets(a) -> np.ndarray:
    """The BCE target of adjacency a as -1 (not scored), 0 or 1."""
    bce = bce_weights(edge_mask(a))
    return np.where(bce.c1 > 0, 1.0, np.where(bce.c2 > 0, 0.0, -1.0))


def test_target_drops_diagonal_and_collapses_channels():
    a = np.zeros((3, 3, 2))
    a[0, 0, 0] = 5.0          # within-group mass parked on the diagonal
    a[0, 1, 1] = a[1, 0, 1] = 2.0
    assert np.array_equal(targets(a), [[-1, 1, 0], [1, -1, 0], [0, 0, -1]])


def test_target_single_node_keeps_self_loop_bit():
    assert np.array_equal(targets(np.array([[[3.0]]])), [[1.0]])
    assert np.array_equal(targets(np.array([[[0.0]]])), [[0.0]])


# ---------------------------------------------------------------- loss


# logit of p = 0.25: log(p / (1 - p)) = log(1/3)
QUARTER = math.log(1.0 / 3.0)


def test_loss_at_half_has_closed_form():
    # logit 0 (p = 0.5) everywhere: loss = (pw * n_pos + n_neg) * ln2 / count
    #                          = 2 * n_neg * ln2 / count  when both classes exist
    target = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
    logits = np.zeros((3, 3))
    n_neg, count = 4.0, 6.0
    expect = 2.0 * n_neg * math.log(2.0) / count
    assert math.isclose(recon_value(logits, target), expect, rel_tol=1e-12)


def test_loss_all_positive_targets_falls_back_to_unweighted():
    target = np.ones((3, 3)) - np.eye(3)
    logits = np.full((3, 3), QUARTER)
    # no negatives: pos_weight collapses to 1, loss = -log(0.25)
    assert math.isclose(
        recon_value(logits, target), -math.log(0.25), rel_tol=1e-12
    )


def test_loss_all_negative_targets_falls_back_to_unweighted():
    target = np.zeros((3, 3))
    logits = np.full((3, 3), QUARTER)
    assert math.isclose(
        recon_value(logits, target), -math.log(0.75), rel_tol=1e-12
    )


def test_loss_perfect_prediction_is_tiny():
    target = np.array([[0, 1], [1, 0]], dtype=float)
    logits = 40.0 * (2.0 * target - 1.0)  # p within 5e-18 of the target
    assert recon_value(logits, target) < 1e-10


def test_loss_finite_at_saturated_logits():
    # exactly wrong at logits of -+1e3: sigmoid rounds to 0 and 1 there, but
    # the loss on logits stays finite and so does its gradient
    target = np.array([[0, 1], [1, 0]], dtype=float)
    logits = Param(1e3 * (1.0 - 2.0 * target), name="logits")
    tape = Tape()
    loss = reconstruction_loss(tape, tape.param(logits), bce_weights(target))
    tape.backward(loss)
    # the two scored (off-diagonal) entries are edges, each softplus(1e3) = 1e3,
    # over a count of 2
    assert math.isclose(float(tape.value(loss)), 1e3, rel_tol=1e-12)
    assert np.isfinite(logits.grad).all()
    # -sigmoid(1e3) / count on each positive, 0 on the masked diagonal
    assert np.array_equal(logits.grad, -target / 2.0)


def test_loss_single_node_uses_diagonal():
    v = recon_value(np.array([[0.0]]), np.array([[1.0]]))
    assert math.isclose(v, math.log(2.0), rel_tol=1e-12)


def test_loss_permutation_invariant():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((6, 3))
    target = np.zeros((6, 6))
    for i, j in ((0, 1), (2, 3), (4, 5), (1, 4)):
        target[i, j] = target[j, i] = 1.0
    base = recon_value(decode_adjacency_numpy(z), target)
    perm = rng.permutation(6)
    p = np.eye(6)[perm]
    permuted = recon_value(
        decode_adjacency_numpy(p @ z), p @ target @ p.T
    )
    assert math.isclose(base, permuted, rel_tol=1e-12)


def test_loss_rejects_bad_targets():
    logits = np.zeros((2, 2))
    with pytest.raises(ShapeMismatchError):
        recon_value(logits, np.zeros((3, 3)))


def test_loss_gradient_against_finite_differences():
    rng = np.random.default_rng(3)
    models = make_tier_models(4, RunConfig(hidden=5, d_z=3, k=2, seed=11))
    model = models[0]
    s = tier_sample(path4_features(), path4_adjacency())

    def run():
        tape = Tape()
        from tiergae.gcn import encode

        z = encode(model.encoder, tape.const(s.x), tape.const(gcn_norm(s.mask)), tape)
        loss = reconstruction_loss(tape, decode_adjacency(tape, z),
                                   bce_weights(s.mask))
        return tape, loss

    tape, loss = run()
    zero_grads(model.params())
    tape.backward(loss)
    analytic = [p.grad.copy() for p in model.params()]

    def loss_fn():
        t, node = run()
        return float(t.value(node))

    numeric = finite_difference_grads(loss_fn, model.params())
    assert_grads_match(analytic, numeric)


# ---------------------------------------------------------------- models


def test_make_tier_models_widths_and_names():
    models = make_tier_models(13, RunConfig(hidden=8, d_z=4, k=3, seed=0))
    assert [m.tier for m in models] == [1, 2, 3]
    assert models[0].encoder.layers[0].weight.value.shape == (13, 8)
    for m in models[1:]:
        assert m.encoder.layers[0].weight.value.shape == (4, 8)
    for m in models:
        assert m.encoder.layers[-1].weight.value.shape == (8, 4)
        assert all(p.name.startswith(f"tier{m.tier}.") for p in m.params())


def test_make_tier_models_deterministic_and_tier_distinct():
    a = make_tier_models(6, RunConfig(hidden=4, d_z=2, seed=5))
    b = make_tier_models(6, RunConfig(hidden=4, d_z=2, seed=5))
    for ma, mb in zip(a, b):
        for pa, pb in zip(ma.params(), mb.params()):
            assert np.array_equal(pa.value, pb.value)
    w2, w3 = a[1].encoder.layers[0].weight.value, a[2].encoder.layers[0].weight.value
    assert not np.array_equal(w2, w3)


def test_tier_model_rejects_bad_tier():
    enc = make_tier_models(3, RunConfig(hidden=2, d_z=2))[0].encoder
    with pytest.raises(ValueError):
        TierModel(encoder=enc, tier=4)


# ---------------------------------------------------------------- training


def test_zero_epochs_is_refused():
    # a run of no epochs is no setting: the config is refused when it is
    # built, by the constructor and by dataclasses.replace alike
    for build in (lambda: RunConfig(epochs=0), lambda: replace(RunConfig(), epochs=0)):
        with pytest.raises(ConfigError,
                           match=r"^config field 'epochs': must be strictly positive$"):
            build()


def test_training_descends_on_path4():
    models = make_tier_models(4, RunConfig(hidden=8, d_z=4, seed=42))
    s = tier_sample(path4_features(), path4_adjacency())
    hist = train_tier(models[0], stack_samples([s]), RunConfig(epochs=40, lr=0.01))
    assert len(hist) == 40
    assert hist[-1] < hist[0]
    assert all(np.isfinite(v) for v in hist)


def test_training_is_deterministic():
    def run():
        models = make_tier_models(4, RunConfig(hidden=6, d_z=3, seed=7))
        s = tier_sample(path4_features(), path4_adjacency())
        return train_tier(models[0], stack_samples([s]), RunConfig(epochs=15, lr=0.01))

    assert run() == run()


def test_train_tier_requires_samples():
    models = make_tier_models(4, RunConfig(hidden=4, d_z=2))
    with pytest.raises(ValueError):
        train_tier(models[0], [], RunConfig(epochs=1))


@pytest.mark.parametrize("tier", [1, 2])
def test_train_tier_rejects_non_finite_loss(tier):
    model = make_tier_models(4, RunConfig(hidden=4, d_z=2, seed=1))[tier - 1]
    x = path4_features() if tier == 1 else np.ones((4, 2))
    s = tier_sample(x, path4_adjacency())
    # epoch 0 is finite; its update at a learning rate of 1e308 overflows
    # the weights, which makes epoch 1's loss NaN
    with pytest.raises(DomainError, match=rf"^tier {tier}: epoch 1 loss is nan$"), \
            np.errstate(over="ignore", invalid="ignore"):
        train_tier(model, stack_samples([s]), RunConfig(epochs=3, lr=1e308))


def test_tiered_training_keeps_lower_tiers_frozen():
    # tier-1 history of the tiered run must equal a standalone tier-1 run:
    # nothing that happens above tier 1 may touch it
    items = path4_items()
    models = make_tier_models(4, RunConfig(hidden=6, d_z=3, seed=9))
    solo = copy.deepcopy(models[0])
    cfg = RunConfig(epochs=10, lr=0.01)
    hist = train_tiered(models, items, cfg)
    s = tier_sample(path4_features(), path4_adjacency())
    solo_hist = train_tier(solo, stack_samples([s]), cfg)
    assert hist[1] == solo_hist
    for p_solo, p_tiered in zip(solo.params(), models[0].params()):
        assert np.array_equal(p_solo.value, p_tiered.value)


def test_tiered_training_returns_three_histories():
    models = make_tier_models(4, RunConfig(hidden=6, d_z=3, seed=2))
    hist = train_tiered(models, path4_items(), RunConfig(epochs=5, lr=0.01))
    assert sorted(hist) == [1, 2, 3]
    for h in hist.values():
        assert len(h) == 5 and all(np.isfinite(v) for v in h)


def test_tiered_training_rejects_empty_corpus():
    models = make_tier_models(4, RunConfig(hidden=4, d_z=2))
    with pytest.raises(ValueError):
        train_tiered(models, [], RunConfig(epochs=1))


def test_tier_sample_computes_one_edge_mask(monkeypatch):
    # the mask feeds the normalized adjacency, the target and the pooling
    from tiergae import graphs, pooling, tgae

    calls = []

    def spy(arr):
        calls.append(arr.shape)
        return edge_mask(arr)

    edge_mask = graphs.edge_mask
    monkeypatch.setattr(tgae, "edge_mask", spy)
    monkeypatch.setattr(pooling, "edge_mask", spy)
    m = path4_items()[0][1]
    s = tier_sample(path4_features(), path4_adjacency(), m)
    assert calls == [(4, 4, 1)]
    assert_same_bits(s.pooled_a, pool_adjacency(path4_adjacency(), m))


def test_next_tier_samples_shapes():
    models = make_tier_models(4, RunConfig(hidden=6, d_z=3, seed=4))
    m = path4_items()[0][1]
    s = tier_sample(path4_features(), path4_adjacency(), m)
    # the tier-2 adjacency is pooled as the tier-1 sample is built
    assert s.pooled_a.shape == (2, 2, 1)
    nxt = next_tier_samples(models[0], [s], stack_samples([s]), [graph_tier_membership(2)])
    assert len(nxt) == 1
    assert nxt[0].x.shape == (2, 3)
    assert nxt[0].mask.shape == (2, 2)
    assert stack_samples(nxt)[0].a_norm.shape == (1, 2, 2)
    assert nxt[0].pooled_a.shape == (1, 1, 1)


# ---------------------------------------------------------------- inference


def test_encode_tiered_shapes_on_vanillin(vanillin_mol):
    g = featurize(vanillin_mol)
    part = partition_molecule(vanillin_mol)
    m1 = membership_from_partition(part, g.num_nodes)
    models = make_tier_models(g.x.shape[1], RunConfig(hidden=8, d_z=4, seed=0))
    rep = encode_tiered(g, m1, models)
    assert len(rep.tiers) == 3
    n_groups = m1.num_groups
    assert rep.tiers[0].z.shape == (19, 4)
    assert rep.tiers[1].z.shape == (n_groups, 4)
    assert rep.tiers[2].z.shape == (1, 4)
    assert rep.tiers[0].membership.shape == (19,)
    assert np.array_equal(rep.tiers[0].membership, m1.group)
    assert rep.tiers[1].membership.shape == (n_groups,)
    assert not rep.tiers[1].membership.any()
    assert rep.tiers[2].membership is None
    for t in rep.tiers:
        assert np.isfinite(t.z).all()


def test_encode_tiered_coo_per_tier(vanillin_mol):
    # tier 1 keeps the graph's own COO; the pooled tiers take dense_to_coo
    # of the pooled adjacency
    g = featurize(vanillin_mol)
    m1 = membership_from_partition(partition_molecule(vanillin_mol), g.num_nodes)
    rep = encode_tiered(g, m1, make_tier_models(g.x.shape[1], RunConfig(hidden=8, d_z=4)))
    assert rep.tiers[0].edge_index is g.edge_index and rep.tiers[0].edge_attr is g.edge_attr
    a = coo_to_dense(g)
    for bundle, m in zip(rep.tiers[1:], (m1, graph_tier_membership(m1.num_groups))):
        a = pool_adjacency(a, m)
        edge_index, edge_attr = dense_to_coo(a)
        assert np.array_equal(bundle.edge_index, edge_index)
        assert np.array_equal(bundle.edge_attr, edge_attr)


def test_encode_tiered_membership_shape_checked():
    models = make_tier_models(4, RunConfig(hidden=4, d_z=2))
    g = path4_graph()
    with pytest.raises(ShapeMismatchError):
        encode_tiered(g, membership_from_dense(np.eye(3)), models)


def test_encode_tiered_relabel_invariant():
    # renumbering atoms permutes tier-1 embeddings and leaves the upper
    # tiers unchanged up to float roundoff
    g = path4_graph()
    m1 = path4_items()[0][1]
    models = make_tier_models(4, RunConfig(hidden=6, d_z=3, seed=13))
    rep = encode_tiered(g, m1, models)

    perm = np.array([2, 0, 3, 1])
    p = np.eye(4)[perm].T  # node i moves to row perm[i]
    rep_p = encode_tiered(
        permute_graph(g, perm), membership_from_dense(p @ dense_membership(m1)), models
    )
    assert np.allclose(rep_p.tiers[0].z, p @ rep.tiers[0].z, atol=1e-12)
    assert np.allclose(rep_p.tiers[1].z, rep.tiers[1].z, atol=1e-12)
    assert np.allclose(rep_p.tiers[2].z, rep.tiers[2].z, atol=1e-12)


def test_encode_tiered_deterministic(vanillin_mol):
    g = featurize(vanillin_mol)
    m1 = membership_from_partition(partition_molecule(vanillin_mol), g.num_nodes)
    models = make_tier_models(g.x.shape[1], RunConfig(hidden=8, d_z=4, seed=3))
    r1 = encode_tiered(g, m1, models)
    r2 = encode_tiered(g, m1, models)
    for t1, t2 in zip(r1.tiers, r2.tiers):
        assert np.array_equal(t1.z, t2.z)


# ---------------------------------------------------------------- pipeline


def test_full_pipeline_loss_reaches_every_parameter():
    models = make_tier_models(4, RunConfig(hidden=5, d_z=3, seed=21))
    m1 = path4_items()[0][1]
    tape = Tape()
    loss = pipeline_loss(models, path4_features(), path4_adjacency(), m1, tape)
    assert np.isfinite(tape.value(loss))
    all_params = [p for m in models for p in m.params()]
    zero_grads(all_params)
    tape.backward(loss)
    for p in all_params:
        assert p.grad.shape == p.value.shape
        if p.name.endswith(".weight"):
            assert np.abs(p.grad).max() > 0.0, p.name


def test_pipeline_loss_is_the_sum_of_the_tier_losses(vanillin_mol):
    # the tape pools through the dense M^T, the inference pass through the
    # group vector; both feed each tier the same inputs up to rounding
    g = featurize(vanillin_mol)
    m1 = membership_from_partition(partition_molecule(vanillin_mol), g.num_nodes)
    models = make_tier_models(g.x.shape[1], RunConfig(hidden=8, d_z=4, seed=2))
    tape = Tape()
    total = float(tape.value(pipeline_loss(models, g.x, coo_to_dense(g), m1, tape)))
    want = 0.0
    for bundle in encode_tiered(g, m1, models).tiers:
        a = coo_to_dense(Graph(bundle.x, bundle.edge_index, bundle.edge_attr))
        want += recon_value(decode_adjacency_numpy(bundle.z), tier_sample(bundle.x, a).mask)
    assert math.isclose(total, want, rel_tol=1e-12)


def test_pipeline_loss_requires_one_noise_per_tier():
    # a short noise list must not silently drop the upper tiers' losses
    models = make_tier_models(4, RunConfig(hidden=4, d_z=2, seed=0))
    m1 = path4_items()[0][1]
    for noises in ((None, None), (None, None, None, None)):
        with pytest.raises(ValueError, match=f"one noise array per tier, got {len(noises)}"):
            pipeline_loss(models, path4_features(), path4_adjacency(), m1, Tape(),
                          noises=noises)


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 10_000))
def test_loss_value_nonnegative(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    z = rng.standard_normal((n, 3))
    t = np.zeros((n, n))
    i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
    if i != j:
        t[i, j] = t[j, i] = 1.0
    assert recon_value(decode_adjacency_numpy(z), t) >= 0.0
