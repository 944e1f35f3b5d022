import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import assert_grads_match, finite_difference_grads
from tiergae.autodiff import Param, Tape, seeded_rng
from tiergae.errors import NegativeWeightError, ShapeMismatchError
from tiergae.gcn import (
    GcnLayer,
    GnnEncoder,
    binary_collapse,
    encode,
    encode_numpy,
    gcn_norm,
    make_encoder,
)


def test_gcn_norm_single_node():
    assert np.array_equal(gcn_norm(np.zeros((1, 1))), np.array([[1.0]]))


def test_gcn_norm_two_nodes_one_edge():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(gcn_norm(a), np.full((2, 2), 0.5))


def test_gcn_norm_isolated_node_keeps_self_loop():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    out = gcn_norm(a)
    assert out[2, 2] == 1.0
    assert np.allclose(out[2, :2], 0.0)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 7))
def test_gcn_norm_permutation_equivariance(seed, n):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < 0.4).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    perm = rng.permutation(n)
    p = np.eye(n)[perm]
    assert np.allclose(gcn_norm(p @ a @ p.T), p @ gcn_norm(a) @ p.T, atol=1e-15)


def test_gcn_norm_rejects_bad_input():
    with pytest.raises(NegativeWeightError):
        gcn_norm(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        gcn_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ShapeMismatchError):
        gcn_norm(np.zeros((2, 3)))


def test_binary_collapse_multichannel():
    a = np.zeros((2, 2, 3))
    a[0, 1, 2] = 5.0
    a[1, 0, 0] = 0.25
    assert np.array_equal(binary_collapse(a), np.array([[0.0, 1.0], [1.0, 0.0]]))


def _identity_encoder(dim):
    layers = [
        GcnLayer(Param(np.eye(dim), name=f"l{i}.w"),
                 Param(np.zeros((1, dim)), name=f"l{i}.b"),
                 "identity")
        for i in range(2)
    ]
    return GnnEncoder(layers)


def test_encode_identity_pipeline():
    x = np.arange(12.0).reshape(4, 3)
    enc = _identity_encoder(3)
    t = Tape()
    z = encode(enc, t.const(x), t.const(np.eye(4)), t)
    assert np.array_equal(t.value(z), x)
    assert np.array_equal(encode_numpy(enc, x, np.eye(4)), x)


def test_single_node_graph_is_pure_mlp():
    rng = seeded_rng(3)
    enc = make_encoder(3, 5, 2, k=2, rng=rng)
    x = np.array([[0.3, -1.0, 2.0]])
    manual = np.maximum(x @ enc.layers[0].weight.value + enc.layers[0].bias.value, 0)
    manual = manual @ enc.layers[1].weight.value + enc.layers[1].bias.value
    assert np.allclose(encode_numpy(enc, x, np.array([[1.0]])), manual)


def test_encode_permutation_equivariance_random_graph():
    rng = seeded_rng(8)
    n = 6
    a = (rng.random((n, n)) < 0.4).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    x = rng.standard_normal((n, 4))
    enc = make_encoder(4, 5, 3, k=2, rng=rng)
    perm = np.array([3, 0, 5, 1, 4, 2])
    p = np.eye(n)[perm]

    z = encode_numpy(enc, x, gcn_norm(a))
    z_perm = encode_numpy(enc, p @ x, gcn_norm(p @ a @ p.T))
    assert np.allclose(z_perm, p @ z, atol=1e-12)


def test_encode_finite_on_finite_input():
    rng = seeded_rng(4)
    enc = make_encoder(3, 8, 2, k=4, rng=rng)
    x = rng.standard_normal((5, 3)) * 100.0
    a = np.ones((5, 5)) - np.eye(5)
    z = encode_numpy(enc, x, gcn_norm(a))
    assert np.isfinite(z).all()


def test_encode_tape_and_numpy_agree():
    rng = seeded_rng(12)
    enc = make_encoder(4, 6, 3, k=3, rng=rng)
    x = rng.standard_normal((5, 4))
    a = (rng.random((5, 5)) < 0.5).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    a_norm = gcn_norm(a)
    t = Tape()
    z = encode(enc, t.const(x), t.const(a_norm), t)
    assert np.array_equal(t.value(z), encode_numpy(enc, x, a_norm))


def test_encode_gradients_match_finite_differences():
    rng = seeded_rng(21)
    enc = make_encoder(3, 4, 2, k=2, rng=rng)
    x = rng.standard_normal((4, 3))
    a_norm = gcn_norm(path_adjacency(4))

    def run():
        t = Tape()
        z = encode(enc, t.const(x), t.const(a_norm), t)
        return t.value(t.sum(t.elementwise_mul(z, z)))

    t = Tape()
    z = encode(enc, t.const(x), t.const(a_norm), t)
    t.backward(t.sum(t.elementwise_mul(z, z)))
    params = enc.params()
    assert_grads_match([p.grad for p in params],
                       finite_difference_grads(run, params))


def path_adjacency(n):
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return a


def test_layer_count_bounds():
    rng = seeded_rng(0)
    with pytest.raises(ValueError):
        make_encoder(3, 4, 2, k=1, rng=rng)
    with pytest.raises(ValueError):
        make_encoder(3, 4, 2, k=7, rng=rng)
    for k in (2, 6):
        enc = make_encoder(3, 4, 2, k=k, rng=seeded_rng(0))
        assert enc.k == k


def test_encoder_width_chaining_enforced():
    w1 = GcnLayer(Param(np.zeros((3, 4)), name="a.w"),
                  Param(np.zeros((1, 4)), name="a.b"), "relu")
    w2 = GcnLayer(Param(np.zeros((5, 2)), name="b.w"),
                  Param(np.zeros((1, 2)), name="b.b"), "identity")
    with pytest.raises(ShapeMismatchError):
        GnnEncoder([w1, w2])


def test_make_encoder_structure():
    enc = make_encoder(7, 5, 3, k=3, rng=seeded_rng(1), name_prefix="t.")
    assert [l.activation for l in enc.layers] == ["relu", "relu", "identity"]
    assert [l.weight.value.shape for l in enc.layers] == [(7, 5), (5, 5), (5, 3)]
    assert all((l.bias.value == 0).all() for l in enc.layers)
    assert enc.layers[0].weight.name == "t.layer0.weight"


def test_encode_rejects_width_mismatch():
    enc = make_encoder(3, 4, 2, k=2, rng=seeded_rng(0))
    t = Tape()
    with pytest.raises(ShapeMismatchError):
        encode(enc, t.const(np.zeros((2, 5))), t.const(np.eye(2)), t)
    with pytest.raises(ShapeMismatchError):
        encode_numpy(enc, np.zeros((2, 5)), np.eye(2))
