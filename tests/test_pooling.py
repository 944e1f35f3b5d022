import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiergae.errors import ShapeMismatchError
from tiergae.graphs import dense_to_coo
from tiergae.pooling import graph_tier_membership, pool_adjacency, pool_features

from oracles import (
    assert_same_bits,
    dense_membership,
    membership_from_dense,
    mixed_adjacency,
    pool_adjacency_loop,
    pool_features_loop,
    random_membership,
)


def pool_oracle(z, a, m):
    """Independent dense oracle: scalar accumulation in row-major scan order,
    then each cell below the diagonal set to its mirror above it.

    Written deliberately differently from the library loop (per-entry scalar
    adds, group lookup inline) but with the same per-cell addition order, so
    float64 results must agree bit for bit.
    """
    n, g = m.shape
    d = z.shape[1]
    s = a.shape[2]
    x_next = np.zeros((g, d))
    for i in range(n):
        gi = int(np.argmax(m[i]))
        for k in range(d):
            x_next[gi, k] += z[i, k]
    a_next = np.zeros((g, g, s))
    for i in range(n):
        gi = int(np.argmax(m[i]))
        for j in range(n):
            gj = int(np.argmax(m[j]))
            for c in range(s):
                a_next[gi, gj, c] += a[i, j, c]
    for gi in range(g):
        for gj in range(gi):
            for c in range(s):
                a_next[gi, gj, c] = a_next[gj, gi, c]
    return x_next, a_next


def random_symmetric_adjacency(rng, n, s):
    a = rng.random((n, n, s)) * (rng.random((n, n, s)) < 0.5)
    a = a + a.transpose(1, 0, 2)
    return a


def test_identity_membership_is_identity_pooling():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((4, 3))
    a = random_symmetric_adjacency(rng, 4, 2)
    m = membership_from_dense(np.eye(4))
    assert np.array_equal(pool_features(z, m), z)
    assert np.array_equal(pool_adjacency(a, m), a)


def test_three_node_path_hand_computed():
    z = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    a = np.zeros((3, 3, 1))
    a[0, 1, 0] = a[1, 0, 0] = 1.0
    a[1, 2, 0] = a[2, 1, 0] = 1.0
    m = membership_from_dense(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(pool_features(z, m), np.array([[1.0, 1.0], [2.0, 2.0]]))
    assert np.array_equal(pool_adjacency(a, m)[:, :, 0], np.array([[2.0, 1.0], [1.0, 0.0]]))


def test_single_group_collapses_to_sums():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((5, 3))
    a = random_symmetric_adjacency(rng, 5, 2)
    m = membership_from_dense(np.ones((5, 1)))
    assert np.allclose(pool_features(z, m), z.sum(axis=0, keepdims=True))
    for c in range(2):
        assert np.isclose(pool_adjacency(a, m)[0, 0, c], a[:, :, c].sum())


def test_graph_tier_membership():
    assert np.array_equal(dense_membership(graph_tier_membership(1)), [[1.0]])
    assert np.array_equal(dense_membership(graph_tier_membership(4)), np.ones((4, 1)))
    m = graph_tier_membership(4)
    assert m.group.dtype == np.int64 and m.group.tolist() == [0, 0, 0, 0]
    assert m.num_groups == 1
    with pytest.raises(ValueError):
        graph_tier_membership(0)


def test_pool_matches_oracle_bitwise():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        s = int(rng.choice([1, 4]))
        z = rng.standard_normal((n, 3))
        a = random_symmetric_adjacency(rng, n, s)
        m = random_membership(rng, n)
        ox, oa = pool_oracle(z, a, dense_membership(m))
        assert np.array_equal(pool_features(z, m), ox)
        assert np.array_equal(pool_adjacency(a, m), oa)


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 100_000), s=st.sampled_from([1, 2, 4]))
def test_mass_and_column_sum_conservation(seed, s):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    z = rng.standard_normal((n, 4))
    a = random_symmetric_adjacency(rng, n, s)
    m = random_membership(rng, n)
    a_next = pool_adjacency(a, m)
    for c in range(s):
        assert abs(a_next[:, :, c].sum() - a[:, :, c].sum()) <= 1e-12
    assert np.allclose(pool_features(z, m).sum(axis=0), z.sum(axis=0), atol=1e-12)


def test_pooled_adjacency_symmetric():
    # values over 16 decades, which summed in another order round apart
    rng = np.random.default_rng(3)
    for n, s in ((6, 3), (40, 1), (220, 4)):
        a = mixed_adjacency(rng, n, s)
        a = a + a.transpose(1, 0, 2)
        m = random_membership(rng, n)
        a_next = pool_adjacency(a, m)
        assert_same_bits(a_next, a_next.transpose(1, 0, 2))


def test_permutation_consistency():
    rng = np.random.default_rng(9)
    n = 7
    z = rng.standard_normal((n, 3))
    a = random_symmetric_adjacency(rng, n, 2)
    m = random_membership(rng, n)
    perm = rng.permutation(n)
    p = np.eye(n)[perm]
    m_p = membership_from_dense(p @ dense_membership(m))
    assert np.allclose(pool_features(p @ z, m_p), pool_features(z, m), atol=1e-12)
    assert np.allclose(pool_adjacency(np.einsum("ij,jkc,lk->ilc", p, a, p), m_p),
                       pool_adjacency(a, m), atol=1e-12)


def test_multichannel_equals_independent_single_channels():
    # regression for the multi-edge-feature failure mode: channels must not mix
    rng = np.random.default_rng(5)
    n, s = 6, 4
    z = rng.standard_normal((n, 2))
    a = random_symmetric_adjacency(rng, n, s)
    m = random_membership(rng, n)
    full = pool_adjacency(a, m)
    for c in range(s):
        single = pool_adjacency(a[:, :, c][:, :, np.newaxis], m)
        assert np.array_equal(full[:, :, c], single[:, :, 0])


def test_coo_output_matches_dense():
    rng = np.random.default_rng(11)
    a = random_symmetric_adjacency(rng, 5, 2)
    m = random_membership(rng, 5)
    a_next = pool_adjacency(a, m)
    edge_index, edge_attr = dense_to_coo(a_next)
    rebuilt = np.zeros_like(a_next)
    for (i, j), attr in zip(edge_index.T, edge_attr):
        rebuilt[i, j] = attr
    assert np.array_equal(rebuilt, a_next)


def test_shape_mismatch_rejected():
    z = np.zeros((4, 2))
    a = np.zeros((4, 4, 1))
    m = membership_from_dense(np.eye(3))
    with pytest.raises(ShapeMismatchError):
        pool_features(z, m)
    with pytest.raises(ShapeMismatchError):
        pool_adjacency(a, m)


# ------------------------------------------- vectorized pooling vs the loops

def _check_against_loops(rng, n, s, m):
    z = rng.standard_normal((n, 5)) * 10.0 ** rng.integers(-8, 8, size=(n, 5))
    a = mixed_adjacency(rng, n, s)
    assert_same_bits(pool_features(z, m), pool_features_loop(z, m))
    got = pool_adjacency(a, m)
    assert_same_bits(got, pool_adjacency_loop(a, m))
    # the diagonal and the upper triangle are the unmirrored loop's cells
    upper = np.triu_indices(m.num_groups)
    assert_same_bits(got[upper], pool_adjacency_loop(a, m, mirror=False)[upper])
    return a


@pytest.mark.parametrize("n,s,groups", [
    (220, 4, 99), (220, 1, 0), (150, 4, 1), (60, 1, 60), (1, 4, 1), (2, 1, 1),
])
def test_pooling_matches_loops_bitwise(n, s, groups):
    rng = np.random.default_rng(n * 10 + s)
    _check_against_loops(rng, n, s, random_membership(rng, n, groups))


def test_pooling_inputs_are_order_sensitive():
    # the bitwise tests could not see a change of summation order if the
    # data summed to the same bits in any order; reversing it must show
    rng = np.random.default_rng(2200)
    m = random_membership(rng, 220, 99)
    a = _check_against_loops(rng, 220, 4, m)
    group = dense_membership(m).argmax(axis=1)
    reversed_sum = np.zeros((99 * 99, 4))
    cells = (group[:, None] * 99 + group[None, :]).ravel()
    np.add.at(reversed_sum, cells[::-1], a.reshape(-1, 4)[::-1])
    assert not np.array_equal(reversed_sum.reshape(99, 99, 4).view(np.int64),
                              pool_adjacency(a, m).view(np.int64))


def test_pooling_zero_and_negative_zero_adjacency():
    rng = np.random.default_rng(8)
    m = random_membership(rng, 12)
    for a in (np.zeros((12, 12, 4)), np.full((12, 12, 1), -0.0)):
        assert_same_bits(pool_adjacency(a, m), pool_adjacency_loop(a, m))
        assert_same_bits(pool_adjacency(a, m), np.zeros((m.num_groups,) * 2 + a.shape[2:]))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), s=st.sampled_from([1, 4]),
       groups=st.sampled_from(["random", "single", "identity"]))
def test_pooling_matches_loops_property(seed, n, s, groups):
    rng = np.random.default_rng(seed)
    g = {"random": 0, "single": 1, "identity": n}[groups]
    _check_against_loops(rng, n, s, random_membership(rng, n, g))
