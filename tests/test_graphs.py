import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiergae.errors import (
    DuplicateEdgeError,
    EmptyGroupError,
    IndexOutOfRangeError,
    ShapeMismatchError,
)
from tiergae.fgroups import membership_from_partition, partition_molecule
from tiergae.graphs import (
    Graph,
    MembershipMatrix,
    adjacency_array,
    coo_to_dense,
    dense_to_coo,
    permute_graph,
    validate,
)
from tiergae.sdf import featurize, parse_sdf

from oracles import (
    assert_same_bits,
    coo_to_dense_loop,
    dense_to_coo_loop,
    messy_graph,
    mixed_adjacency,
    validate_loop,
)


def three_node_graph():
    # two undirected unit edges 0-1 and 1-2, stored as four directed entries
    return Graph(
        x=np.zeros((3, 2)),
        edge_index=np.array([[0, 1, 1, 2], [1, 0, 2, 1]]),
        edge_attr=np.ones((4, 1)),
    )


def test_coo_to_dense_three_node_example():
    a = coo_to_dense(three_node_graph())
    expected = np.zeros((3, 3, 1))
    expected[0, 1, 0] = expected[1, 0, 0] = 1.0
    expected[1, 2, 0] = expected[2, 1, 0] = 1.0
    assert np.array_equal(a, expected)


def test_dense_to_coo_row_major_order():
    dense = coo_to_dense(three_node_graph())
    edge_index, edge_attr = dense_to_coo(dense)
    assert edge_index.tolist() == [[0, 1, 1, 2], [1, 0, 2, 1]]
    assert np.array_equal(edge_attr, np.ones((4, 1)))


def test_empty_graph_gives_zero_tensor():
    g = Graph(x=np.zeros((2, 1)), edge_index=np.zeros((2, 0)), edge_attr=np.zeros((0, 3)))
    assert np.array_equal(coo_to_dense(g), np.zeros((2, 2, 3)))


def test_dense_to_coo_zero_tensor_empty_list():
    edge_index, edge_attr = dense_to_coo(np.zeros((3, 3, 2)))
    assert edge_index.shape == (2, 0)
    assert edge_attr.shape == (0, 2)


def test_dense_to_coo_single_entry():
    a = np.zeros((4, 4, 2))
    a[2, 3] = (0.5, 7.0)
    edge_index, edge_attr = dense_to_coo(a)
    assert edge_index.tolist() == [[2], [3]]
    assert np.array_equal(edge_attr, [[0.5, 7.0]])


def _random_undirected_graph(rng, n, s):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = [p for p in pairs if rng.random() < 0.5]
    cols, attrs = [], []
    for i, j in chosen:
        feat = rng.random(s)
        cols += [(i, j), (j, i)]
        attrs += [feat, feat]
    edge_index = (np.array(cols).T if cols else np.zeros((2, 0)))
    edge_attr = np.array(attrs) if attrs else np.zeros((0, s))
    return Graph(x=rng.random((n, 3)), edge_index=edge_index, edge_attr=edge_attr)


def test_round_trip_random_graph():
    rng = np.random.default_rng(7)
    g = _random_undirected_graph(rng, 5, 3)
    edge_index, edge_attr = dense_to_coo(coo_to_dense(g))
    original = sorted(
        (int(i), int(j), tuple(a)) for (i, j), a in
        zip(g.edge_index.T, g.edge_attr)
    )
    recovered = sorted(
        (int(i), int(j), tuple(a)) for (i, j), a in
        zip(edge_index.T, edge_attr)
    )
    assert original == recovered


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 7), s=st.sampled_from([1, 2, 4]))
def test_round_trip_property(seed, n, s):
    rng = np.random.default_rng(seed)
    g = _random_undirected_graph(rng, n, s)
    assert validate(g) == []
    dense = coo_to_dense(g)
    edge_index, edge_attr = dense_to_coo(dense)
    rebuilt = Graph(x=g.x, edge_index=edge_index, edge_attr=edge_attr)
    assert np.array_equal(coo_to_dense(rebuilt), dense)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000))
def test_permutation_matches_dense_permutation(seed):
    rng = np.random.default_rng(seed)
    g = _random_undirected_graph(rng, 6, 2)
    perm = rng.permutation(6)
    permuted_dense = coo_to_dense(permute_graph(g, perm))
    dense = coo_to_dense(g)
    assert np.array_equal(permuted_dense, dense[np.ix_(np.argsort(perm), np.argsort(perm))])


def test_coo_to_dense_rejects_out_of_range():
    g = Graph(x=np.zeros((3, 1)), edge_index=np.array([[0, 7], [7, 0]]),
              edge_attr=np.ones((2, 1)))
    with pytest.raises(IndexOutOfRangeError):
        coo_to_dense(g)


def test_coo_to_dense_rejects_duplicates():
    g = Graph(x=np.zeros((2, 1)), edge_index=np.array([[0, 0], [1, 1]]),
              edge_attr=np.ones((2, 1)))
    with pytest.raises(DuplicateEdgeError):
        coo_to_dense(g)


def test_validate_clean_vanillin(vanillin_mol):
    assert validate(featurize(vanillin_mol)) == []


def test_validate_reports_out_of_range():
    g = Graph(x=np.zeros((3, 1)), edge_index=np.array([[0, 7], [7, 0]]),
              edge_attr=np.ones((2, 1)))
    kinds = [v.kind for v in validate(g)]
    assert "IndexOutOfRange" in kinds


def test_validate_reports_shape_mismatch():
    g = Graph(x=np.zeros((3, 1)), edge_index=np.array([[0, 1], [1, 0]]),
              edge_attr=np.ones((1, 1)))
    kinds = [v.kind for v in validate(g)]
    assert kinds == ["ShapeMismatch"]


def test_validate_reports_missing_reverse_and_asymmetry():
    one_way = Graph(x=np.zeros((2, 1)), edge_index=np.array([[0], [1]]),
                    edge_attr=np.ones((1, 1)))
    assert [v.kind for v in validate(one_way)] == ["MissingReverseEdge"] * 1
    lopsided = Graph(x=np.zeros((2, 1)), edge_index=np.array([[0, 1], [1, 0]]),
                     edge_attr=np.array([[1.0], [2.0]]))
    kinds = sorted(v.kind for v in validate(lopsided))
    assert kinds == ["AsymmetricEdgeAttr"]


def test_validate_violations_match_coo_to_dense_errors():
    # empty violations imply coo_to_dense accepts; the two raising violation
    # kinds imply it raises
    rng = np.random.default_rng(3)
    good = _random_undirected_graph(rng, 5, 1)
    assert validate(good) == []
    coo_to_dense(good)
    bad = Graph(x=np.zeros((2, 1)), edge_index=np.array([[0, 0], [1, 1]]),
                edge_attr=np.ones((2, 1)))
    assert any(v.kind == "DuplicateEdge" for v in validate(bad))
    with pytest.raises(DuplicateEdgeError):
        coo_to_dense(bad)


def test_dense_adj_channel_coercion():
    a = adjacency_array(np.zeros((3, 3)))
    assert a.shape == (3, 3, 1) and a.dtype == np.float64
    three = np.zeros((3, 3, 2))
    assert adjacency_array(three) is three
    with pytest.raises(ShapeMismatchError):
        adjacency_array(np.zeros((2, 3)))


def test_membership_validation():
    MembershipMatrix(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        MembershipMatrix(np.array([[0.5, 0.5], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        MembershipMatrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(EmptyGroupError):
        MembershipMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_vanillin_membership_is_valid_partition(vanillin_mol):
    p = partition_molecule(vanillin_mol)
    m = membership_from_partition(p, vanillin_mol.atom_count)
    assert m.m.shape[0] == 19
    assert (m.m.sum(axis=1) == 1.0).all()
    assert (m.m.sum(axis=0) >= 1.0).all()


# ---------------------------------------- vectorized COO <-> dense vs the loops

def _same_outcome(fn, oracle, arg):
    """Both raise the same error type and message, or both return; the
    results are returned for comparison."""
    try:
        want = oracle(arg)
    except Exception as exc:  # noqa: BLE001 - the oracle's error is the expectation
        with pytest.raises(type(exc)) as info:
            fn(arg)
        assert str(info.value) == str(exc)
        return None, None
    return fn(arg), want


def _check_graph_against_loops(g):
    assert validate(g) == validate_loop(g)
    got, want = _same_outcome(coo_to_dense, coo_to_dense_loop, g)
    if got is not None:
        assert_same_bits(got, want)
        _check_dense_against_loop(got)


def _check_dense_against_loop(a):
    got, want = _same_outcome(dense_to_coo, dense_to_coo_loop, a)
    if got is None:
        return
    (ei, ea), (oi, oa) = got, want
    assert ei.dtype == oi.dtype == np.int64
    assert ei.shape == oi.shape and np.array_equal(ei, oi)
    assert_same_bits(ea, oa)


@pytest.mark.parametrize("n,s", [(220, 4), (220, 1), (99, 4), (1, 1), (2, 4)])
def test_dense_to_coo_matches_loop_bitwise(n, s):
    rng = np.random.default_rng(n * 10 + s)
    _check_dense_against_loop(mixed_adjacency(rng, n, s))
    _check_dense_against_loop(np.zeros((n, n, s)))
    _check_dense_against_loop(np.full((n, n, s), -0.0))


@pytest.mark.parametrize("n,s,defects", [(220, 4, False), (220, 1, True), (40, 4, True),
                                         (1, 1, False), (3, 4, True)])
def test_coo_layer_matches_loops(n, s, defects):
    _check_graph_against_loops(messy_graph(np.random.default_rng(n + s), n, s, defects))


def test_coo_layer_matches_loops_without_edges():
    for n, s in ((1, 1), (5, 4)):
        g = Graph(x=np.zeros((n, 2)), edge_index=np.zeros((2, 0)), edge_attr=np.zeros((0, s)))
        _check_graph_against_loops(g)


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), s=st.sampled_from([1, 4]),
       defects=st.booleans())
def test_coo_layer_matches_loops_property(seed, n, s, defects):
    rng = np.random.default_rng(seed)
    _check_graph_against_loops(messy_graph(rng, n, s, defects))
    _check_dense_against_loop(mixed_adjacency(rng, n, s))


def _edges(*pairs):
    return Graph(x=np.zeros((4, 1)), edge_index=np.array(pairs).T,
                 edge_attr=np.arange(len(pairs), dtype=np.float64))


def test_first_bad_edge_is_reported():
    dup_first = _edges((0, 1), (1, 0), (0, 1), (9, 0), (1, 0), (0, -1))
    with pytest.raises(DuplicateEdgeError, match=r"^duplicate COO entry \(0, 1\) at edge 2$"):
        coo_to_dense(dup_first)
    range_first = _edges((0, 1), (1, 0), (2, 4), (0, 1), (-1, 0))
    with pytest.raises(IndexOutOfRangeError,
                       match=r"^edge 2 references node \(2, 4\) outside \[0, 4\)$"):
        coo_to_dense(range_first)
    assert [str(v) for v in validate(dup_first)] == [
        "DuplicateEdge: entry (0, 1) repeated at edge 2",
        "IndexOutOfRange: edge 3 references (9, 0), N=4",
        "DuplicateEdge: entry (1, 0) repeated at edge 4",
        "IndexOutOfRange: edge 5 references (0, -1), N=4",
        "AsymmetricEdgeAttr: edge features of (0, 1) and (1, 0) differ",
    ]


def test_validate_pair_violations_follow_first_edge_order():
    g = _edges((3, 2), (1, 0), (0, 1), (0, 2), (2, 3))
    g.edge_attr[4] = g.edge_attr[0]
    assert [str(v) for v in validate(g)] == [
        "AsymmetricEdgeAttr: edge features of (0, 1) and (1, 0) differ",
        "MissingReverseEdge: (0, 2) present but (2, 0) absent",
    ]
