"""Loop references for the vectorized graph layer, and test data for them.

The `*_loop` functions are the per-entry Python loops that `pooling` and
`graphs` used before they were vectorized, with the same summation order,
error types and messages, and violation order. Tests compare the library
against them bit for bit.

`fit_tier_per_graph` is the epoch loop as it was before training stacked
same-size graphs: one graph at a time, with each graph's noise drawn on its
own, in sample order.
"""

import numpy as np

from tiergae.autodiff import Adam, Tape
from tiergae.errors import DuplicateEdgeError, IndexOutOfRangeError, ShapeMismatchError
from tiergae.graphs import Graph, MembershipMatrix, Violation, adjacency_array
from tiergae.tgae import TierSample, bce_weights, tier_sample


def pool_features_loop(z: np.ndarray, m: MembershipMatrix) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    group = m.m.argmax(axis=1)
    out = np.zeros((m.num_groups, z.shape[1]), dtype=np.float64)
    for i in range(z.shape[0]):
        out[group[i]] += z[i]
    return out


def pool_adjacency_loop(a, m: MembershipMatrix) -> np.ndarray:
    arr = adjacency_array(a)
    group = m.m.argmax(axis=1)
    n, _, s = arr.shape
    out = np.zeros((m.num_groups, m.num_groups, s), dtype=np.float64)
    for i in range(n):
        gi = group[i]
        for j in range(n):
            out[gi, group[j]] += arr[i, j]
    return out


def coo_to_dense_loop(g: Graph) -> np.ndarray:
    n = g.num_nodes
    u = g.num_edges
    if g.edge_index.ndim != 2 or g.edge_index.shape[0] != 2:
        raise ShapeMismatchError(f"edge_index must be 2 x U, got {g.edge_index.shape}")
    if g.edge_attr.shape[0] != u:
        raise ShapeMismatchError(
            f"edge_attr has {g.edge_attr.shape[0]} rows, expected {u}"
        )
    a = np.zeros((n, n, g.num_edge_channels), dtype=np.float64)
    seen = set()
    for e in range(u):
        i = int(g.edge_index[0, e])
        j = int(g.edge_index[1, e])
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRangeError(
                f"edge {e} references node ({i}, {j}) outside [0, {n})"
            )
        if (i, j) in seen:
            raise DuplicateEdgeError(f"duplicate COO entry ({i}, {j}) at edge {e}")
        seen.add((i, j))
        a[i, j, :] = g.edge_attr[e]
    return a


def dense_to_coo_loop(a) -> tuple[np.ndarray, np.ndarray]:
    arr = adjacency_array(a)
    if not np.isfinite(arr).all():
        raise ValueError("dense adjacency contains non-finite entries")
    n, _, s = arr.shape
    pairs = [(i, j) for i in range(n) for j in range(n) if np.any(arr[i, j, :] != 0.0)]
    if not pairs:
        return np.zeros((2, 0), dtype=np.int64), np.zeros((0, s), dtype=np.float64)
    edge_index = np.array(pairs, dtype=np.int64).T
    edge_attr = np.array([arr[i, j, :] for i, j in pairs], dtype=np.float64)
    return edge_index, edge_attr


def validate_loop(g: Graph) -> list[Violation]:
    """The edge checks of `graphs.validate`; its shape checks come first,
    are unchanged and are not repeated here."""
    out: list[Violation] = []
    n = g.num_nodes
    entries: dict[tuple[int, int], int] = {}
    for e in range(g.num_edges):
        i = int(g.edge_index[0, e])
        j = int(g.edge_index[1, e])
        if not (0 <= i < n and 0 <= j < n):
            out.append(
                Violation("IndexOutOfRange", f"edge {e} references ({i}, {j}), N={n}")
            )
            continue
        if (i, j) in entries:
            out.append(Violation("DuplicateEdge", f"entry ({i}, {j}) repeated at edge {e}"))
            continue
        entries[(i, j)] = e
    for (i, j), e in entries.items():
        rev = entries.get((j, i))
        if rev is None:
            out.append(
                Violation("MissingReverseEdge", f"({i}, {j}) present but ({j}, {i}) absent")
            )
        elif i < j and not np.array_equal(g.edge_attr[e], g.edge_attr[rev]):
            out.append(
                Violation(
                    "AsymmetricEdgeAttr",
                    f"edge features of ({i}, {j}) and ({j}, {i}) differ",
                )
            )
    return out


def assert_same_bits(got, want) -> None:
    """Equal dtype, shape and float64 bit patterns (so -0.0 != 0.0)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def mixed_adjacency(rng, n: int, s: int) -> np.ndarray:
    """N x N x s values over 16 decades, so that a change of summation order
    changes bits; about half the entries zero, some of them -0.0, and about
    a fifth of the rows all zero."""
    a = rng.standard_normal((n, n, s)) * 10.0 ** rng.integers(-8, 8, size=(n, n, s))
    a[rng.random((n, n, s)) < 0.5] = 0.0
    a[rng.random((n, n, s)) < 0.1] = -0.0
    a[rng.random(n) < 0.2] = 0.0
    return a


def random_membership(rng, n: int, groups: int = 0) -> MembershipMatrix:
    """A random hard partition of n nodes into `groups` (random if 0)
    nonempty groups."""
    groups = groups or int(rng.integers(1, n + 1))
    assign = rng.integers(0, groups, size=n)
    assign[rng.permutation(n)[:groups]] = np.arange(groups)
    m = np.zeros((n, groups))
    m[np.arange(n), assign] = 1.0
    return MembershipMatrix(m)


def messy_graph(rng, n: int, s: int, defects: bool) -> Graph:
    """A random undirected graph in COO form. With `defects`, some edges are
    dropped (missing reverse), repeated, pointed outside [0, n) or given
    different features from their reverse (including NaN and -0.0 against
    0.0, which is not a difference), and the edge order is shuffled."""
    upper = [(i, j) for i in range(n) for j in range(i, n) if rng.random() < 0.3]
    cols, attrs = [], []
    for i, j in upper:
        feat = rng.standard_normal(s) * (rng.random(s) < 0.7)
        cols += [(i, j)] if i == j else [(i, j), (j, i)]
        attrs += [feat] if i == j else [feat, feat.copy()]
    if defects:
        for e in range(len(cols)):
            r = rng.random()
            if r < 0.05:
                attrs[e] = attrs[e] + 1.0
            elif r < 0.08:
                attrs[e] = np.full(s, np.nan)
            elif r < 0.12:
                attrs[e] = np.where(attrs[e] == 0.0, -0.0, attrs[e])
        keep = rng.random(len(cols)) >= 0.05
        cols = [c for c, k in zip(cols, keep) if k]
        attrs = [a for a, k in zip(attrs, keep) if k]
        for _ in range(int(rng.integers(0, 4))):
            e = int(rng.integers(0, len(cols) + 1))
            if cols and rng.random() < 0.5:
                src = int(rng.integers(0, len(cols)))
                cols.insert(e, cols[src])
                attrs.insert(e, rng.standard_normal(s))
            else:
                bad = (int(rng.choice([-1, n, n + 5])), int(rng.integers(0, n)))
                cols.insert(e, bad if rng.random() < 0.5 else bad[::-1])
                attrs.insert(e, rng.standard_normal(s))
        order = rng.permutation(len(cols))
        cols = [cols[k] for k in order]
        attrs = [attrs[k] for k in order]
    edge_index = np.array(cols, dtype=np.int64).T if cols else np.zeros((2, 0))
    edge_attr = np.array(attrs) if attrs else np.zeros((0, s))
    return Graph(x=rng.standard_normal((n, 3)), edge_index=edge_index, edge_attr=edge_attr)


def fit_tier_per_graph(model, samples, config, rng=None) -> list[float]:
    """Full-batch Adam on the mean per-graph loss, one graph (a stack of
    one) at a time."""
    opt = Adam(model.params(), lr=config.lr)
    history = []
    for _ in range(config.epochs):
        tape = Tape()
        opt.zero_grads()
        total = None
        for s in samples:
            eps = None if rng is None else rng.standard_normal((s.x.shape[0], model.d_z))
            loss, _ = model.loss(tape, tape.const(s.x[None]), tape.const(s.a_norm[None]),
                                 bce_weights(s.target[None]), config,
                                 None if eps is None else eps[None])
            total = loss if total is None else tape.add(total, loss)
        total = tape.scalar_mul(1.0 / len(samples), total)
        tape.backward(total)
        opt.step()
        history.append(float(tape.value(total)))
    return history


def mixed_size_samples(rng, sizes, d: int) -> list[TierSample]:
    """One random undirected graph per entry of `sizes`, with d features."""
    samples = []
    for n in sizes:
        upper = np.triu(rng.random((n, n)) < 0.4, k=1)
        a = (upper | upper.T).astype(np.float64)[:, :, None]
        samples.append(tier_sample(rng.standard_normal((n, d)), a))
    return samples
