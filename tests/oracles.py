"""Loop references for the vectorized graph layer, and test data for them.

The `*_loop` functions are the per-entry Python loops that `pooling` and
`graphs` used before they were vectorized, with the same summation order,
error types and messages, and violation order. Tests compare the library
against them bit for bit.

`fit_tier_per_graph` is the epoch loop as it was before training stacked
graphs: one graph at a time, with each graph's noise drawn on its own, in
sample order.

`encode_tiers_per_graph` and `pool_samples_per_graph` are inference and the
training handoff as they were before they stacked graphs: one graph at a
time, each on the normalized adjacency of `gcn_norm_per_graph` (the
library's `gcn_norm` as it was, A + I for one graph), its embedding pooled
through its own membership. `fit_tier_one_tape` is the stacked epoch loop as it was
before each stack got a tape of its own: every padded stack of an epoch on
one tape, and one backward sweep over it.

`formula_from_features_loop` is `sdf.formula_from_features` with one
`argmax` per atom.

`pool_adjacency_loop` sums every cell of the pooled adjacency in row-major
order and then, as `pooling.pool_adjacency` does since pooled tiers are
symmetric by construction, copies each cell above the diagonal into its
mirror below it; `mirror=False` gives the loop as it was before.

`bce_logits_two_softplus` and `decode_adjacency_matmul` are the loss and
decoder as they were before `Tape.bce_logits` was fused and `Tape.gram`
replaced a matmul with a transpose node: two `softplus` passes forward, two
`stable_sigmoid` calls backward (with the per-graph count of the fused
op), and Z Z^T as two tape nodes.

`membership_from_partition_dense` is `fgroups.membership_from_partition` as
it was while a membership held its dense N x G matrix, and returns that
matrix. `membership_from_dense` and `dense_membership` convert between the
dense matrix and the group-index vector that `MembershipMatrix` holds.

`parse_sdf_per_line`, `featurize_loop`, `mark_atoms_loop` and
`build_partition_loop` are ingest as it was before its block loops and
featurization lost their per-atom calls: one helper call per atom line and
per bond line, with the checks in the same order and the same errors, and
`_is_hydrogen` / `_is_heteroatom` once per bond end. The field reader is
the library's `sdf._int_field`, so the references take the same integer
grammar (ASCII digits only); the header and the properties and data that
follow the blocks are read by the library's own helpers.

`permute_graph`, `decode_adjacency_numpy`, `formula_from_molecule` and
`functional_groups` are reference helpers that the pipeline does not call.
"""

import math
import warnings

import numpy as np

from tiergae import sdf
from tiergae.autodiff import Adam, Tape
from tiergae.errors import (
    DomainError,
    DuplicateEdgeError,
    IncompleteCoverError,
    IndexOutOfRangeError,
    InvalidBondError,
    SdfError,
    ShapeMismatchError,
    TruncatedBlockError,
)
from tiergae.fgroups import FUNCTIONAL, SKELETON, GroupPartition
from tiergae.graphs import (
    Graph,
    MembershipMatrix,
    Violation,
    adjacency_array,
    coo_to_dense,
    dense_to_coo,
)
from tiergae.pooling import graph_tier_membership, pool_features
from tiergae.sdf import (
    BOND_ORDERS,
    CHARGE_CODES,
    EDGE_FEATURE_DIM,
    ELEMENT_VOCAB,
    NODE_FEATURE_DIM,
    OTHER_BUCKET,
    Atom,
    Bond,
    Molecule,
    _hill_formula,
)
from tiergae.gcn import gcn_norm
from tiergae.tgae import (
    TierBundle,
    TieredRepresentation,
    TierSample,
    bce_weights,
    stack_samples,
    tier_sample,
)


# ---------------------------------------------------------------- ingest

def parse_atom_line(line: str, idx: int) -> Atom:
    if len(line) < 34:
        raise TruncatedBlockError(f"atom line {idx + 1} too short: {line!r}")
    try:
        coords = (float(line[0:10]), float(line[10:20]), float(line[20:30]))
    except ValueError:
        raise TruncatedBlockError(
            f"atom line {idx + 1}: unreadable coordinates in {line!r}"
        ) from None
    symbol = line[31:34].strip()
    if not symbol:
        raise TruncatedBlockError(f"atom line {idx + 1}: empty element symbol")
    if not sdf._ELEMENT_SYMBOL.fullmatch(symbol):
        raise SdfError(f"atom line {idx + 1}: {symbol!r} is not an element symbol")
    code = 0
    if line[36:39].strip():
        code = sdf._int_field(line, 36, 39, f"atom line {idx + 1} charge code", SdfError)
    charge = CHARGE_CODES.get(code, 0)
    return Atom(symbol=symbol, charge=charge, coords=coords)


def parse_bond_line(line: str, idx: int, n_atoms: int) -> Bond:
    if len(line) < 9:
        raise TruncatedBlockError(f"bond line {idx + 1} too short: {line!r}")
    a1 = sdf._int_field(line, 0, 3, f"bond line {idx + 1}", InvalidBondError)
    a2 = sdf._int_field(line, 3, 6, f"bond line {idx + 1}", InvalidBondError)
    order = sdf._int_field(line, 6, 9, f"bond line {idx + 1}", InvalidBondError)
    if not (1 <= a1 <= n_atoms and 1 <= a2 <= n_atoms):
        raise InvalidBondError(
            f"bond line {idx + 1}: endpoints ({a1}, {a2}) outside [1, {n_atoms}]"
        )
    if a1 == a2:
        raise InvalidBondError(f"bond line {idx + 1}: self-bond on atom {a1}")
    if order not in BOND_ORDERS:
        raise InvalidBondError(f"bond line {idx + 1}: unsupported bond type {order}")
    return Bond(a1=a1, a2=a2, order=order)


def _parse_record_per_line(lines: list[str]) -> Molecule:
    name, n_atoms, n_bonds = sdf._read_header(lines)
    bond_start = 4 + n_atoms
    atoms = [parse_atom_line(lines[4 + i], i) for i in range(n_atoms)]
    bonds: list[Bond] = []
    seen_pairs: set[frozenset[int]] = set()
    for i in range(n_bonds):
        bond = parse_bond_line(lines[bond_start + i], i, n_atoms)
        pair = frozenset((bond.a1, bond.a2))
        if pair in seen_pairs:
            raise InvalidBondError(
                f"bond line {i + 1}: duplicate bond between {bond.a1} and {bond.a2}"
            )
        seen_pairs.add(pair)
        bonds.append(bond)
    return sdf._finish_record(lines, bond_start + n_bonds, name, atoms, bonds)


def parse_sdf_per_line(data) -> list[Molecule]:
    text = sdf._decode(data)
    molecules: list[Molecule] = []
    record: list[str] = []
    for raw in text.splitlines():
        if raw.strip() == "$$$$":
            if any(line.strip() for line in record):
                molecules.append(_parse_record_per_line(record))
            record = []
        else:
            record.append(raw)
    if any(line.strip() for line in record):
        molecules.append(_parse_record_per_line(record))
    return molecules


def _element_index(symbol: str) -> int:
    try:
        return ELEMENT_VOCAB.index(symbol)
    except ValueError:
        warnings.warn(f"element {symbol!r} not in vocabulary, using the catch-all bucket")
        return OTHER_BUCKET


def featurize_loop(mol: Molecule) -> Graph:
    n = mol.atom_count
    x = np.zeros((n, NODE_FEATURE_DIM), dtype=np.float64)
    degree = np.zeros(n, dtype=np.float64)
    for bond in mol.bonds:
        degree[bond.a1 - 1] += 1
        degree[bond.a2 - 1] += 1
    for i, atom in enumerate(mol.atoms):
        x[i, _element_index(atom.symbol)] = 1.0
        x[i, OTHER_BUCKET + 1] = float(atom.charge)
        x[i, OTHER_BUCKET + 2] = degree[i]

    u = 2 * mol.bond_count
    edge_index = np.zeros((2, u), dtype=np.int64)
    edge_attr = np.zeros((u, EDGE_FEATURE_DIM), dtype=np.float64)
    for e, bond in enumerate(mol.bonds):
        i, j = bond.a1 - 1, bond.a2 - 1
        channel = BOND_ORDERS.index(bond.order)
        edge_index[:, 2 * e] = (i, j)
        edge_index[:, 2 * e + 1] = (j, i)
        edge_attr[2 * e, channel] = 1.0
        edge_attr[2 * e + 1, channel] = 1.0

    mol_id = str(mol.cid) if mol.cid is not None else mol.name
    return Graph(x=x, edge_index=edge_index, edge_attr=edge_attr, id=mol_id)


def _is_hydrogen(mol: Molecule, i: int) -> bool:
    return mol.atoms[i].symbol == "H"


def _is_heteroatom(mol: Molecule, i: int) -> bool:
    return mol.atoms[i].symbol not in ("C", "H")


def mark_atoms_loop(mol: Molecule) -> set[int]:
    marked: set[int] = set()
    hetero_single_neighbors: dict[int, int] = {}
    for i in range(mol.atom_count):
        if _is_heteroatom(mol, i):
            marked.add(i)
    for bond in mol.bonds:
        i, j = bond.a1 - 1, bond.a2 - 1
        for a, b in ((i, j), (j, i)):
            if mol.atoms[a].symbol != "C":
                continue
            if bond.order in (2, 3) and _is_heteroatom(mol, b):
                marked.add(a)
            if bond.order in (2, 3) and mol.atoms[b].symbol == "C":
                marked.add(a)
            if bond.order == 1 and _is_heteroatom(mol, b):
                hetero_single_neighbors[a] = hetero_single_neighbors.get(a, 0) + 1
    for a, count in hetero_single_neighbors.items():
        if count >= 2:
            marked.add(a)
    return marked


def build_partition_loop(mol: Molecule, marked: set[int]) -> GroupPartition:
    n = mol.atom_count
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for bond in mol.bonds:
        i, j = bond.a1 - 1, bond.a2 - 1
        if i in marked and j in marked:
            union(i, j)
    for bond in mol.bonds:
        i, j = bond.a1 - 1, bond.a2 - 1
        for h, other in ((i, j), (j, i)):
            if _is_hydrogen(mol, h) and not _is_hydrogen(mol, other):
                union(h, other)

    members: dict[int, list[int]] = {}
    for i in range(n):
        members.setdefault(find(i), []).append(i)
    roots = sorted(members, key=lambda r: min(members[r]))
    groups = [tuple(sorted(members[r])) for r in roots]
    kinds = [
        FUNCTIONAL if any(a in marked for a in g) else SKELETON
        for g in groups
    ]
    return GroupPartition(groups=groups, kinds=kinds)


def formula_from_molecule(mol: Molecule) -> str:
    counts: dict[str, int] = {}
    for atom in mol.atoms:
        counts[atom.symbol] = counts.get(atom.symbol, 0) + 1
    return _hill_formula(counts)


def functional_groups(p: GroupPartition) -> list[tuple[int, ...]]:
    return [g for g, k in zip(p.groups, p.kinds) if k == FUNCTIONAL]


def membership_from_partition_dense(p: GroupPartition, n: int) -> np.ndarray:
    """Binary N x G matrix; columns ordered by smallest member index. The
    groups are non-empty lists of ints (no bools) that cover [0, n) once."""
    if not isinstance(p.groups, (list, tuple)) or not all(
            isinstance(g, (list, tuple)) and g and all(type(a) is int for a in g)
            for g in p.groups):
        raise IncompleteCoverError("groups must be a list of non-empty lists of int indices")
    covered = sorted(a for g in p.groups for a in g)
    if covered != list(range(n)):
        raise IncompleteCoverError(
            f"groups hold {len(covered)} atom indices, not each of [0, {n}) once"
        )
    order = sorted(range(p.group_count), key=lambda gi: min(p.groups[gi]))
    m = np.zeros((n, p.group_count), dtype=np.float64)
    for col, gi in enumerate(order):
        m[list(p.groups[gi]), col] = 1.0
    return m


def membership_from_dense(m) -> MembershipMatrix:
    """The membership of a binary N x G matrix; a row that is not one-hot
    (a single 1, zeros elsewhere) is a ValueError."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatchError(f"membership must be 2-D, got {m.shape}")
    one_hot = ((m == 0.0) | (m == 1.0)).all(axis=1) & (m.sum(axis=1) == 1.0)
    if not one_hot.all():
        raise ValueError(f"membership row {int(np.flatnonzero(~one_hot)[0])} is not one-hot")
    return MembershipMatrix(m.argmax(axis=1), m.shape[1])


def dense_membership(m: MembershipMatrix) -> np.ndarray:
    """The binary N x G matrix of a membership."""
    return np.eye(m.num_groups)[m.group]


def permute_graph(g: Graph, perm: np.ndarray) -> Graph:
    """Relabel nodes: node i becomes perm[i]. Edge order is preserved."""
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(g.num_nodes)):
        raise ValueError("perm must be a permutation of [0, N)")
    inv = np.empty_like(perm)
    inv[perm] = np.arange(g.num_nodes)
    return Graph(x=g.x[inv], edge_index=perm[g.edge_index],
                 edge_attr=g.edge_attr.copy(), id=g.id)


def decode_adjacency_numpy(z: np.ndarray) -> np.ndarray:
    """Edge logits Z Z^T of one graph."""
    z = np.asarray(z, dtype=np.float64)
    return z @ z.T


def formula_from_features_loop(x: np.ndarray) -> str:
    x = np.asarray(x)
    counts: dict[str, int] = {}
    for row in x:
        idx = int(np.argmax(row[: OTHER_BUCKET + 1]))
        symbol = ELEMENT_VOCAB[idx] if idx < OTHER_BUCKET else "X"
        counts[symbol] = counts.get(symbol, 0) + 1
    return _hill_formula(counts)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Two-branch logistic; exp sees only non-positive arguments."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)); exp never overflows
    and a NaN passes through without a warning."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def bce_logits_two_softplus(tape: Tape, logits: int, c1, c2, count) -> int:
    """`Tape.bce_logits` with a softplus per term and a sigmoid per term of
    its gradient, each graph's sums over its last two axes divided by its
    own count; takes the tape first, so it can stand in for the method."""
    vl = tape.value(logits)
    c1, c2 = np.asarray(c1, dtype=np.float64), np.asarray(c2, dtype=np.float64)
    count = np.asarray(count, dtype=np.float64)
    cells = (-2, -1)
    with np.errstate(invalid="ignore"):  # 0 * inf on an infinite logit
        loss = (((c1 * softplus(-vl)).sum(axis=cells) + (c2 * softplus(vl)).sum(axis=cells))
                / count).sum()

    def vjp(g):
        return ((c2 * stable_sigmoid(vl) - c1 * stable_sigmoid(-vl))
                * (float(g) / count[..., None, None]),)

    return tape._record(loss, (logits,), vjp)


def decode_adjacency_matmul(tape: Tape, z: int) -> int:
    """Z Z^T as a transpose node and a matmul node."""
    zt = tape._record(np.swapaxes(tape.value(z), -1, -2), (z,),
                      lambda g: (np.swapaxes(g, -1, -2),))
    return tape.matmul(z, zt)


def pool_features_loop(z: np.ndarray, m: MembershipMatrix) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    group = dense_membership(m).argmax(axis=1)
    out = np.zeros((m.num_groups, z.shape[1]), dtype=np.float64)
    for i in range(z.shape[0]):
        out[group[i]] += z[i]
    return out


def pool_adjacency_loop(a, m: MembershipMatrix, mirror: bool = True) -> np.ndarray:
    """Every entry (i, j) added into its cell, row-major; then, with
    `mirror`, each cell above the diagonal copied into its mirror below."""
    arr = adjacency_array(a)
    group = dense_membership(m).argmax(axis=1)
    n, _, s = arr.shape
    out = np.zeros((m.num_groups, m.num_groups, s), dtype=np.float64)
    for i in range(n):
        gi = group[i]
        for j in range(n):
            out[gi, group[j]] += arr[i, j]
    if mirror:
        for g in range(m.num_groups):
            for h in range(g + 1, m.num_groups):
                out[h, g] = out[g, h]
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
    return MembershipMatrix(assign, groups)


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


class AdamPerParam:
    """Bias-corrected Adam as one update per parameter, on arrays of its own,
    with the decays 0.9 and 0.999 and the guard 1e-8: the loop that
    `autodiff.Adam`'s one update over its vectors must match bit for bit."""

    def __init__(self, params, lr: float):
        self.params, self.lr, self.t = list(params), lr, 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = 0.9, 0.999
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)


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
            loss, _ = model.loss(tape, tape.const(s.x[None]), tape.const(gcn_norm(s.mask)[None]),
                                 bce_weights(s.mask[None]), config,
                                 None if eps is None else eps[None])
            total = loss if total is None else tape.add(total, loss)
        total = tape.scalar_mul(1.0 / len(samples), total)
        tape.backward(total)
        opt.step()
        history.append(float(tape.value(total)))
    return history


def fit_tier_one_tape(model, samples, config, noise=None) -> list[float]:
    """Full-batch Adam on the mean per-graph loss, every stack of an epoch
    on one tape."""
    if not samples:
        raise ValueError("training a tier needs at least one sample")
    stacks = stack_samples(samples)
    bces = [bce_weights(st.mask, st.nodes) for st in stacks]
    node_rows = sum(s.x.shape[0] for s in samples)
    opt = Adam(model.params(), lr=config.lr)
    history: list[float] = []
    for epoch in range(config.epochs):
        tape = Tape()
        opt.zero_grads()
        # the rows of every graph, then a row of zeros for the pad rows
        eps = (None if noise is None else
               np.vstack([noise.standard_normal((node_rows, model.d_z)),
                          np.zeros((1, model.d_z))]))
        total = None
        for st, bce in zip(stacks, bces):
            st_eps = None if eps is None else eps[st.rows].reshape(*st.x.shape[:2], -1)
            loss, _ = model.loss(tape, tape.const(st.x), tape.const(st.a_norm), bce,
                                 config, st_eps)
            total = loss if total is None else tape.add(total, loss)
        total = tape.scalar_mul(1.0 / len(samples), total)
        loss = float(tape.value(total))
        if not math.isfinite(loss):
            raise DomainError(f"tier {model.tier}: epoch {epoch} loss is {loss}")
        tape.backward(total)
        opt.step()
        history.append(loss)
    return history


def mixed_size_samples(rng, sizes, d: int) -> list[TierSample]:
    """One random undirected graph per entry of `sizes`, with d features."""
    samples = []
    for n in sizes:
        upper = np.triu(rng.random((n, n)) < 0.4, k=1)
        a = (upper | upper.T).astype(np.float64)[:, :, None]
        samples.append(tier_sample(rng.standard_normal((n, d)), a))
    return samples


def gcn_norm_per_graph(a) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2} of one N x N matrix."""
    a = np.asarray(a, dtype=np.float64)
    a_tilde = a + np.eye(a.shape[0])
    deg = a_tilde.sum(axis=1)
    with np.errstate(divide="ignore"):
        d_inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
    return a_tilde * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def pool_samples_per_graph(model, samples, memberships) -> list[TierSample]:
    """The next tier's samples, one graph at a time: each sample embedded
    alone, its rows pooled through its membership, its pooled adjacency
    through its entry of `memberships`."""
    return [tier_sample(pool_features(model.embed(s.x, gcn_norm_per_graph(s.mask)), s.m),
                        s.pooled_a, m)
            for s, m in zip(samples, memberships)]


def encode_tiers_per_graph(graph: Graph, m1: MembershipMatrix, models) -> TieredRepresentation:
    """The inference pass of one graph through all tiers, alone."""
    s = tier_sample(graph.x, coo_to_dense(graph), m1)
    coo = (graph.edge_index, graph.edge_attr)
    rep = TieredRepresentation()
    for model, m_next in zip(models, (graph_tier_membership(m1.num_groups), None)):
        z = model.embed(s.x, gcn_norm_per_graph(s.mask))
        rep.tiers.append(TierBundle(s.x, *coo, s.m.group, z))
        coo = dense_to_coo(s.pooled_a)
        s = tier_sample(pool_features(z, s.m), s.pooled_a, m_next)
    rep.tiers.append(TierBundle(s.x, *coo, None,
                                models[2].embed(s.x, gcn_norm_per_graph(s.mask))))
    return rep

