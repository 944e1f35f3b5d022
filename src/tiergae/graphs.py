"""Graph data model: COO sparse adjacency plus dense multi-channel adjacency.

A graph holds a node feature matrix ``x`` (N x d), 0-based edge indices in
COO layout (2 x U) and a per-edge feature matrix ``edge_attr`` (U x s).
Undirected edges are stored as both directed entries. The equivalent dense
form is a plain N x N x s float64 array with one channel per edge feature.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AsymmetricEdgeError,
    DomainError,
    DuplicateEdgeError,
    EmptyGroupError,
    IndexOutOfRangeError,
    ShapeMismatchError,
    TiergaeError,
)

# The most atoms a molecule may have. The tier path holds a molecule's
# edges as a dense N x N x s array, its normalized adjacency as N x N and,
# in training, a dozen N x N planes of its stack: at N = 2,000 and s = 4
# the edge array alone is 128 MB. The sizes this package is built and
# measured for stop at N = 200; a corpus with one 12,000-atom chain asked
# numpy for 4.29 GiB and ended in a MemoryError traceback. The bound also
# keeps `_violations`' cell ids, which count n^2 cells a graph, in int64
MAX_ATOMS = 2000


@dataclass
class Graph:
    x: np.ndarray
    edge_index: np.ndarray
    edge_attr: np.ndarray
    id: Optional[str] = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.edge_index = np.asarray(self.edge_index, dtype=np.int64)
        self.edge_attr = np.asarray(self.edge_attr, dtype=np.float64)
        if self.edge_attr.ndim == 1:
            self.edge_attr = self.edge_attr.reshape(-1, 1)

    @property
    def num_nodes(self) -> int:
        return self.x.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edge_index.shape[1]

    @property
    def num_edge_channels(self) -> int:
        return self.edge_attr.shape[1]


@dataclass
class MembershipMatrix:
    """Hard node-to-group assignment: node i is in group `group[i]`, in
    [0, num_groups), and every group has a node. It stands for the binary
    N x G matrix M with M[i, group[i]] = 1 and zeros elsewhere."""

    group: np.ndarray
    num_groups: int

    def __post_init__(self):
        group = np.asarray(self.group)
        if group.ndim != 1:
            raise ShapeMismatchError(f"membership must be 1-D, got {group.shape}")
        if group.dtype.kind not in "iu":
            raise ShapeMismatchError(f"membership entries must be integer group indices, "
                                     f"got {group.dtype}")
        self.num_groups = g = operator.index(self.num_groups)
        bad = np.flatnonzero((group < 0) | (group >= g))
        if bad.size:
            i = int(bad[0])
            raise IndexOutOfRangeError(f"membership node {i} is in group {group[i]}, "
                                       f"not in [0, {g})")
        self.group = group.astype(np.int64)
        empty = np.flatnonzero(np.bincount(self.group, minlength=g) == 0)
        if empty.size:
            raise EmptyGroupError(f"membership column {int(empty[0])} assigns no nodes")

    @classmethod
    def unchecked(cls, group: np.ndarray, num_groups: int) -> MembershipMatrix:
        """The membership of an int64 `group` vector that its caller has
        already checked against every rule above; no check is repeated."""
        m = cls.__new__(cls)
        m.group, m.num_groups = group, num_groups
        return m

    @property
    def num_nodes(self) -> int:
        return self.group.shape[0]


@dataclass(frozen=True)
class Violation:
    """One failed graph invariant; ``kind`` is machine-checkable."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


_ERRORS = {"ShapeMismatch": ShapeMismatchError, "IndexOutOfRange": IndexOutOfRangeError,
           "DuplicateEdge": DuplicateEdgeError, "MissingReverseEdge": AsymmetricEdgeError,
           "AsymmetricEdgeAttr": AsymmetricEdgeError, "TooManyAtoms": DomainError}


def adjacency_array(a) -> np.ndarray:
    """Coerce a 2-D (one channel) or 3-D array to the N x N x s layout."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, np.newaxis]
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1]:
        raise ShapeMismatchError(f"adjacency must be N x N x s, got {arr.shape}")
    return arr


def edge_mask(arr: np.ndarray) -> np.ndarray:
    """N x N bool mask of the cells of an N x N x s array with any nonzero
    channel: a NaN counts as nonzero, -0.0 as zero. Equal to
    `(arr != 0).any(axis=2)`, but built as an OR over the s channels,
    since numpy's reduction over a short last axis is the slower path."""
    mask = np.zeros(arr.shape[:2], dtype=bool)
    for c in range(arr.shape[2]):
        mask |= arr[:, :, c] != 0.0
    return mask


def coo_to_dense(g: Graph) -> np.ndarray:
    """Expand the COO tuple into the N x N x s array. The graph is one that
    `first_defect` has passed (at the corpus boundary or a library entry
    point), so no edge is out of range or repeated; neither is checked
    here."""
    a = np.zeros((g.num_nodes, g.num_nodes, g.num_edge_channels), dtype=np.float64)
    a[g.edge_index[0], g.edge_index[1]] = g.edge_attr
    return a


def dense_to_coo(a, mask: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """COO tuple of all (i, j) with any nonzero channel, in row-major order.
    A caller that has a's `edge_mask` already passes it as `mask`."""
    arr = adjacency_array(a)
    i, j = np.nonzero(edge_mask(arr) if mask is None else mask)  # row-major
    return np.array([i, j], dtype=np.int64), arr[i, j]


def validate(g: Graph) -> list[Violation]:
    """Check every Graph invariant; violations are returned, never raised:
    the shapes first, then more than MAX_ATOMS nodes (after either, nothing
    else), then each edge out of range or repeated, in edge order, then
    each pair without its reverse or with other features than its reverse,
    in order of the pair's first edge."""
    return _violations([g])[0]


def _graph_violation(g: Graph) -> Optional[Violation]:
    """A violation that leaves the graph's edges unchecked: a shape, or
    too many nodes to number its cells."""
    if g.x.ndim != 2:
        return Violation("ShapeMismatch", f"x must be 2-D, got shape {g.x.shape}")
    if g.edge_index.ndim != 2 or g.edge_index.shape[0] != 2:
        return Violation("ShapeMismatch",
                         f"edge_index must be 2 x U, got {g.edge_index.shape}")
    u = g.num_edges
    if g.edge_attr.ndim != 2 or g.edge_attr.shape[0] != u:
        return Violation("ShapeMismatch",
                         f"edge_attr has shape {g.edge_attr.shape}, expected ({u}, s)")
    if g.num_nodes > MAX_ATOMS:
        return Violation("TooManyAtoms", f"{g.num_nodes} atoms, more than MAX_ATOMS = {MAX_ATOMS}")
    return None


def _violations(graphs: Sequence[Graph]) -> list[list[Violation]]:
    """`validate` of each graph, the edges of all of them checked at once:
    in-range edge (i, j) of graph k is the cell c_k + i * n_k + j, with c_k
    the n^2 cells of the graphs before k, and one stable sort of the cells
    finds every repeat and every pair's reverse."""
    out: list[list[Violation]] = [[] for _ in graphs]
    regular = []
    for k, g in enumerate(graphs):
        whole = _graph_violation(g)
        if whole is None:
            regular.append(k)
        else:
            out[k].append(whole)
    if not regular:
        return out
    gs = [graphs[k] for k in regular]
    u = np.array([g.num_edges for g in gs], dtype=np.int64)
    start = np.cumsum(u) - u                    # each graph's first edge
    owner = np.repeat(np.arange(len(gs)), u)    # each edge's graph
    ei, ej = np.concatenate([g.edge_index for g in gs], axis=1)
    # edge features, zero-padded to the widest graph's channel count
    s = max(g.num_edge_channels for g in gs)
    attr = np.concatenate([g.edge_attr if g.num_edge_channels == s else
                           np.pad(g.edge_attr, ((0, 0), (0, s - g.num_edge_channels)))
                           for g in gs])
    n = np.array([g.num_nodes for g in gs], dtype=np.int64)
    n_e = n[owner]
    in_range = (ei >= 0) & (ei < n_e) & (ej >= 0) & (ej < n_e)
    kept = np.flatnonzero(in_range)
    base = np.cumsum(n * n) - n * n
    # a stable sort, so return_index gives each cell's first edge
    cells, first = np.unique(base[owner[kept]] + ei[kept] * n_e[kept] + ej[kept],
                             return_index=True)
    first = kept[first]
    repeated = in_range.copy()
    repeated[first] = False
    # edge-level violations, in edge order
    for edge in np.flatnonzero(~in_range | repeated).tolist():
        k = int(owner[edge])
        local, i, j = edge - int(start[k]), int(ei[edge]), int(ej[edge])
        if in_range[edge]:
            out[regular[k]].append(Violation(
                "DuplicateEdge", f"entry ({i}, {j}) repeated at edge {local}"))
        else:
            out[regular[k]].append(Violation(
                "IndexOutOfRange", f"edge {local} references ({i}, {j}), N={n[k]}"))
    if not cells.size:
        return out
    # pair-level violations, in order of each entry's first edge
    src, dst, graph = ei[first], ej[first], owner[first]
    reverse = base[graph] + dst * n[graph] + src
    c = np.minimum(np.searchsorted(cells, reverse), cells.size - 1)
    missing = cells[c] != reverse
    differ = ~missing & (src < dst) & (attr[first] != attr[first[c]]).any(axis=1)
    bad = np.flatnonzero(missing | differ)
    for pair in bad[np.argsort(first[bad])].tolist():
        i, j = int(src[pair]), int(dst[pair])
        if missing[pair]:
            v = Violation("MissingReverseEdge", f"({i}, {j}) present but ({j}, {i}) absent")
        else:
            v = Violation("AsymmetricEdgeAttr",
                          f"edge features of ({i}, {j}) and ({j}, {i}) differ")
        out[regular[int(graph[pair])]].append(v)
    return out


def first_defect(graphs: Sequence[Graph], memberships: Sequence[MembershipMatrix]
                 ) -> Optional[tuple[int, TiergaeError]]:
    """The first graph that the tier path cannot take, as (its index, its
    error); None if all pass. Its defect is the first of: a `validate`
    violation v (its kind's error, text `str(v)`); no atoms or no node
    features; edge features whose pooled sums could overflow; another
    node-feature width than graph 0's; a membership row count other than
    its node count. The corpus and the library both report this text."""
    limit, found = len(graphs), None
    for k, vs in enumerate(_violations(graphs)):
        if vs:
            limit, found = k, (k, _ERRORS[vs[0].kind](str(vs[0])))
            break
    with np.errstate(over="ignore"):
        for k, (g, m) in enumerate(zip(graphs[:limit], memberships)):
            if 0 in g.x.shape:
                error = ShapeMismatchError(f"x has shape {g.x.shape}, no atoms or features")
            # a pooled entry sums each edge feature at most once, in any order
            elif not np.isfinite(2.0 * np.abs(g.edge_attr).sum(axis=0)).all():
                error = DomainError("edge features too large to pool")
            elif g.x.shape[1] != graphs[0].x.shape[1]:
                error = ShapeMismatchError(f"{g.x.shape[1]} node features, "
                                           f"the first molecule has {graphs[0].x.shape[1]}")
            elif m.num_nodes != g.num_nodes:
                error = ShapeMismatchError(f"membership rows {m.num_nodes} != "
                                           f"node count {g.num_nodes}")
            else:
                continue
            return k, error
    return found
