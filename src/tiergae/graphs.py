"""Graph data model: COO sparse adjacency plus dense multi-channel adjacency.

A graph holds a node feature matrix ``x`` (N x d), 0-based edge indices in
COO layout (2 x U) and a per-edge feature matrix ``edge_attr`` (U x s).
Undirected edges are stored as both directed entries. The equivalent dense
form is a plain N x N x s float64 array with one channel per edge feature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DuplicateEdgeError,
    EmptyGroupError,
    IndexOutOfRangeError,
    ShapeMismatchError,
)


@dataclass
class Graph:
    x: np.ndarray
    edge_index: np.ndarray
    edge_attr: np.ndarray
    pos: Optional[np.ndarray] = None
    id: Optional[str] = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.edge_index = np.asarray(self.edge_index, dtype=np.int64)
        self.edge_attr = np.asarray(self.edge_attr, dtype=np.float64)
        if self.edge_attr.ndim == 1:
            self.edge_attr = self.edge_attr.reshape(-1, 1)
        if self.pos is not None:
            self.pos = np.asarray(self.pos, dtype=np.float64)

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
    """Binary N x G node-to-group assignment; rows are a hard partition."""

    m: np.ndarray

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=np.float64)
        if self.m.ndim != 2:
            raise ShapeMismatchError(f"membership must be 2-D, got {self.m.shape}")
        if not np.isin(self.m, (0.0, 1.0)).all():
            raise ValueError("membership entries must be 0 or 1")
        rows = self.m.sum(axis=1)
        if not (rows == 1.0).all():
            bad = int(np.flatnonzero(rows != 1.0)[0])
            raise ValueError(f"membership row {bad} must sum to exactly 1")
        cols = self.m.sum(axis=0)
        if (cols < 1.0).any():
            bad = int(np.flatnonzero(cols < 1.0)[0])
            raise EmptyGroupError(f"membership column {bad} assigns no nodes")

    @property
    def num_nodes(self) -> int:
        return self.m.shape[0]

    @property
    def num_groups(self) -> int:
        return self.m.shape[1]


@dataclass(frozen=True)
class Violation:
    """One failed graph invariant; ``kind`` is machine-checkable."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def adjacency_array(a) -> np.ndarray:
    """Coerce a 2-D (one channel) or 3-D array to the N x N x s layout."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, np.newaxis]
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1]:
        raise ShapeMismatchError(f"adjacency must be N x N x s, got {arr.shape}")
    return arr


def _edge_cells(edge_index: np.ndarray, n: int):
    """Per-edge bookkeeping for a 2 x U edge index over n nodes.

    Returns (in_range, repeated, cells, first): `in_range` marks edges with
    both ends in [0, n); `repeated` marks in-range edges whose (i, j) an
    earlier in-range edge already holds; `cells` are the sorted distinct
    row-major cells i*n + j of the in-range edges and `first[k]` is the
    first edge holding `cells[k]`.
    """
    i, j = edge_index
    in_range = (i >= 0) & (i < n) & (j >= 0) & (j < n)
    kept = np.flatnonzero(in_range)
    # a stable sort, so return_index gives each cell's first edge
    cells, first = np.unique(i[kept] * n + j[kept], return_index=True)
    first = kept[first]
    repeated = in_range.copy()
    repeated[first] = False
    return in_range, repeated, cells, first


def coo_to_dense(g: Graph) -> np.ndarray:
    """Expand the COO tuple into the N x N x s array; duplicates are an error.

    Of several bad edges the one with the lowest index is reported.
    """
    n = g.num_nodes
    u = g.num_edges
    if g.edge_index.ndim != 2 or g.edge_index.shape[0] != 2:
        raise ShapeMismatchError(f"edge_index must be 2 x U, got {g.edge_index.shape}")
    if g.edge_attr.shape[0] != u:
        raise ShapeMismatchError(
            f"edge_attr has {g.edge_attr.shape[0]} rows, expected {u}"
        )
    in_range, repeated, _, _ = _edge_cells(g.edge_index, n)
    bad = np.flatnonzero(~in_range | repeated)
    if bad.size:
        e = int(bad[0])
        i, j = g.edge_index[:, e].tolist()
        if not in_range[e]:
            raise IndexOutOfRangeError(
                f"edge {e} references node ({i}, {j}) outside [0, {n})"
            )
        raise DuplicateEdgeError(f"duplicate COO entry ({i}, {j}) at edge {e}")
    a = np.zeros((n, n, g.num_edge_channels), dtype=np.float64)
    a[g.edge_index[0], g.edge_index[1]] = g.edge_attr
    return a


def dense_to_coo(a) -> tuple[np.ndarray, np.ndarray]:
    """COO tuple of all (i, j) with any nonzero channel, in row-major order."""
    arr = adjacency_array(a)
    if not np.isfinite(arr).all():
        raise ValueError("dense adjacency contains non-finite entries")
    i, j = np.nonzero(arr.any(axis=2))  # row-major; -0.0 counts as zero
    return np.array([i, j], dtype=np.int64), arr[i, j]


def validate(g: Graph) -> list[Violation]:
    """Check every Graph invariant; violations are returned, never raised."""
    out: list[Violation] = []
    n = g.num_nodes
    if g.x.ndim != 2:
        out.append(Violation("ShapeMismatch", f"x must be 2-D, got shape {g.x.shape}"))
        return out
    if g.edge_index.ndim != 2 or g.edge_index.shape[0] != 2:
        out.append(
            Violation("ShapeMismatch", f"edge_index must be 2 x U, got {g.edge_index.shape}")
        )
        return out
    u = g.num_edges
    if g.edge_attr.ndim != 2 or g.edge_attr.shape[0] != u:
        out.append(
            Violation(
                "ShapeMismatch",
                f"edge_attr has shape {g.edge_attr.shape}, expected ({u}, s)",
            )
        )
        return out

    in_range, repeated, cells, first = _edge_cells(g.edge_index, n)
    # edge-level violations, in edge order
    for e in np.flatnonzero(~in_range | repeated).tolist():
        i, j = g.edge_index[:, e].tolist()
        if in_range[e]:
            out.append(Violation("DuplicateEdge", f"entry ({i}, {j}) repeated at edge {e}"))
        else:
            out.append(Violation("IndexOutOfRange", f"edge {e} references ({i}, {j}), N={n}"))
    if not cells.size:
        return out
    # pair-level violations, in order of each entry's first edge
    src, dst = g.edge_index[:, first]
    k = np.minimum(np.searchsorted(cells, dst * n + src), cells.size - 1)
    missing = cells[k] != dst * n + src
    differ = ~missing & (src < dst) & (g.edge_attr[first] != g.edge_attr[first[k]]).any(axis=1)
    bad = np.flatnonzero(missing | differ)
    for c in bad[np.argsort(first[bad])].tolist():
        i, j = int(src[c]), int(dst[c])
        if missing[c]:
            out.append(
                Violation("MissingReverseEdge", f"({i}, {j}) present but ({j}, {i}) absent")
            )
        else:
            out.append(
                Violation(
                    "AsymmetricEdgeAttr",
                    f"edge features of ({i}, {j}) and ({j}, {i}) differ",
                )
            )
    return out


def permute_graph(g: Graph, perm: np.ndarray) -> Graph:
    """Relabel nodes: node i becomes perm[i]. Edge order is preserved."""
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(g.num_nodes)):
        raise ValueError("perm must be a permutation of [0, N)")
    inv = np.empty_like(perm)
    inv[perm] = np.arange(g.num_nodes)
    new_x = g.x[inv]
    new_pos = g.pos[inv] if g.pos is not None else None
    new_edge_index = perm[g.edge_index]
    return Graph(
        x=new_x,
        edge_index=new_edge_index,
        edge_attr=g.edge_attr.copy(),
        pos=new_pos,
        id=g.id,
    )
