"""Graph data model: COO sparse adjacency plus dense multi-channel adjacency.

A graph holds a node feature matrix ``x`` (N x d), 0-based edge indices in
COO layout (2 x U) and a per-edge feature matrix ``edge_attr`` (U x s).
Undirected edges are stored as both directed entries. The equivalent dense
form is a plain N x N x s float64 array with one channel per edge feature.
"""

from __future__ import annotations

import operator
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
            raise ValueError(f"membership entries must be integer group indices, "
                             f"got {group.dtype}")
        self.num_groups = g = operator.index(self.num_groups)
        bad = np.flatnonzero((group < 0) | (group >= g))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"membership node {i} is in group {group[i]}, not in [0, {g})")
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
    i, j = np.nonzero(edge_mask(arr))  # row-major
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
