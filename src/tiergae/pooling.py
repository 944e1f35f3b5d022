"""Membership-driven graph coarsening between tiers.

Pooling contracts a tier's graph through a fixed binary membership matrix M,
held as the group index of each node: features become M^T Z (group sums),
adjacency becomes M^T A M applied per edge-feature channel. M comes from chemistry, not from learning; no gradient
ever flows into it. Within-group edge mass lands on the diagonal of the
coarse adjacency and is kept there.

Sums are accumulated in ascending node order (i-major, then j) so results
are reproducible bit for bit across runs and refactors. Both sums are one
`np.add.at` scatter-add: it applies its adds one index at a time in index
order, and the indices are listed node-major (group[i] for features, the
row-major cell group[i]*G + group[j] for adjacency), so every output cell
receives its terms in the same order as a loop over i, then j. Adjacency
entries whose channels are all zero are left out of the scatter: a sum
started at +0.0 is never -0.0, and adding a zero of either sign to any
other float leaves it unchanged, so skipping them changes no bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ShapeMismatchError
from .graphs import MembershipMatrix, adjacency_array, edge_mask


def pool_features(z: np.ndarray, m: MembershipMatrix) -> np.ndarray:
    """M^T Z via ordered accumulation: x_next[g] = sum of z rows in group g."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[0] != m.num_nodes:
        raise ShapeMismatchError(
            f"z has {z.shape[0]} rows, membership has {m.num_nodes}"
        )
    out = np.zeros((m.num_groups, z.shape[1]), dtype=np.float64)
    np.add.at(out, m.group, z)
    return out


def pool_adjacency(a, m: MembershipMatrix, mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-channel M^T A M via ordered accumulation over entries (i, j).
    A caller that has a's edge mask already passes it as `mask`: an N x N
    array that is nonzero exactly where a has a nonzero channel (its
    `edge_mask`, or `gcn.binary_collapse`)."""
    arr = adjacency_array(a)
    if arr.shape[0] != m.num_nodes:
        raise ShapeMismatchError(
            f"adjacency is {arr.shape[0]} nodes, membership has {m.num_nodes}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("adjacency contains non-finite entries")
    group = m.group
    g = m.num_groups
    i, j = np.nonzero(edge_mask(arr) if mask is None else mask)  # row-major
    out = np.zeros((g * g, arr.shape[2]), dtype=np.float64)
    np.add.at(out, group[i] * g + group[j], arr[i, j])
    return out.reshape(g, g, arr.shape[2])


def graph_tier_membership(g_count: int) -> MembershipMatrix:
    """All groups into one graph-level node: the G x 1 ones matrix."""
    if g_count < 1:
        raise ValueError(f"need at least one group, got {g_count}")
    return MembershipMatrix(np.zeros(g_count, dtype=np.int64), 1)
