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

That order fixes the diagonal and the upper triangle (g <= h) of a pooled
adjacency. Each cell (h, g) below the diagonal is summed from the terms of
its mirror (g, h), in the same order, so the two are equal bit for bit.
Summed from its own terms, cell (h, g) of a symmetric input could round
apart from cell (g, h) (1e16 + 3 - 1e16 is 4.0 one way and 3.0 the other),
and the pooled tier would not be an undirected graph. So every pooled tier
is one exactly, and its edge mask is symmetric by construction.
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
    """Per-channel M^T A M: each cell on or above the diagonal sums its
    entries (i, j) in row-major order, each cell below it its mirror's.
    A caller that has a's edge mask already passes it as `mask`: an N x N
    array that is nonzero exactly where a has a nonzero channel (its
    `edge_mask`). Every array the tier path pools is finite, and so is
    every sum of it: tier 1 comes from graphs that `graphs.first_defect`
    passed, whose edge-feature bound keeps twice each channel's summed
    magnitude finite, and each tier above is a pooled tier 1."""
    arr = adjacency_array(a)
    if arr.shape[0] != m.num_nodes:
        raise ShapeMismatchError(
            f"adjacency is {arr.shape[0]} nodes, membership has {m.num_nodes}"
        )
    group = m.group
    g = m.num_groups
    i, j = np.nonzero(edge_mask(arr) if mask is None else mask)  # row-major
    gi, gj = group[i], group[j]
    # the entries of the cells on and above the diagonal, then those above
    # it again, in the same order, for the mirror cells below it
    upper, above = np.flatnonzero(gi <= gj), np.flatnonzero(gi < gj)
    cells = np.concatenate([gi[upper] * g + gj[upper], gj[above] * g + gi[above]])
    k = np.concatenate([upper, above])
    out = np.zeros((g * g, arr.shape[2]), dtype=np.float64)
    np.add.at(out, cells, arr[i[k], j[k]])
    return out.reshape(g, g, arr.shape[2])


def graph_tier_membership(g_count: int) -> MembershipMatrix:
    """All groups into one graph-level node: the G x 1 ones matrix."""
    if g_count < 1:
        raise ShapeMismatchError(f"need at least one group, got {g_count}")
    return MembershipMatrix.unchecked(np.zeros(g_count, dtype=np.int64), 1)
