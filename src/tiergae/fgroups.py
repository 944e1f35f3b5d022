"""Functional-group detection and tier-1 membership construction.

Ertl-style atom marking: heteroatoms, carbons multiple-bonded to
heteroatoms, carbons in non-aromatic carbon-carbon multiple bonds, and
carbons single-bonded to at least two heteroatoms. Marked atoms connected by
bonds merge into functional groups; every hydrogen follows its heavy
neighbor; whatever heavy atom remains becomes a singleton skeleton group.
Aromatic bonds (type 4) never trigger the multiple-bond rules, so plain
rings stay in the skeleton.

All indices here are 0-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import IncompleteCoverError
from .graphs import MembershipMatrix
from .sdf import Molecule

FUNCTIONAL = "functional"
SKELETON = "skeleton"


@dataclass
class GroupPartition:
    groups: list[tuple[int, ...]]   # sorted member indices per group
    # FUNCTIONAL or SKELETON, parallel to groups; empty when not known
    kinds: list[str] = field(default_factory=list)

    @property
    def group_count(self) -> int:
        return len(self.groups)


def mark_atoms(mol: Molecule) -> set[int]:
    """Atoms that seed functional groups; see module docstring for rules."""
    symbols = [atom.symbol for atom in mol.atoms]
    marked = {i for i, s in enumerate(symbols) if s != "C" and s != "H"}
    hetero_single_neighbors: dict[int, int] = {}
    for bond in mol.bonds:
        i, j = bond.a1 - 1, bond.a2 - 1
        si, sj = symbols[i], symbols[j]
        if bond.order == 1:
            if si == "C" and sj != "C" and sj != "H":
                hetero_single_neighbors[i] = hetero_single_neighbors.get(i, 0) + 1
            if sj == "C" and si != "C" and si != "H":
                hetero_single_neighbors[j] = hetero_single_neighbors.get(j, 0) + 1
        elif bond.order in (2, 3):
            # a carbon multiple-bonded to a heteroatom or to a carbon; the
            # aromatic type 4 is excluded
            if si == "C" and sj != "H":
                marked.add(i)
            if sj == "C" and si != "H":
                marked.add(j)
    marked.update(a for a, count in hetero_single_neighbors.items() if count >= 2)
    return marked


def build_partition(mol: Molecule, marked: set[int]) -> GroupPartition:
    """Connected components of the marked subgraph become functional groups;
    hydrogens join their heavy neighbor; the rest are skeleton singletons."""
    n = mol.atom_count
    is_hydrogen = [atom.symbol == "H" for atom in mol.atoms]
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # a bond joins two marked atoms, or a hydrogen to its (unique) heavy
    # neighbor; an H with no heavy neighbor keeps its own component
    for bond in mol.bonds:
        i, j = bond.a1 - 1, bond.a2 - 1
        if (i in marked and j in marked) or is_hydrogen[i] != is_hydrogen[j]:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

    # a union points the larger root at the smaller, so parent[i] <= i and
    # one ascending pass leaves each atom pointing at its component's
    # smallest member; the groups come out sorted and in that order
    members: dict[int, list[int]] = {}
    for i in range(n):
        parent[i] = parent[parent[i]]
        members.setdefault(parent[i], []).append(i)
    groups = [tuple(m) for m in members.values()]
    kinds = [SKELETON if marked.isdisjoint(g) else FUNCTIONAL for g in groups]
    return GroupPartition(groups=groups, kinds=kinds)


def partition_molecule(mol: Molecule) -> GroupPartition:
    return build_partition(mol, mark_atoms(mol))


def _int_lists(groups) -> bool:
    """Whether `groups` is a list of non-empty lists of ints (no bools)."""
    return (isinstance(groups, (list, tuple))
            and (set(map(type, groups)) <= {list, tuple}
                 or all(isinstance(g, (list, tuple)) for g in groups))
            and all(groups)
            and set(map(type, itertools.chain.from_iterable(groups))) <= {int})


def membership_from_partition(p: GroupPartition | Sequence[GroupPartition],
                              n: int | Sequence[int]):
    """Membership of n nodes in the partition's groups, the groups numbered
    by smallest member index. The groups are non-empty lists of ints (no
    bools) that cover [0, n) once.

    A list of partitions and a list of node counts give the list of their
    memberships, all built in one pass: the atoms of every partition are
    numbered past those of the partitions before it, so one bincount finds
    every repeat and one sort of the groups' smallest members numbers the
    groups of all of them. If one of them is not a cover, the error is the
    one that partition alone raises, for the first such, with its position
    in the list as the error's `index`."""
    if isinstance(p, GroupPartition):
        return membership_from_partition([p], [n])[0]
    groups = [q.groups for q in p]
    total = len(groups)
    n = np.array(n, dtype=np.int64)
    # the partitions before the first that is not lists of ints
    lists = next((k for k, g in enumerate(groups) if not _int_lists(g)), total)
    groups = groups[:lists]
    count = np.fromiter(map(len, groups), dtype=np.int64, count=lists)
    flat = list(itertools.chain.from_iterable(groups))
    sizes = np.fromiter(map(len, flat), dtype=np.int64, count=len(flat))
    flat = list(itertools.chain.from_iterable(flat))
    try:
        atoms = np.array(flat, dtype=np.int64)
    except OverflowError:  # an index past int64 is out of range as -1 is
        atoms = np.array([a if -2**63 <= a < 2**63 else -1 for a in flat], dtype=np.int64)
    del flat
    group_of = np.repeat(np.arange(lists), count)   # partition of each group
    atom_of = np.repeat(group_of, sizes)            # partition of each atom
    held = np.bincount(atom_of, minlength=lists)
    # only a partition that holds n atoms can be a cover; the ids count
    # the nodes of those alone, so they stay below the atoms given
    whole = held == n[:lists]
    span = np.where(whole, n[:lists], 0)
    offset = np.cumsum(span) - span
    inside = (atoms >= 0) & (atoms < n[atom_of]) & whole[atom_of]
    # the in-range atoms of each partition keep to its own block of ids
    ids = atoms[inside] + offset[atom_of[inside]]
    repeats = np.bincount(ids)[ids] > 1
    bad = (~whole | (np.bincount(atom_of[~inside], minlength=lists) > 0)
           | (np.bincount(atom_of[inside][repeats], minlength=lists) > 0))
    if bad.any() or lists < total:
        k = int(np.argmax(bad)) if bad.any() else lists
        exc = IncompleteCoverError(
            "groups must be a list of non-empty lists of int indices" if k == lists
            else f"groups hold {held[k]} atom indices, not each of [0, {n[k]}) once")
        exc.index = k
        raise exc
    # a cover of each [0, n) by non-empty groups: each index is in range and
    # each group has a node, so the matrix's own checks would all pass
    starts = np.cumsum(sizes) - sizes
    smallest = np.minimum.reduceat(atoms, starts) if sizes.size else sizes
    order = np.argsort(smallest + offset[group_of])
    first_group = np.cumsum(count) - count
    column = np.empty(sizes.size, dtype=np.int64)
    column[order] = np.arange(sizes.size) - first_group[group_of[order]]
    group = np.empty(ids.size, dtype=np.int64)
    group[ids] = column.repeat(sizes)
    return [MembershipMatrix.unchecked(group[o:o + k], int(g))
            for o, k, g in zip(offset.tolist(), n.tolist(), count.tolist())]
