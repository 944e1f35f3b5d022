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


def membership_from_partition(p: GroupPartition, n: int) -> MembershipMatrix:
    """Membership of n nodes in the partition's groups, the groups numbered
    by smallest member index. The groups are non-empty lists of ints (no
    bools) that cover [0, n) once."""
    groups = p.groups
    if not (isinstance(groups, (list, tuple))
            and all(isinstance(g, (list, tuple)) and g for g in groups)
            and set(map(type, itertools.chain.from_iterable(groups))) <= {int}):
        raise IncompleteCoverError("groups must be a list of non-empty lists of int indices")
    atoms = list(itertools.chain.from_iterable(groups))
    not_a_cover = f"groups hold {len(atoms)} atom indices, not each of [0, {n}) once"
    # the count first, so a huge n allocates nothing, then the range, so
    # that no index wraps around the list below
    if len(atoms) != n or (n and not 0 <= min(atoms) <= max(atoms) < n):
        raise IncompleteCoverError(not_a_cover)
    # n indices in [0, n): a repeated one leaves another without a group
    group = [-1] * n
    for column, g in enumerate(sorted(groups, key=min)):
        for a in g:
            group[a] = column
    if -1 in group:
        raise IncompleteCoverError(not_a_cover)
    # a cover of [0, n) by non-empty groups, so the matrix's own checks
    # would all pass
    return MembershipMatrix.unchecked(np.array(group, dtype=np.int64), len(groups))
