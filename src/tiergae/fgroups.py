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


def _is_hydrogen(mol: Molecule, i: int) -> bool:
    return mol.atoms[i].symbol == "H"


def _is_heteroatom(mol: Molecule, i: int) -> bool:
    return mol.atoms[i].symbol not in ("C", "H")


def mark_atoms(mol: Molecule) -> set[int]:
    """Atoms that seed functional groups; see module docstring for rules."""
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
                marked.add(a)  # non-aromatic multiple C-C bond; type 4 excluded
            if bond.order == 1 and _is_heteroatom(mol, b):
                hetero_single_neighbors[a] = hetero_single_neighbors.get(a, 0) + 1
    for a, count in hetero_single_neighbors.items():
        if count >= 2:
            marked.add(a)
    return marked


def build_partition(mol: Molecule, marked: set[int]) -> GroupPartition:
    """Connected components of the marked subgraph become functional groups;
    hydrogens join their heavy neighbor; the rest are skeleton singletons."""
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

    # hydrogens follow their (unique) heavy neighbor; an H with no heavy
    # neighbor keeps its own component
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


def partition_molecule(mol: Molecule) -> GroupPartition:
    return build_partition(mol, mark_atoms(mol))


def membership_from_partition(p: GroupPartition, n: int) -> MembershipMatrix:
    """Membership of n nodes in the partition's groups, the groups numbered
    by smallest member index. The groups are non-empty lists of ints (no
    bools) that cover [0, n) once."""
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
    group = np.empty(n, dtype=np.int64)
    for col, gi in enumerate(order):
        group[list(p.groups[gi])] = col
    return MembershipMatrix(group, p.group_count)

