import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiergae.errors import IncompleteCoverError
from tiergae.fgroups import (
    FUNCTIONAL,
    SKELETON,
    GroupPartition,
    build_partition,
    mark_atoms,
    membership_from_partition,
    partition_molecule,
)
from tiergae.graphs import MembershipMatrix
from tiergae.sdf import Atom, Bond, Molecule

from oracles import dense_membership, functional_groups, membership_from_partition_dense
from test_scripts import ROOT, load_script


def mol_from(symbols, bonds):
    """bonds as 0-based (i, j, order) triples."""
    atoms = [Atom(symbol=s, charge=0, coords=(0.0, 0.0, 0.0)) for s in symbols]
    bl = [Bond(a1=i + 1, a2=j + 1, order=o) for i, j, o in bonds]
    return Molecule(atoms=atoms, bonds=bl)


# ---------------------------------------------------------------- marking


def test_methane_has_no_marked_atoms():
    m = mol_from(["C", "H", "H", "H", "H"], [(0, k, 1) for k in range(1, 5)])
    assert mark_atoms(m) == set()


def test_heteroatoms_always_marked():
    m = mol_from(["C", "O", "N", "H"], [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    assert mark_atoms(m) == {0, 1, 2}  # C single-bonded to two heteroatoms too


def test_carbonyl_carbon_marked():
    # formaldehyde: C=O marks both the oxygen and the carbon
    m = mol_from(["C", "O", "H", "H"], [(0, 1, 2), (0, 2, 1), (0, 3, 1)])
    assert mark_atoms(m) == {0, 1}


def test_alkene_and_alkyne_carbons_marked():
    m = mol_from(["C", "C", "H", "H"], [(0, 1, 2), (0, 2, 1), (1, 3, 1)])
    assert mark_atoms(m) == {0, 1}
    m = mol_from(["C", "C"], [(0, 1, 3)])
    assert mark_atoms(m) == {0, 1}


def test_aromatic_bonds_do_not_mark():
    # benzene: all ring bonds type 4, nothing marked
    ring = [(i, (i + 1) % 6, 4) for i in range(6)]
    m = mol_from(["C"] * 6, ring)
    assert mark_atoms(m) == set()


def test_single_hetero_neighbor_not_enough():
    # methanol carbon has one O neighbor: only the O is marked
    m = mol_from(["C", "O", "H"], [(0, 1, 1), (1, 2, 1)])
    assert mark_atoms(m) == {1}


def test_two_hetero_single_neighbors_mark_carbon():
    # acetal-like carbon with two single-bonded oxygens
    m = mol_from(["C", "O", "O"], [(0, 1, 1), (0, 2, 1)])
    assert mark_atoms(m) == {0, 1, 2}


def test_vanillin_marked_atoms(vanillin_mol):
    # the three oxygens plus the aldehyde carbon C5 (0-based 4)
    assert mark_atoms(vanillin_mol) == {4, 8, 9, 10}


# ---------------------------------------------------------------- partition


def test_methane_is_one_skeleton_group():
    m = mol_from(["C", "H", "H", "H", "H"], [(0, k, 1) for k in range(1, 5)])
    p = partition_molecule(m)
    assert p.groups == [(0, 1, 2, 3, 4)]
    assert p.kinds == [SKELETON]


def test_formaldehyde_is_one_functional_group():
    m = mol_from(["C", "O", "H", "H"], [(0, 1, 2), (0, 2, 1), (0, 3, 1)])
    p = partition_molecule(m)
    assert p.groups == [(0, 1, 2, 3)]
    assert p.kinds == [FUNCTIONAL]


def test_vanillin_partition(vanillin_mol):
    p = partition_molecule(vanillin_mol)
    assert p.group_count == 10
    fgs = functional_groups(p)
    # aldehyde C5+O9 with its H18, hydroxyl O10+H19, methoxy O11 alone
    assert (4, 8, 17) in fgs
    assert (9, 18) in fgs
    assert (10,) in fgs
    assert len(fgs) == 3
    # methyl carbon keeps its hydrogens in the skeleton
    assert (0, 11, 12, 13) in p.groups
    ring_singletons = [g for g in p.groups if len(g) <= 2 and g not in fgs]
    assert len(ring_singletons) == 6  # six ring carbons, some carrying an H


def test_vanillin_report_lists_every_group(vanillin_mol):
    p = partition_molecule(vanillin_mol)
    report = load_script("train_vanillin.py").group_report(vanillin_mol, p)
    assert len(report.splitlines()) == 10
    assert "O9" in report and "O10" in report and "O11" in report
    assert report.count(FUNCTIONAL) == 3


def test_isolated_hydrogen_keeps_own_group():
    m = mol_from(["H", "C"], [])
    p = partition_molecule(m)
    assert p.groups == [(0,), (1,)]
    assert p.kinds == [SKELETON, SKELETON]


def test_adjacent_marked_atoms_merge():
    # ester-like O-C(=O): one connected functional group
    m = mol_from(["O", "C", "O", "C"], [(0, 1, 1), (1, 2, 2), (1, 3, 1)])
    p = partition_molecule(m)
    assert (0, 1, 2) in p.groups
    assert p.kinds[p.groups.index((0, 1, 2))] == FUNCTIONAL
    assert (3,) in p.groups


def test_disconnected_marked_atoms_stay_separate():
    # two hydroxyls on opposite ends of an ethane backbone
    m = mol_from(
        ["O", "C", "C", "O"],
        [(0, 1, 1), (1, 2, 1), (2, 3, 1)],
    )
    p = partition_molecule(m)
    assert (0,) in p.groups and (3,) in p.groups
    assert functional_groups(p) == [(0,), (3,)]


# ---------------------------------------------------------------- membership


def test_membership_columns_ordered_by_smallest_member(vanillin_mol):
    p = partition_molecule(vanillin_mol)
    m = dense_membership(membership_from_partition(p, vanillin_mol.atom_count))
    assert m.shape == (19, 10)
    assert (m.sum(axis=1) == 1.0).all()
    firsts = [int(np.argmax(m[:, c] > 0)) for c in range(10)]
    assert firsts == sorted(firsts)


def test_membership_rejects_incomplete_cover():
    p = GroupPartition(groups=[(0, 1)], kinds=[SKELETON])
    with pytest.raises(IncompleteCoverError):
        membership_from_partition(p, 3)


def test_membership_refuses_a_huge_node_count_before_numbering_its_atoms():
    # an x with no features may declare any row count; anything sized by the
    # declared nodes would ask for 80 GB before the cover check refused it.
    # Under a 4 GiB address-space limit that ask is a MemoryError, not a
    # machine out of memory
    code = textwrap.dedent("""
        import resource
        from tiergae.errors import IncompleteCoverError
        from tiergae.fgroups import GroupPartition, membership_from_partition
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, resource.RLIM_INFINITY))
        try:
            membership_from_partition(GroupPartition(groups=[[0, 1]]), 10 ** 10)
        except IncompleteCoverError as exc:
            print(exc)
    """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "groups hold 2 atom indices, not each of [0, 10000000000) once\n"


@settings(deadline=None, max_examples=200)
@given(data=st.data(), n=st.integers(1, 30),
       defect=st.sampled_from(["dropped", "repeated", "out of range", "past int64",
                               "bool", "float", "empty group"]))
def test_broken_partition_raises_what_the_dense_oracle_raises(data, n, defect):
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    members: dict[int, list[int]] = {}
    for atom, label in enumerate(labels):
        members.setdefault(label, []).append(atom)
    groups = data.draw(st.permutations([data.draw(st.permutations(g))
                                        for g in members.values()]))
    g = data.draw(st.integers(0, len(groups) - 1))
    at = data.draw(st.integers(0, len(groups[g]) - 1))
    if defect == "dropped":
        del groups[g][at]
    elif defect == "repeated":
        groups[g].append(data.draw(st.integers(0, n - 1)))
    elif defect == "out of range":
        groups[g][at] = data.draw(st.sampled_from([-1, -n, n, n + 7]))
    elif defect == "past int64":
        groups[g][at] = data.draw(st.sampled_from([2 ** 63, 2 ** 70, -2 ** 63 - 1]))
    elif defect == "bool":
        groups[g][at] = data.draw(st.booleans())
    elif defect == "float":
        groups[g][at] = float(groups[g][at])
    else:
        groups.insert(g, [])
    p = GroupPartition(groups=groups)

    def outcome(fn):
        try:
            fn(p, n)
        except IncompleteCoverError as exc:
            return type(exc), str(exc)
        raise AssertionError(f"{fn.__name__} took {groups!r} as a cover of [0, {n})")

    assert outcome(membership_from_partition) == outcome(membership_from_partition_dense)


def test_membership_rejects_overlap():
    p = GroupPartition(groups=[(0, 1), (1, 2)], kinds=[SKELETON, SKELETON])
    with pytest.raises(IncompleteCoverError):
        membership_from_partition(p, 3)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 100_000))
def test_membership_from_a_partition_is_not_checked_twice(seed):
    # membership_from_partition checks the cover itself, so it builds the
    # matrix without MembershipMatrix's checks; the matrix is the one a
    # checked construction gives. A direct construction keeps every check
    # (test_graphs.py::test_malformed_membership_vector_rejected)
    m = random_molecule(np.random.default_rng(seed))
    p = partition_molecule(m)
    with pytest.MonkeyPatch.context() as mp:
        def checked_again(self):
            raise AssertionError("membership checked twice")

        mp.setattr(MembershipMatrix, "__post_init__", checked_again)
        built = membership_from_partition(p, m.atom_count)
    checked = MembershipMatrix(built.group, built.num_groups)
    assert type(built.num_groups) is int and built.num_groups == checked.num_groups
    assert built.group.dtype == np.int64 and built.group.tolist() == checked.group.tolist()


# ---------------------------------------------------------------- properties


def random_molecule(rng):
    n = int(rng.integers(1, 12))
    symbols = [str(rng.choice(["C", "O", "N", "H", "S"])) for _ in range(n)]
    bonds = []
    seen = set()
    for j in range(1, n):
        i = int(rng.integers(0, j))  # random spanning tree keeps it connected
        order = int(rng.choice([1, 1, 1, 2, 4]))
        if symbols[i] == "H" or symbols[j] == "H":
            order = 1
        bonds.append((i, j, order))
        seen.add((i, j))
    return mol_from(symbols, bonds)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 100_000))
def test_partition_is_always_a_partition(seed):
    m = random_molecule(np.random.default_rng(seed))
    p = partition_molecule(m)
    flat = sorted(a for g in p.groups for a in g)
    assert flat == list(range(m.atom_count))
    mm = dense_membership(membership_from_partition(p, m.atom_count))
    assert (mm.sum(axis=1) == 1.0).all()
    assert (mm.sum(axis=0) >= 1.0).all()


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 100_000))
def test_partition_invariant_to_bond_order_in_file(seed):
    # shuffling the bond list must not change the partition
    rng = np.random.default_rng(seed)
    m = random_molecule(rng)
    shuffled = Molecule(
        atoms=m.atoms,
        bonds=[m.bonds[k] for k in rng.permutation(len(m.bonds))],
    )
    assert partition_molecule(m).groups == partition_molecule(shuffled).groups


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 100_000))
def test_marked_atoms_end_up_in_functional_groups(seed):
    m = random_molecule(np.random.default_rng(seed))
    marked = mark_atoms(m)
    p = partition_molecule(m)
    for g, kind in zip(p.groups, p.kinds):
        if marked & set(g):
            assert kind == FUNCTIONAL
        else:
            assert kind == SKELETON
