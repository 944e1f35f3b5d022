"""Ingest against its per-line references in `oracles`: the parsed
molecules, the featurized arrays, the groups and memberships, and the
error of every broken field."""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiergae.errors import TiergaeError
from tiergae.fgroups import build_partition, mark_atoms, membership_from_partition
from tiergae.sdf import ELEMENT_VOCAB, Atom, Bond, Molecule, featurize, parse_sdf

from oracles import (
    build_partition_loop,
    featurize_loop,
    mark_atoms_loop,
    membership_from_dense,
    membership_from_partition_dense,
    parse_sdf_per_line,
)

# hydrogen and carbon weighted up, so H-only fragments and carbon rules are
# common; He, Na, Se and Uuo fall in the catch-all bucket
SYMBOLS = ELEMENT_VOCAB + ("H", "H", "C", "C", "He", "Na", "Se", "Uuo")


def atom_line(sym: str, code: int, xyz=(0.0, 0.0, 0.0)) -> str:
    x, y, z = xyz
    return f"{x:10.4f}{y:10.4f}{z:10.4f} {sym:<3} 0{code:3d}  0  0  0  0  0  0  0  0  0  0"


def bond_line(a1: int, a2: int, order: int) -> str:
    return f"{a1:3d}{a2:3d}{order:3d}  0  0  0  0"


def record_lines(atoms, bonds, charges=(), data=()) -> list[str]:
    """V2000 lines from (symbol, code, xyz), 1-based (a1, a2, order) and
    M CHG (atom, charge) entries."""
    lines = ["mol", "  made by hand", ""]
    lines.append(f"{len(atoms):3d}{len(bonds):3d}  0  0  0  0  0  0  0  0999 V2000")
    lines.extend(atom_line(*atom) for atom in atoms)
    lines.extend(bond_line(*bond) for bond in bonds)
    if charges:
        entries = "".join(f"{a:4d}{q:4d}" for a, q in charges)
        lines.append(f"M  CHG{len(charges):3d}{entries}")
    lines.append("M  END")
    lines.extend(data)
    lines.append("$$$$")
    return lines


@st.composite
def records(draw) -> list[str]:
    n = draw(st.integers(0, 12))
    coords = st.tuples(*[st.floats(-999.0, 999.0, allow_nan=False)] * 3)
    atoms = [(draw(st.sampled_from(SYMBOLS)), draw(st.integers(0, 9)), draw(coords))
             for _ in range(n)]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    bonds = []
    if pairs:
        for i, j in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)):
            order = draw(st.sampled_from((1, 1, 2, 3, 4)))
            bonds.append((i, j, order) if draw(st.booleans()) else (j, i, order))
    charges = []
    if n and draw(st.booleans()):
        charges = draw(st.lists(st.tuples(st.integers(1, n), st.integers(-3, 3)),
                                min_size=1, max_size=4))
    data = draw(st.sampled_from([(), ("> <PUBCHEM_COMPOUND_CID>", "42", "")]))
    return record_lines(atoms, bonds, charges, data)


@st.composite
def sdf_texts(draw) -> str:
    lines = [line for record in draw(st.lists(records(), min_size=1, max_size=3))
             for line in record]
    if draw(st.booleans()):
        lines.pop()  # the last record without its $$$$ terminator
    return "\n".join(lines) + "\n"


def featurized(featurize_fn, mol: Molecule):
    """Arrays, id and warning messages of one featurization."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = featurize_fn(mol)
    arrays = [(a.dtype, a.shape, a.tobytes()) for a in (g.x, g.edge_index, g.edge_attr)]
    return arrays, g.id, [str(w.message) for w in caught]


def assert_groups_match_loop(mol: Molecule) -> None:
    marked = mark_atoms(mol)
    assert marked == mark_atoms_loop(mol)
    p = build_partition(mol, marked)
    want = build_partition_loop(mol, marked)
    assert (p.groups, p.kinds) == (want.groups, want.kinds)
    got = membership_from_partition(p, mol.atom_count)
    if mol.atom_count:  # the dense reference has no row to take a group from
        ref = membership_from_dense(membership_from_partition_dense(p, mol.atom_count))
        assert got.group.tobytes() == ref.group.tobytes()
    assert got.num_groups == len(want.groups)


@settings(deadline=None, max_examples=150)
@given(text=sdf_texts())
def test_ingest_matches_the_per_line_references(text):
    mols = parse_sdf(text)
    assert mols == parse_sdf_per_line(text)
    for mol in mols:
        assert featurized(featurize, mol) == featurized(featurize_loop, mol)
        assert_groups_match_loop(mol)


@settings(deadline=None, max_examples=100)
@given(symbols=st.lists(st.sampled_from(SYMBOLS), max_size=12), data=st.data())
def test_groups_match_loop_on_any_bond_list(symbols, data):
    # bonds drawn without the SDF grammar: any order on any pair, H-H bonds
    # and hydrogens with several neighbours included
    n = len(symbols)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    bonds = [Bond(a1=i, a2=j, order=data.draw(st.integers(1, 4))) for i, j in chosen]
    atoms = [Atom(symbol=s, charge=0, coords=(0.0, 0.0, 0.0)) for s in symbols]
    assert_groups_match_loop(Molecule(atoms=atoms, bonds=bonds))


@pytest.mark.parametrize("symbols, bonds", [
    ([], []),                                             # no atoms
    (["C", "O", "Na"], []),                               # bondless
    (["H"], []),                                          # a lone hydrogen
    (["H", "H", "O", "H"], [(1, 2, 1), (3, 4, 1)]),       # H2 beside OH
    (["H", "H", "H"], [(1, 2, 1), (2, 3, 1)]),            # H-only chain
    (["C", "He", "O"], [(1, 2, 2), (1, 3, 1)]),           # unknown element
], ids=["empty", "bondless", "lone-H", "H2-fragment", "H-chain", "unknown-element"])
def test_ingest_matches_the_references_on_edge_molecules(symbols, bonds):
    atoms = [(s, 3 if k % 2 else 5, (float(k), 0.0, 0.0)) for k, s in enumerate(symbols)]
    text = "\n".join(record_lines(atoms, bonds, charges=[(1, 2)] if atoms else ()))
    mols = parse_sdf(text)
    assert mols == parse_sdf_per_line(text)
    for mol in mols:
        assert featurized(featurize, mol) == featurized(featurize_loop, mol)
        assert_groups_match_loop(mol)


# ---------------------------------------------------------------- errors

# five atoms, four bonds; every field of every line is broken in turn
BASE = record_lines(
    [("C", 0, (1.0, 2.0, 3.0)), ("O", 5, (0.0, 0.0, 0.0)), ("N", 3, (0.5, -1.0, 2.0)),
     ("Cl", 0, (0.0, 1.0, 0.0)), ("H", 0, (-1.0, 0.0, 0.0))],
    [(1, 2, 1), (1, 3, 2), (3, 4, 1), (1, 5, 1)],
)
COUNTS, ATOMS, BONDS = 3, range(4, 9), range(9, 13)
INTS = ["1_0", "  ١", "٣  ", " ab", "   ", " -1", "  9", "2.0", "+ 1", "  0", "+4 "]
FIELDS = {
    # name: (block lines, start column, stop column, values)
    "counts-atoms": ([COUNTS], 0, 3, INTS + ["  6", "  4"]),
    "counts-bonds": ([COUNTS], 3, 6, INTS + ["  5", "  3"]),
    "atom-x": (ATOMS, 0, 10, ["     1_0.5", "١.٥".rjust(10), "       abc", " " * 10,
                              "      -inf", "  1.5e400 "]),
    "atom-y": (ATOMS, 10, 20, ["     1_0.5", "       1.x", " " * 10]),
    "atom-z": (ATOMS, 20, 30, ["     1e5x ", "       --1", " " * 10]),
    "atom-symbol": (ATOMS, 31, 34, ["9OA", "   ", "cl ", "١  ", "Xx ", "H  ", "Uuo"]),
    "atom-charge": (ATOMS, 36, 39, INTS + ["  7", " 12"]),
    "bond-a1": (BONDS, 0, 3, INTS + ["  6", "  4"]),
    "bond-a2": (BONDS, 3, 6, INTS + ["  6", "  1", "  2"]),
    "bond-order": (BONDS, 6, 9, INTS + ["  5", "  4", "  3"]),
}
CASES = [(field, where, value)
         for field, (block, _, _, values) in FIELDS.items()
         for where in (["only"] if len(block) == 1 else ["first", "middle", "last"])
         for value in values]


def outcome(parse, lines: list[str]):
    """The parsed molecules, or the class and message of the error."""
    try:
        return parse("\n".join(lines))
    except TiergaeError as exc:
        return type(exc), str(exc)


def line_at(block, where: str) -> int:
    return block[{"only": 0, "first": 0, "middle": len(block) // 2, "last": -1}[where]]


def broken(lines: list[str], k: int, start: int, stop: int, value: str) -> list[str]:
    lines = list(lines)
    lines[k] = lines[k][:start] + value + lines[k][stop:]
    return lines


@pytest.mark.parametrize("field, where, value", CASES)
def test_a_broken_field_gets_the_references_error(field, where, value):
    block, start, stop, _ = FIELDS[field]
    lines = broken(BASE, line_at(block, where), start, stop, value)
    got = outcome(parse_sdf, lines)
    assert got == outcome(parse_sdf_per_line, lines)
    if field.startswith("counts") or field in ("atom-charge", "bond-a1", "bond-a2",
                                               "bond-order"):
        if "_" in value or not value.isascii():
            assert isinstance(got, tuple), "an integer field read a non-ASCII-digit value"


@pytest.mark.parametrize("block, stop", [(ATOMS, 30), (BONDS, 6)], ids=["atom", "bond"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_short_line_gets_the_references_error(block, stop, where):
    lines = list(BASE)
    lines[line_at(block, where)] = lines[line_at(block, where)][:stop]
    assert outcome(parse_sdf, lines) == outcome(parse_sdf_per_line, lines)


@pytest.mark.parametrize("field", [f for f, (block, *_) in FIELDS.items() if len(block) > 1])
def test_the_first_broken_line_wins(field):
    # the field broken on the middle and the last line of its block, and for
    # an atom field on the first bond line too: the middle line is named
    block, start, stop, _ = FIELDS[field]
    width = stop - start
    lines = broken(BASE, line_at(block, "middle"), start, stop, "?".rjust(width))
    lines = broken(lines, line_at(block, "last"), start, stop, "x".rjust(width))
    if block is ATOMS:
        lines = broken(lines, BONDS[0], 0, 3, "abc")
    got = outcome(parse_sdf, lines)
    assert got == outcome(parse_sdf_per_line, lines)
    assert isinstance(got, tuple) and f"line {len(block) // 2 + 1}" in got[1]


def test_duplicate_bond_gets_the_references_error():
    lines = broken(BASE, BONDS[-1], 0, 9, "  3  1  1")  # 1-3 again, reversed
    got = outcome(parse_sdf, lines)
    assert got == outcome(parse_sdf_per_line, lines)
    assert got[1] == "bond line 4: duplicate bond between 3 and 1"
