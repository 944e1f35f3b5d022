import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiergae.errors import (
    InvalidBondError,
    MalformedCountsLineError,
    SdfError,
    TruncatedBlockError,
    V3000UnsupportedError,
)
from tiergae.graphs import validate
from tiergae.sdf import (
    BOND_ORDERS,
    EDGE_FEATURE_DIM,
    ELEMENT_VOCAB,
    NODE_FEATURE_DIM,
    OTHER_BUCKET,
    featurize,
    formula_from_features,
    parse_sdf,
    write_sdf,
)

from oracles import formula_from_features_loop, formula_from_molecule


def atom_line(sym="C", code=0, x=0.0, y=0.0, z=0.0):
    return f"{x:10.4f}{y:10.4f}{z:10.4f} {sym:<3} 0{code:3d}  0  0  0  0  0  0  0  0  0  0"


def molfile(atoms, bonds, name="test", props=(), data=(), terminator=True):
    """Minimal V2000 record from (symbol, charge_code) and (a1, a2, order)."""
    lines = [name, "  made by hand", ""]
    lines.append(f"{len(atoms):3d}{len(bonds):3d}  0  0  0  0  0  0  0  0999 V2000")
    for sym, code in atoms:
        lines.append(atom_line(sym, code))
    for a1, a2, order in bonds:
        lines.append(f"{a1:3d}{a2:3d}{order:3d}  0  0  0  0")
    lines.extend(props)
    lines.append("M  END")
    lines.extend(data)
    if terminator:
        lines.append("$$$$")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- parsing


def test_vanillin_record_facts(vanillin_mol):
    m = vanillin_mol
    assert m.atom_count == 19
    assert m.bond_count == 19
    assert m.name == "1183"
    assert m.cid == 1183
    assert m.inchi == "InChI=1S/C8H8O3/c1-11-8-4-6(5-9)2-3-7(8)10/h2-5,10H,1H3"
    assert m.data["PUBCHEM_MOLECULAR_FORMULA"] == "C8H8O3"
    symbols = [a.symbol for a in m.atoms]
    assert symbols == ["C"] * 8 + ["O"] * 3 + ["H"] * 8
    assert all(a.charge == 0 for a in m.atoms)
    assert m.atoms[0].coords == (-3.62, -0.66, 0.0)


def test_vanillin_bond_list(vanillin_mol):
    pairs = {(b.a1, b.a2) for b in vanillin_mol.bonds}
    assert (1, 12) in pairs and (11, 8) in pairs and (9, 5) in pairs
    orders = {(b.a1, b.a2): b.order for b in vanillin_mol.bonds}
    assert orders[(9, 5)] == 2          # carbonyl
    assert orders[(2, 3)] == 4          # ring bond, aromatic channel
    assert orders[(11, 1)] == 1         # methoxy single bond


def test_empty_input_yields_no_molecules():
    assert parse_sdf("") == []
    assert parse_sdf(b"\n\n") == []


def test_two_concatenated_records(vanillin_sdf_bytes):
    mols = parse_sdf(vanillin_sdf_bytes + vanillin_sdf_bytes)
    assert len(mols) == 2
    assert mols[0].cid == mols[1].cid == 1183


def test_missing_terminator_still_one_record():
    text = molfile([("C", 0), ("O", 0)], [(1, 2, 1)], terminator=False)
    mols = parse_sdf(text)
    assert len(mols) == 1
    assert mols[0].atom_count == 2


def test_bytes_and_str_agree(vanillin_sdf_bytes):
    a = parse_sdf(vanillin_sdf_bytes)
    b = parse_sdf(vanillin_sdf_bytes.decode())
    assert len(a) == len(b) == 1
    assert a[0].atoms == b[0].atoms and a[0].bonds == b[0].bonds


def test_v3000_rejected():
    text = "\n".join(["x", "", "", "  0  0  0     0  0            999 V3000", "M  END", "$$$$"])
    with pytest.raises(V3000UnsupportedError):
        parse_sdf(text)


def test_malformed_counts_rejected():
    text = "\n".join(["x", "", "", " ab  0  0  0  0  0  0  0  0  0999 V2000", "M  END"])
    with pytest.raises(MalformedCountsLineError):
        parse_sdf(text)
    with pytest.raises(MalformedCountsLineError):
        parse_sdf(molfile([], []).replace("  0  0  0  0", " -1  0  0  0", 1))


def test_truncated_blocks_rejected():
    lines = molfile([("C", 0), ("C", 0)], [(1, 2, 1)]).splitlines()
    missing_atom = "\n".join(lines[:4] + lines[5:])  # drop one atom line
    with pytest.raises(TruncatedBlockError):
        parse_sdf(missing_atom)
    with pytest.raises(TruncatedBlockError):
        parse_sdf("title only")


def test_invalid_bonds_rejected():
    good = [("C", 0), ("C", 0)]
    with pytest.raises(InvalidBondError):
        parse_sdf(molfile(good, [(1, 3, 1)]))     # endpoint out of range
    with pytest.raises(InvalidBondError):
        parse_sdf(molfile(good, [(1, 1, 1)]))     # self-bond
    with pytest.raises(InvalidBondError):
        parse_sdf(molfile(good, [(1, 2, 5)]))     # unsupported order
    with pytest.raises(InvalidBondError):
        parse_sdf(molfile(good, [(1, 2, 1), (2, 1, 2)]))  # duplicate pair


def test_atom_block_charge_codes():
    mols = parse_sdf(molfile([("N", 3), ("O", 5), ("C", 4), ("S", 7)], []))
    charges = [a.charge for a in mols[0].atoms]
    # code 3 -> +1, 5 -> -1, 4 is a radical marker (charge 0), 7 -> -3
    assert charges == [1, -1, 0, -3]


def test_unknown_charge_code_ignored():
    mols = parse_sdf(molfile([("C", 9)], []))
    assert mols[0].atoms[0].charge == 0


def test_m_chg_resets_then_applies():
    text = molfile(
        [("N", 3), ("O", 5), ("C", 0)],
        [],
        props=["M  CHG  1   2  -2"],
    )
    charges = [a.charge for a in parse_sdf(text)[0].atoms]
    # any M CHG wipes every atom-block code before applying its entries
    assert charges == [0, -2, 0]


def test_m_chg_multiple_entries():
    text = molfile(
        [("N", 0), ("O", 0), ("C", 0)],
        [],
        props=["M  CHG  2   1   1   2  -1"],
    )
    assert [a.charge for a in parse_sdf(text)[0].atoms] == [1, -1, 0]


def test_m_chg_out_of_range_rejected():
    text = molfile([("C", 0)], [], props=["M  CHG  1   5   1"])
    with pytest.raises(TruncatedBlockError):
        parse_sdf(text)


def test_multiline_data_item():
    text = molfile(
        [("C", 0)], [],
        data=["> <NOTES>", "first line", "second line", ""],
    )
    assert parse_sdf(text)[0].data["NOTES"] == "first line\nsecond line"


# ---------------------------------------------------------------- writing


def test_write_parse_round_trip(vanillin_mol):
    again = parse_sdf(write_sdf([vanillin_mol]))[0]
    assert again.name == vanillin_mol.name
    assert again.cid == vanillin_mol.cid
    assert again.inchi == vanillin_mol.inchi
    assert again.atoms == vanillin_mol.atoms
    assert again.bonds == vanillin_mol.bonds
    assert again.data["PUBCHEM_MOLECULAR_FORMULA"] == "C8H8O3"


def test_write_round_trips_charges():
    mol = parse_sdf(molfile([("N", 3), ("O", 5)], [(1, 2, 1)]))[0]
    again = parse_sdf(write_sdf([mol]))[0]
    assert [a.charge for a in again.atoms] == [1, -1]


def test_write_multiple_records(vanillin_mol):
    text = write_sdf([vanillin_mol, vanillin_mol])
    assert text.count("$$$$") == 2
    assert len(parse_sdf(text)) == 2


def test_write_empty_list():
    assert write_sdf([]) == ""


@pytest.mark.parametrize("field", ["9OA", "C$M", "A.0", "cl", "CL", "C M", "*"])
def test_element_field_must_be_a_symbol(field):
    with pytest.raises(SdfError, match="atom line 1: .* is not an element symbol"):
        parse_sdf(molfile([(field, 0)], []))


def _edit_vanillin(text: str, row: int, start: int, stop: int, value: str) -> str:
    """Vanillin with columns [start, stop) of line `row` replaced by `value`;
    row None inserts `value` as a line before M  END."""
    lines = text.splitlines()
    if row is None:
        lines.insert(lines.index("M  END"), value)
    else:
        lines[row] = lines[row][:start] + value.rjust(stop - start) + lines[row][stop:]
    return "\n".join(lines) + "\n"


# int() reads both "1_0" and "١٠" (Arabic-Indic digits) as 10
NOT_ASCII_DIGITS = pytest.mark.parametrize("value", ["1_0", "١٠"],
                                           ids=["underscore", "arabic-indic"])


# line 3 is the counts line, 4 the first atom line, 23 the first bond line
@NOT_ASCII_DIGITS
@pytest.mark.parametrize("row, start, stop, error, what", [
    (3, 0, 3, MalformedCountsLineError, "counts line"),
    (3, 3, 6, MalformedCountsLineError, "counts line"),
    (4, 36, 39, SdfError, "atom line 1 charge code"),
    (23, 0, 3, InvalidBondError, "bond line 1"),
    (23, 3, 6, InvalidBondError, "bond line 1"),
    (23, 6, 9, InvalidBondError, "bond line 1"),
], ids=["counts-atoms", "counts-bonds", "charge-code", "bond-a1", "bond-a2", "bond-order"])
def test_integer_fields_take_only_ascii_digits(vanillin_sdf_bytes, value, row, start, stop,
                                               error, what):
    text = _edit_vanillin(vanillin_sdf_bytes.decode(), row, start, stop, value)
    with pytest.raises(error) as info:
        parse_sdf(text)
    assert str(info.value) == f"{what}: cannot read integer from {value!r}"


@NOT_ASCII_DIGITS
def test_m_chg_takes_only_ascii_digits(vanillin_sdf_bytes, value):
    line = f"M  CHG  1   1{value:>4}"
    with pytest.raises(SdfError) as info:
        parse_sdf(_edit_vanillin(vanillin_sdf_bytes.decode(), None, 0, 0, line))
    assert str(info.value) == f"M CHG: cannot read integers from {line!r}"


@pytest.mark.parametrize("value", ["1_183", "١١٨٣"], ids=["underscore", "arabic-indic"])
def test_cid_takes_only_ascii_digits(vanillin_sdf_bytes, value):
    text = vanillin_sdf_bytes.decode()
    row = text.splitlines().index("> <PUBCHEM_COMPOUND_CID>") + 1
    mol = parse_sdf(_edit_vanillin(text, row, 0, 4, value))[0]
    assert mol.data["PUBCHEM_COMPOUND_CID"] == value
    assert mol.cid is None  # as for any unreadable CID; the id falls back to the name
    assert featurize(mol).id == mol.name


@pytest.mark.parametrize("symbol", ["C", "Cl", "He", "Se", "Uuo"])
def test_element_symbols_parse(symbol):
    assert parse_sdf(molfile([(symbol, 0)], []))[0].atoms[0].symbol == symbol


# ---------------------------------------------------------------- features


def test_featurize_vanillin_shapes(vanillin_mol):
    g = featurize(vanillin_mol)
    assert g.x.shape == (19, NODE_FEATURE_DIM)
    assert g.edge_index.shape == (2, 38)
    assert g.edge_attr.shape == (38, EDGE_FEATURE_DIM)
    assert not hasattr(g, "pos")  # coordinates stay on the parsed atoms
    assert g.id == "1183"
    assert validate(g) == []


def test_featurize_vanillin_edges(vanillin_mol):
    g = featurize(vanillin_mol)
    cols = {tuple(g.edge_index[:, e]) for e in range(g.num_edges)}
    # file bond "1 12" emits both directed entries, 0-based
    assert (0, 11) in cols and (11, 0) in cols
    # aromatic ring bond 2-3 lands in the dedicated fourth channel
    for e in range(g.num_edges):
        if tuple(g.edge_index[:, e]) == (1, 2):
            assert g.edge_attr[e].tolist() == [0.0, 0.0, 0.0, 1.0]
            break
    else:
        pytest.fail("edge (1, 2) missing")


def test_featurize_vanillin_node_features(vanillin_mol):
    g = featurize(vanillin_mol)
    c, o, h = ELEMENT_VOCAB.index("C"), ELEMENT_VOCAB.index("O"), ELEMENT_VOCAB.index("H")
    assert g.x[:8, c].sum() == 8
    assert g.x[8:11, o].sum() == 3
    assert g.x[11:, h].sum() == 8
    assert (g.x[:, OTHER_BUCKET + 1] == 0).all()  # all neutral
    # methoxy carbon C1 binds three hydrogens and one oxygen
    assert g.x[0, OTHER_BUCKET + 2] == 4.0
    # every hydrogen has degree 1
    assert (g.x[11:, OTHER_BUCKET + 2] == 1.0).all()


def test_formula_both_routes(vanillin_mol):
    assert formula_from_molecule(vanillin_mol) == "C8H8O3"
    assert formula_from_features(featurize(vanillin_mol).x) == "C8H8O3"


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40))
def test_formula_from_features_matches_per_atom_argmax(seed, n):
    # one-hot rows over every bucket, rows with ties and all-zero rows (the
    # first maximum wins), and values in the charge and degree columns that
    # exceed the one-hot entries and must be ignored
    rng = np.random.default_rng(seed)
    x = np.zeros((n, NODE_FEATURE_DIM))
    x[np.arange(n), rng.integers(0, OTHER_BUCKET + 1, size=n)] = 1.0
    x[rng.random(n) < 0.2, rng.integers(0, OTHER_BUCKET + 1)] = 1.0
    x[rng.random(n) < 0.1, : OTHER_BUCKET + 1] = 0.0
    x[:, OTHER_BUCKET + 1:] = rng.integers(-3, 6, size=(n, 2))
    assert formula_from_features(x) == formula_from_features_loop(x)


def test_formula_hill_ordering():
    mols = parse_sdf(molfile([("O", 0), ("H", 0), ("H", 0)], [(1, 2, 1), (1, 3, 1)]))
    assert formula_from_molecule(mols[0]) == "H2O"  # no carbon: alphabetical
    mols = parse_sdf(molfile([("C", 0), ("Cl", 0), ("H", 0)], []))
    assert formula_from_molecule(mols[0]) == "CHCl"


def test_unknown_element_goes_to_catch_all():
    mols = parse_sdf(molfile([("He", 0)], []))
    with pytest.warns(UserWarning):
        g = featurize(mols[0])
    assert g.x[0, OTHER_BUCKET] == 1.0
    assert formula_from_features(g.x) == "X"
    assert formula_from_molecule(mols[0]) == "He"


def test_featurize_charge_column():
    mols = parse_sdf(molfile([("N", 3), ("O", 5)], [(1, 2, 1)]))
    g = featurize(mols[0])
    assert g.x[0, OTHER_BUCKET + 1] == 1.0
    assert g.x[1, OTHER_BUCKET + 1] == -1.0


def test_featurize_bond_channels_exclusive(vanillin_mol):
    g = featurize(vanillin_mol)
    assert (g.edge_attr.sum(axis=1) == 1.0).all()
    assert set(np.nonzero(g.edge_attr.sum(axis=0))[0]) <= set(range(len(BOND_ORDERS)))
