"""CTfile/SDF V2000 reading, writing, and graph featurization.

Fixed-column parsing, no tokenization guesswork: the counts line carries the
atom count in columns 1-3 and the bond count in columns 4-6; atom lines put
coordinates in three 10-wide fields, the element symbol in columns 32-34 and
the charge code in columns 37-39; bond lines are three 3-wide integers.
Records end with "$$$$" and may carry associated data items afterward.

Atom order in the file is atom identity. It is never changed: upstream
numbering (e.g. ALATIS) is what makes embeddings comparable across runs.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    InvalidBondError,
    MalformedCountsLineError,
    SdfError,
    TruncatedBlockError,
    V3000UnsupportedError,
)
from .graphs import Graph

# atom-block charge codes (code 4 is a radical marker, charge 0)
CHARGE_CODES = {0: 0, 1: 3, 2: 2, 3: 1, 4: 0, 5: -1, 6: -2, 7: -3}

BOND_ORDERS = (1, 2, 3, 4)  # 4 = aromatic

ELEMENT_VOCAB = ("C", "N", "O", "S", "P", "F", "Cl", "Br", "I", "H")
OTHER_BUCKET = len(ELEMENT_VOCAB)
NODE_FEATURE_DIM = len(ELEMENT_VOCAB) + 1 + 2  # one-hot incl. other + charge + degree
EDGE_FEATURE_DIM = len(BOND_ORDERS)

_DATA_HEADER = re.compile(r"^>.*<([^<>]+)>")
_ELEMENT_SYMBOL = re.compile(r"[A-Z][a-z]{0,2}")


@dataclass
class Atom:
    symbol: str
    charge: int
    coords: tuple[float, float, float]


@dataclass
class Bond:
    a1: int  # 1-based, as stored in the file
    a2: int
    order: int


@dataclass
class Molecule:
    atoms: list[Atom]
    bonds: list[Bond]
    cid: Optional[int] = None
    inchi: Optional[str] = None
    name: Optional[str] = None
    data: dict = field(default_factory=dict)

    @property
    def atom_count(self) -> int:
        return len(self.atoms)

    @property
    def bond_count(self) -> int:
        return len(self.bonds)


def _decode(data) -> str:
    if isinstance(data, bytes):
        return data.decode("utf-8", errors="replace")
    return data


def _int_field(line: str, start: int, stop: int, what: str, err) -> int:
    text = line[start:stop].strip()
    try:
        return int(text)
    except ValueError:
        raise err(f"{what}: cannot read integer from {text!r}") from None


def _parse_atom_line(line: str, idx: int) -> Atom:
    if len(line) < 34:
        raise TruncatedBlockError(f"atom line {idx + 1} too short: {line!r}")
    try:
        coords = (float(line[0:10]), float(line[10:20]), float(line[20:30]))
    except ValueError:
        raise TruncatedBlockError(
            f"atom line {idx + 1}: unreadable coordinates in {line!r}"
        ) from None
    symbol = line[31:34].strip()
    if not symbol:
        raise TruncatedBlockError(f"atom line {idx + 1}: empty element symbol")
    if not _ELEMENT_SYMBOL.fullmatch(symbol):
        raise SdfError(f"atom line {idx + 1}: {symbol!r} is not an element symbol")
    code = 0
    if line[36:39].strip():
        code = _int_field(line, 36, 39, f"atom line {idx + 1} charge code", SdfError)
    charge = CHARGE_CODES.get(code, 0)
    return Atom(symbol=symbol, charge=charge, coords=coords)


def _parse_bond_line(line: str, idx: int, n_atoms: int) -> Bond:
    if len(line) < 9:
        raise TruncatedBlockError(f"bond line {idx + 1} too short: {line!r}")
    a1 = _int_field(line, 0, 3, f"bond line {idx + 1}", InvalidBondError)
    a2 = _int_field(line, 3, 6, f"bond line {idx + 1}", InvalidBondError)
    order = _int_field(line, 6, 9, f"bond line {idx + 1}", InvalidBondError)
    if not (1 <= a1 <= n_atoms and 1 <= a2 <= n_atoms):
        raise InvalidBondError(
            f"bond line {idx + 1}: endpoints ({a1}, {a2}) outside [1, {n_atoms}]"
        )
    if a1 == a2:
        raise InvalidBondError(f"bond line {idx + 1}: self-bond on atom {a1}")
    if order not in BOND_ORDERS:
        raise InvalidBondError(f"bond line {idx + 1}: unsupported bond type {order}")
    return Bond(a1=a1, a2=a2, order=order)


def _parse_record(lines: list[str]) -> Molecule:
    if len(lines) < 4:
        raise TruncatedBlockError("record ends before the counts line")
    name = lines[0].strip() or None
    counts = lines[3]
    if "V3000" in counts:
        raise V3000UnsupportedError("V3000 connection tables are not supported")
    n_atoms = _int_field(counts, 0, 3, "counts line", MalformedCountsLineError)
    n_bonds = _int_field(counts, 3, 6, "counts line", MalformedCountsLineError)
    if n_atoms < 0 or n_bonds < 0:
        raise MalformedCountsLineError(f"negative counts in {counts!r}")

    atom_start = 4
    bond_start = atom_start + n_atoms
    block_end = bond_start + n_bonds
    if len(lines) < block_end:
        raise TruncatedBlockError(
            f"record promises {n_atoms} atoms and {n_bonds} bonds "
            f"but ends after {len(lines)} lines"
        )
    atoms = [_parse_atom_line(lines[atom_start + i], i) for i in range(n_atoms)]

    bonds: list[Bond] = []
    seen_pairs: set[frozenset[int]] = set()
    for i in range(n_bonds):
        bond = _parse_bond_line(lines[bond_start + i], i, n_atoms)
        pair = frozenset((bond.a1, bond.a2))
        if pair in seen_pairs:
            raise InvalidBondError(
                f"bond line {i + 1}: duplicate bond between {bond.a1} and {bond.a2}"
            )
        seen_pairs.add(pair)
        bonds.append(bond)

    # properties block: M CHG overrides every atom-block charge code
    chg_entries: list[tuple[int, int]] = []
    cursor = block_end
    while cursor < len(lines):
        line = lines[cursor]
        cursor += 1
        if line.startswith("M  END"):
            break
        if line.startswith("M  CHG"):
            parts = line.split()
            for a_txt, v_txt in zip(parts[3::2], parts[4::2]):
                try:
                    chg_entries.append((int(a_txt), int(v_txt)))
                except ValueError:
                    raise SdfError(f"M CHG: cannot read integers from {line!r}") from None
    if chg_entries:
        for atom in atoms:
            atom.charge = 0
        for a_idx, value in chg_entries:
            if not (1 <= a_idx <= n_atoms):
                raise TruncatedBlockError(f"M CHG references atom {a_idx}")
            atoms[a_idx - 1].charge = value

    data: dict[str, str] = {}
    key = None
    buf: list[str] = []
    for line in lines[cursor:]:
        header = _DATA_HEADER.match(line)
        if header:
            if key is not None:
                data[key] = "\n".join(buf).strip()
            key = header.group(1)
            buf = []
        elif key is not None:
            buf.append(line)
    if key is not None:
        data[key] = "\n".join(buf).strip()

    cid = None
    if "PUBCHEM_COMPOUND_CID" in data:
        try:
            cid = int(data["PUBCHEM_COMPOUND_CID"])
        except ValueError:
            cid = None
    inchi = data.get("PUBCHEM_IUPAC_INCHI") or None
    return Molecule(atoms=atoms, bonds=bonds, cid=cid, inchi=inchi,
                    name=name, data=data)


def parse_sdf(data) -> list[Molecule]:
    """Parse an SDF payload (bytes or str) into Molecules, one per record."""
    text = _decode(data)
    molecules: list[Molecule] = []
    record: list[str] = []
    for raw in text.splitlines():
        if raw.strip() == "$$$$":
            if any(line.strip() for line in record):
                molecules.append(_parse_record(record))
            record = []
        else:
            record.append(raw)
    if any(line.strip() for line in record):
        # a lone molfile without the $$$$ terminator is still one record
        molecules.append(_parse_record(record))
    return molecules


def write_sdf(molecules) -> str:
    """Serialize molecules back to V2000 SDF; parse(write(m)) preserves
    atom and bond content exactly."""
    chunks: list[str] = []
    for mol in molecules:
        lines = [mol.name or "", "  tiergae", ""]
        lines.append(f"{mol.atom_count:3d}{mol.bond_count:3d}  0  0  0  0  0  0  0  0999 V2000")
        for atom in mol.atoms:
            x, y, z = atom.coords
            lines.append(
                f"{x:10.4f}{y:10.4f}{z:10.4f} {atom.symbol:<3} 0  0  0  0  0  0  0  0  0  0  0  0"
            )
        for bond in mol.bonds:
            lines.append(f"{bond.a1:3d}{bond.a2:3d}{bond.order:3d}  0  0  0  0")
        charged = [(i + 1, a.charge) for i, a in enumerate(mol.atoms) if a.charge != 0]
        for start in range(0, len(charged), 8):
            batch = charged[start:start + 8]
            entries = "".join(f"{idx:4d}{chg:4d}" for idx, chg in batch)
            lines.append(f"M  CHG{len(batch):3d}{entries}")
        lines.append("M  END")
        items = dict(mol.data)
        if mol.cid is not None:
            items.setdefault("PUBCHEM_COMPOUND_CID", str(mol.cid))
        if mol.inchi:
            items.setdefault("PUBCHEM_IUPAC_INCHI", mol.inchi)
        for tag in sorted(items):
            lines.append(f"> <{tag}>")
            lines.append(items[tag])
            lines.append("")
        lines.append("$$$$")
        chunks.append("\n".join(lines))
    return "\n".join(chunks) + ("\n" if chunks else "")


def _element_index(symbol: str) -> int:
    try:
        return ELEMENT_VOCAB.index(symbol)
    except ValueError:
        warnings.warn(f"element {symbol!r} not in vocabulary, using the catch-all bucket")
        return OTHER_BUCKET


def featurize(mol: Molecule) -> Graph:
    """Molecule -> Graph with documented features.

    Node features (width 13): 11-way element one-hot (C N O S P F Cl Br I H
    other), formal charge, degree. Edge features (width 4): bond-order
    one-hot with aromatic as its own channel. Indices shift from the file's
    1-based convention to 0-based; every bond emits both directed entries.
    """
    n = mol.atom_count
    x = np.zeros((n, NODE_FEATURE_DIM), dtype=np.float64)
    degree = np.zeros(n, dtype=np.float64)
    for bond in mol.bonds:
        degree[bond.a1 - 1] += 1
        degree[bond.a2 - 1] += 1
    for i, atom in enumerate(mol.atoms):
        x[i, _element_index(atom.symbol)] = 1.0
        x[i, OTHER_BUCKET + 1] = float(atom.charge)
        x[i, OTHER_BUCKET + 2] = degree[i]

    u = 2 * mol.bond_count
    edge_index = np.zeros((2, u), dtype=np.int64)
    edge_attr = np.zeros((u, EDGE_FEATURE_DIM), dtype=np.float64)
    for e, bond in enumerate(mol.bonds):
        i, j = bond.a1 - 1, bond.a2 - 1
        channel = BOND_ORDERS.index(bond.order)
        edge_index[:, 2 * e] = (i, j)
        edge_index[:, 2 * e + 1] = (j, i)
        edge_attr[2 * e, channel] = 1.0
        edge_attr[2 * e + 1, channel] = 1.0

    mol_id = str(mol.cid) if mol.cid is not None else mol.name
    return Graph(x=x, edge_index=edge_index, edge_attr=edge_attr, id=mol_id)


def _hill_formula(counts: dict[str, int]) -> str:
    symbols: list[str] = []
    if counts.get("C"):
        symbols.append("C")
        if counts.get("H"):
            symbols.append("H")
        symbols.extend(s for s in sorted(counts) if s not in ("C", "H"))
    else:
        symbols.extend(sorted(counts))
    parts = []
    for s in symbols:
        k = counts[s]
        if k:
            parts.append(s if k == 1 else f"{s}{k}")
    return "".join(parts)


def formula_from_features(x: np.ndarray) -> str:
    """Recompute the Hill formula from one-hot node features alone; atoms in
    the catch-all bucket surface as X."""
    x = np.asarray(x)
    idx = np.argmax(x[:, : OTHER_BUCKET + 1], axis=1)
    counts = np.bincount(idx, minlength=OTHER_BUCKET + 1)
    symbols = ELEMENT_VOCAB + ("X",)
    return _hill_formula({symbols[i]: int(k) for i, k in enumerate(counts) if k})
