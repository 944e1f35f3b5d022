"""CTfile/SDF V2000 reading, writing, and graph featurization.

Fixed-column parsing, no tokenization guesswork: the counts line carries the
atom count in columns 1-3 and the bond count in columns 4-6; atom lines put
coordinates in three 10-wide fields, the element symbol in columns 32-34 and
the charge code in columns 37-39; bond lines are three 3-wide integers.
Integer fields take ASCII digits and a sign only. Records end with "$$$$" and
may carry associated data items afterward.

Atom order in the file is atom identity. It is never changed: upstream
numbering (e.g. ALATIS) is what makes embeddings comparable across runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Optional

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
_ELEMENT_INDEX = {symbol: k for k, symbol in enumerate(ELEMENT_VOCAB)}
_BOND_CHANNEL = {order: k for k, order in enumerate(BOND_ORDERS)}
# charge of each stripped charge-code field a writer emits; any other field
# is read through `_int_field`
_FIELD_CHARGE = {"": 0, **{str(code): q for code, q in CHARGE_CODES.items()}}


@dataclass(slots=True)
class Atom:
    symbol: str
    charge: int
    coords: tuple[float, float, float]


@dataclass(slots=True)
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


def _ascii_int(text: str) -> int:
    """int(text), but only of ASCII digits: int() alone also reads `1_0` as
    10 and accepts non-ASCII digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def _int_field(line: str, start: int, stop: int, what: str, err) -> int:
    text = line[start:stop].strip()
    try:
        return _ascii_int(text)
    except ValueError:
        raise err(f"{what}: cannot read integer from {text!r}") from None


def _read_header(lines: list[str]) -> tuple[Optional[str], int, int]:
    """Name, atom count and bond count of a record, checked against the
    number of lines the record holds."""
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
    if len(lines) < 4 + n_atoms + n_bonds:
        raise TruncatedBlockError(
            f"record promises {n_atoms} atoms and {n_bonds} bonds "
            f"but ends after {len(lines)} lines"
        )
    return name, n_atoms, n_bonds


def _read_atoms(lines: list[str], start: int, n_atoms: int) -> list[Atom]:
    """The atom block, checked line by line in column order."""
    atoms: list[Atom] = []
    for idx, line in enumerate(lines[start:start + n_atoms]):
        if len(line) < 34:
            raise TruncatedBlockError(f"atom line {idx + 1} too short: {line!r}")
        try:
            coords = (float(line[0:10]), float(line[10:20]), float(line[20:30]))
        except ValueError:
            raise TruncatedBlockError(
                f"atom line {idx + 1}: unreadable coordinates in {line!r}"
            ) from None
        symbol = line[31:34].strip()
        if symbol not in _ELEMENT_INDEX:
            if not symbol:
                raise TruncatedBlockError(f"atom line {idx + 1}: empty element symbol")
            if not _ELEMENT_SYMBOL.fullmatch(symbol):
                raise SdfError(f"atom line {idx + 1}: {symbol!r} is not an element symbol")
        charge = _FIELD_CHARGE.get(line[36:39].strip())
        if charge is None:
            code = _int_field(line, 36, 39, f"atom line {idx + 1} charge code", SdfError)
            charge = CHARGE_CODES.get(code, 0)
        atoms.append(Atom(symbol, charge, coords))
    return atoms


def _read_bonds(lines: list[str], start: int, n_bonds: int, n_atoms: int) -> list[Bond]:
    """The bond block, checked line by line: fields, endpoints, order, then
    a pair bonded twice."""
    bonds: list[Bond] = []
    seen_pairs: set[tuple[int, int]] = set()
    for idx, line in enumerate(lines[start:start + n_bonds]):
        if len(line) < 9:
            raise TruncatedBlockError(f"bond line {idx + 1} too short: {line!r}")
        try:
            a1, a2, order = int(line[0:3]), int(line[3:6]), int(line[6:9])
            plain = line.isascii() and "_" not in line
        except ValueError:
            plain = False
        if not plain:  # name the first field that is not an ASCII integer
            what = f"bond line {idx + 1}"
            a1 = _int_field(line, 0, 3, what, InvalidBondError)
            a2 = _int_field(line, 3, 6, what, InvalidBondError)
            order = _int_field(line, 6, 9, what, InvalidBondError)
        if not (1 <= a1 <= n_atoms and 1 <= a2 <= n_atoms):
            raise InvalidBondError(
                f"bond line {idx + 1}: endpoints ({a1}, {a2}) outside [1, {n_atoms}]"
            )
        if a1 == a2:
            raise InvalidBondError(f"bond line {idx + 1}: self-bond on atom {a1}")
        if order not in _BOND_CHANNEL:
            raise InvalidBondError(f"bond line {idx + 1}: unsupported bond type {order}")
        pair = (a1, a2) if a1 < a2 else (a2, a1)
        if pair in seen_pairs:
            raise InvalidBondError(
                f"bond line {idx + 1}: duplicate bond between {a1} and {a2}"
            )
        seen_pairs.add(pair)
        bonds.append(Bond(a1, a2, order))
    return bonds


def _finish_record(lines: list[str], cursor: int, name: Optional[str],
                   atoms: list[Atom], bonds: list[Bond]) -> Molecule:
    """The record's molecule from its blocks, the properties block that
    starts at `cursor` and runs to M  END, and the data items after it."""
    # properties block: M CHG overrides every atom-block charge code
    chg_entries: list[tuple[int, int]] = []
    while cursor < len(lines):
        line = lines[cursor]
        cursor += 1
        if line.startswith("M  END"):
            break
        if line.startswith("M  CHG"):
            parts = line.split()
            for a_txt, v_txt in zip(parts[3::2], parts[4::2]):
                try:
                    entry = _ascii_int(a_txt), _ascii_int(v_txt)
                except ValueError:
                    raise SdfError(f"M CHG: cannot read integers from {line!r}") from None
                if not -15 <= entry[1] <= 15:  # the V2000 range of M  CHG
                    raise SdfError(f"M CHG: charge outside -15..15 in {line!r}")
                chg_entries.append(entry)
    if chg_entries:
        for atom in atoms:
            atom.charge = 0
        for a_idx, value in chg_entries:
            if not (1 <= a_idx <= len(atoms)):
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
            cid = _ascii_int(data["PUBCHEM_COMPOUND_CID"])
        except ValueError:
            cid = None
    inchi = data.get("PUBCHEM_IUPAC_INCHI") or None
    return Molecule(atoms=atoms, bonds=bonds, cid=cid, inchi=inchi,
                    name=name, data=data)


def _parse_record(lines: list[str]) -> Molecule:
    name, n_atoms, n_bonds = _read_header(lines)
    atoms = _read_atoms(lines, 4, n_atoms)
    bonds = _read_bonds(lines, 4 + n_atoms, n_bonds, n_atoms)
    return _finish_record(lines, 4 + n_atoms + n_bonds, name, atoms, bonds)


def _records(data) -> Iterator[list[str]]:
    """The lines of each record in an SDF payload (bytes or str)."""
    lines = _decode(data).splitlines()
    ends = [k for k, raw in enumerate(lines) if "$$$$" in raw and raw.strip() == "$$$$"]
    start = 0
    # the lines after the last $$$$ are a record too: a lone molfile
    # without the terminator is still one
    for end in ends + [len(lines)]:
        record = lines[start:end]
        if any(line.strip() for line in record):
            yield record
        start = end + 1


def parse_sdf(data) -> list[Molecule]:
    """Parse an SDF payload (bytes or str) into Molecules, one per record."""
    return [_parse_record(lines) for lines in _records(data)]


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


def featurize(mol: Molecule) -> Graph:
    """Molecule -> Graph with documented features.

    Node features (width 13): 11-way element one-hot (C N O S P F Cl Br I H
    other), formal charge, degree. Edge features (width 4): bond-order
    one-hot with aromatic as its own channel. Indices shift from the file's
    1-based convention to 0-based; every bond emits both directed entries.
    An element outside ELEMENT_VOCAB takes the `other` column silently;
    `tiergae ingest` names it on stderr.
    """
    n = mol.atom_count
    element = [_ELEMENT_INDEX.get(atom.symbol, OTHER_BUCKET) for atom in mol.atoms]
    bonds = np.array([(b.a1 - 1, b.a2 - 1, _BOND_CHANNEL[b.order]) for b in mol.bonds],
                     dtype=np.int64).reshape(-1, 3)
    ends = bonds[:, :2]  # (E, 2), 0-based

    x = np.zeros((n, NODE_FEATURE_DIM), dtype=np.float64)
    x[np.arange(n), element] = 1.0
    x[:, OTHER_BUCKET + 1] = [atom.charge for atom in mol.atoms]
    x[:, OTHER_BUCKET + 2] = np.bincount(ends.ravel(), minlength=n)

    # bond e gives directed edges 2e = (i, j) and 2e + 1 = (j, i)
    edge_index = np.stack([ends.ravel(), ends[:, ::-1].ravel()])
    edge_attr = np.zeros((2 * len(bonds), EDGE_FEATURE_DIM), dtype=np.float64)
    edge_attr[np.arange(2 * len(bonds)), bonds[:, 2].repeat(2)] = 1.0

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
