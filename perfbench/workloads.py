"""Seeded, offline, synthetic molecules for the benchmark workloads.

Molecules are grown from a benzene core by attaching drug-like fragments
(chains, aromatic and saturated rings, carbonyls, N/O/S, halogens), drawn
from shuffled bags with a fixed mix, until the atom count with explicit
hydrogens reaches a target; then hydrogens fill every free valence. Each
workload fixes its multiset of target sizes, so a seed changes the shapes
and the order of the molecules but hardly the total work; that keeps runs
with different seeds comparable.
"""

from __future__ import annotations

import statistics
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tiergae.sdf import Atom, Bond, Molecule, write_sdf

VALENCE = {"C": 4, "N": 3, "O": 2, "S": 2, "F": 1, "Cl": 1}

# (fragment, copies in the bag); carbon is favoured so the ratio of hetero
# atoms stays drug-like
FRAGMENTS = (
    ("methyl", 5),
    ("benzene", 2),
    ("cyclohexane", 1),
    ("carbonyl", 2),
    ("amine", 2),
    ("hydroxyl", 2),
    ("thioether", 1),
    ("alkene", 1),
    ("halogen", 1),
)
RINGS = ("benzene", "cyclohexane")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: input sizes, model flavor and run lengths.

    ``ingest_reps`` and ``embed_reps`` repeat the short stages within one
    pass so each timed stage lasts long enough to be steady. Why each
    workload exists is recorded in BENCHMARK.json and README.md.
    """

    name: str
    model: str
    sizes: tuple[int, ...]  # target atom count (with H) per molecule
    epochs: int
    ingest_reps: int
    embed_reps: int


def _even_sizes(lo: int, hi: int, count: int) -> tuple[int, ...]:
    return tuple(int(round(v)) for v in np.linspace(lo, hi, count))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="drugs-tgae",
            model="tgae",
            sizes=_even_sizes(20, 55, 64),
            epochs=30,
            ingest_reps=4,
            embed_reps=2,
        ),
        Workload(
            name="library-tvgae",
            model="tvgae",
            sizes=_even_sizes(20, 55, 256),
            epochs=3,
            ingest_reps=3,
            embed_reps=3,
        ),
        Workload(
            name="macro-tgae",
            model="tgae",
            sizes=_even_sizes(150, 220, 8),
            epochs=5,
            ingest_reps=8,
            embed_reps=1,
        ),
    )
}


class _Skeleton:
    """Heavy-atom skeleton with per-atom free valence."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.symbols: list[str] = []
        self.free: list[int] = []
        self.bonds: list[tuple[int, int, int]] = []  # 0-based ends, order

    def total(self) -> int:
        """Atom count once every free valence is filled with hydrogen."""
        return len(self.symbols) + sum(self.free)

    def atom(self, symbol: str) -> int:
        self.symbols.append(symbol)
        self.free.append(VALENCE[symbol])
        return len(self.symbols) - 1

    def bond(self, i: int, j: int, order: int) -> None:
        self.bonds.append((i, j, order))
        used = 1 if order == 4 else order  # ring atoms are pre-charged below
        self.free[i] -= used
        self.free[j] -= used

    def ring(self, size: int, aromatic: bool) -> list[int]:
        ids = [self.atom("C") for _ in range(size)]
        for k in range(size):
            self.bond(ids[k], ids[(k + 1) % size], 4 if aromatic else 1)
        if aromatic:
            # two aromatic bonds use three valence units, leaving one
            for i in ids:
                self.free[i] -= 1
        return ids

    def anchor(self, need: int) -> int | None:
        """A random carbon or nitrogen with at least ``need`` free valence."""
        cands = [i for i, (s, f) in enumerate(zip(self.symbols, self.free))
                 if f >= need and s in ("C", "N")]
        if not cands:
            return None
        return cands[int(self.rng.integers(len(cands)))]

    def attach(self, fragment: str) -> None:
        """Bond ``fragment`` to a random anchor; no-op when none has room."""
        need = 2 if fragment == "alkene" else 1
        at = self.anchor(need)
        if at is None:
            return
        if fragment == "methyl":
            self.bond(at, self.atom("C"), 1)
        elif fragment == "benzene":
            ring = self.ring(6, aromatic=True)
            self.bond(at, ring[0], 1)
        elif fragment == "cyclohexane":
            ring = self.ring(6, aromatic=False)
            self.bond(at, ring[0], 1)
        elif fragment == "carbonyl":
            c = self.atom("C")
            self.bond(at, c, 1)
            self.bond(c, self.atom("O"), 2)
        elif fragment == "amine":
            self.bond(at, self.atom("N"), 1)
        elif fragment == "hydroxyl":
            self.bond(at, self.atom("O"), 1)
        elif fragment == "thioether":
            s = self.atom("S")
            self.bond(at, s, 1)
            self.bond(s, self.atom("C"), 1)
        elif fragment == "alkene":
            c = self.atom("C")
            self.bond(at, c, 2)
        elif fragment == "halogen":
            self.bond(at, self.atom("F" if self.rng.random() < 0.5 else "Cl"), 1)


def make_molecule(target: int, rng: np.random.Generator, name: str) -> Molecule:
    """One drug-like molecule of about ``target`` atoms with explicit H.

    Every molecule has a benzene ring, a carbonyl and an amine, so each one
    carries aromatic bonds, C=O and N.
    """
    b = _Skeleton(rng)
    b.ring(6, aromatic=True)
    b.attach("carbonyl")
    b.attach("amine")
    # fragments are drawn from shuffled bags, not one by one, so the mix of
    # fragments (and with it the group count) varies little between seeds
    bag: list[str] = []
    while b.total() < target:
        if not bag:
            bag = [f for f, copies in FRAGMENTS for _ in range(copies)]
            bag = [bag[i] for i in rng.permutation(len(bag))]
        fragment = bag.pop()
        # a ring adds ten atoms; near the target only small fragments fit
        if fragment in RINGS and target - b.total() < 10:
            continue
        b.attach(fragment)
    heavy = len(b.symbols)
    symbols = list(b.symbols)
    bonds = list(b.bonds)
    for i in range(heavy):
        for _ in range(b.free[i]):
            symbols.append("H")
            bonds.append((i, len(symbols) - 1, 1))
    coords = rng.uniform(-10.0, 10.0, size=(len(symbols), 3))
    atoms = [Atom(symbol=s, charge=0, coords=tuple(float(c) for c in xyz))
             for s, xyz in zip(symbols, coords)]
    return Molecule(
        atoms=atoms,
        bonds=[Bond(a1=i + 1, a2=j + 1, order=o) for i, j, o in bonds],
        name=name,
    )


def generate(workload: Workload, seed: int) -> list[Molecule]:
    """The workload's molecules for ``seed``; same seed, same molecules."""
    key = zlib.crc32(workload.name.encode("utf-8"))
    rng = np.random.default_rng([seed, key])
    sizes = rng.permutation(np.array(workload.sizes))
    return [make_molecule(int(t), rng, f"{workload.name}-s{seed}-m{i:04d}")
            for i, t in enumerate(sizes)]


def write_inputs(molecules: list[Molecule], out_dir: Path) -> None:
    """One SDF file per molecule, written through ``sdf.write_sdf``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, mol in enumerate(molecules):
        (out_dir / f"m{i:04d}.sdf").write_text(write_sdf([mol]), encoding="utf-8")


def input_shape(molecules: list[Molecule], groups: list[int]) -> dict:
    """Molecule count, atoms min/median/max and groups per molecule."""
    atoms = [m.atom_count for m in molecules]
    return {
        "molecules": len(molecules),
        "atoms_min": min(atoms),
        "atoms_median": statistics.median(atoms),
        "atoms_max": max(atoms),
        "groups_min": min(groups),
        "groups_median": statistics.median(groups),
        "groups_max": max(groups),
    }
