"""End-to-end demo on the bundled vanillin record.

Parses the SDF fixture, builds the functional-group partition, trains a
three-tier autoencoder on the single molecule, and prints the tiered
embeddings. The run settings are the flags of `tiergae train`, with its
defaults (seed 0); pass --model tvgae to train the variational flavor.
Everything stays deterministic for a fixed seed either way.

A setting that `tiergae train` would refuse (--epochs 0, --lr nan), or an
--sdf file that cannot be read or holds no molecule, ends in a one-line
message and exit code 2, as `tiergae` does.

Usage:
    python3 scripts/train_vanillin.py
    python3 scripts/train_vanillin.py --model tvgae --epochs 300 --k 3
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from tiergae.cli import CONFIG_TYPES, add_run_flags, flavor, resolve_config
from tiergae.errors import CliError, TiergaeError
from tiergae.fgroups import GroupPartition, membership_from_partition, partition_molecule
from tiergae.sdf import Molecule, featurize, parse_sdf

DEFAULT_SDF = Path(__file__).resolve().parents[1] / "tests" / "data" / "vanillin.sdf"


def group_report(mol: Molecule, p: GroupPartition) -> str:
    """Human-readable group dump: one line per group, atoms with elements."""
    lines = []
    for g, kind in zip(p.groups, p.kinds):
        atoms = " ".join(f"{mol.atoms[a].symbol}{a + 1}" for a in g)
        lines.append(f"{kind:10s} [{atoms}]")
    return "\n".join(lines)


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sdf", type=Path, default=DEFAULT_SDF, help="input SDF file")
    add_run_flags(ap)
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    try:
        return run(args)
    except TiergaeError as exc:
        print(f"train_vanillin: {exc}", file=sys.stderr)
        return 2


def run(args: argparse.Namespace) -> int:
    cfg = resolve_config(None, **{name: getattr(args, name) for name in CONFIG_TYPES})
    try:
        data = args.sdf.read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {args.sdf}: {exc.strerror or exc}") from None
    mols = parse_sdf(data)
    if not mols:
        raise CliError(f"no molecule in {args.sdf}")
    mol = mols[0]
    graph = featurize(mol)
    part = partition_molecule(mol)
    m1 = membership_from_partition(part, len(mol.atoms))

    print(f"molecule: {mol.name or '(unnamed)'}  "
          f"{len(mol.atoms)} atoms, {len(mol.bonds)} bonds")
    print(group_report(mol, part))
    print()

    make, train, encode = flavor(cfg.model)
    t0 = time.perf_counter()
    models = make(graph.x.shape[1], cfg)
    hist = train(models, [(graph, m1)], cfg)
    rep, = encode([graph], [m1], models)  # one representation per graph
    elapsed = time.perf_counter() - t0

    kind = "variational" if cfg.model == "tvgae" else "deterministic"
    print(f"trained {kind} model, {cfg.epochs} epochs per tier, {elapsed:.2f}s")
    for tier in (1, 2, 3):
        losses = hist[tier]
        print(f"  tier {tier}: loss {losses[0]:.4e} -> {losses[-1]:.4e}")
    print()

    for tier, bundle in zip((1, 2, 3), rep.tiers):
        n, d = bundle.z.shape
        print(f"tier {tier}: {n} nodes, embedding {n}x{d}")
    z3 = rep.tiers[2].z[0]
    print("molecule vector:", " ".join(f"{v:+.4f}" for v in z3))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
