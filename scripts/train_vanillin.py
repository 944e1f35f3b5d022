"""End-to-end demo on the bundled vanillin record.

Parses the SDF fixture, builds the functional-group partition, trains a
three-tier autoencoder on the single molecule, and prints the tiered
embeddings. Pass --variational to train the variational flavor instead;
everything stays deterministic for a fixed seed either way.

A setting that `tiergae train` would refuse (--epochs 0, --lr nan), or an
--sdf file that cannot be read or holds no molecule, ends in a one-line
message and exit code 2, as `tiergae` does.

Usage:
    python3 scripts/train_vanillin.py
    python3 scripts/train_vanillin.py --variational --epochs 300
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from tiergae.errors import CliError, TiergaeError
from tiergae.fgroups import GroupPartition, membership_from_partition, partition_molecule
from tiergae.sdf import Molecule, featurize, parse_sdf
from tiergae.tgae import RunConfig, encode_tiered, make_tier_models, train_tiered
from tiergae.tvgae import (
    encode_tiered_variational,
    make_variational_tier_models,
    train_tiered_variational,
)

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
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--lr", type=float, default=0.01)
    ap.add_argument("--hidden", type=int, default=32)
    ap.add_argument("--d-z", type=int, default=16)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--variational", action="store_true",
                    help="train the variational model instead of the deterministic one")
    ap.add_argument("--kl-weight", type=float, default=1.0)
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    try:
        return run(args)
    except TiergaeError as exc:
        print(f"train_vanillin: {exc}", file=sys.stderr)
        return 2


def run(args: argparse.Namespace) -> int:
    cfg = RunConfig(model="tvgae" if args.variational else "tgae", seed=args.seed,
                    epochs=args.epochs, lr=args.lr, hidden=args.hidden, d_z=args.d_z,
                    kl_weight=args.kl_weight)
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

    if args.variational:
        make, train, encode = (make_variational_tier_models, train_tiered_variational,
                               encode_tiered_variational)
    else:
        make, train, encode = make_tier_models, train_tiered, encode_tiered
    t0 = time.perf_counter()
    models = make(graph.x.shape[1], cfg)
    hist = train(models, [(graph, m1)], cfg)
    rep, = encode([graph], [m1], models)  # one representation per graph
    elapsed = time.perf_counter() - t0

    kind = "variational" if args.variational else "deterministic"
    print(f"trained {kind} model, {args.epochs} epochs per tier, {elapsed:.2f}s")
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
