"""Command-line pipeline: fetch, ingest, train, embed.

File formats owned here:
  corpus      one JSON document holding every featurized molecule plus its
              group partition and membership matrix
  checkpoint  JSON map of named parameter collections plus the dimensions
              needed to rebuild the models
  export      one JSON document per molecule with the full tiered bundle
  history     CSV (epoch, tier, loss) per training run

Arrays are shape-tagged: {"shape": [...], "data": [row-major floats]}. All
JSON is written with sorted keys so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import pubchem
from .autodiff import Param
from .errors import CliError, ConfigError, ShapeMismatchError, TiergaeError
from .fgroups import membership_from_partition, partition_molecule
from .graphs import Graph, MembershipMatrix, validate
from .sdf import featurize, formula_from_features, parse_sdf
from .tgae import TrainConfig, encode_tiered, make_tier_models, train_tiered
from .tvgae import (
    VariationalTrainConfig,
    encode_tiered_variational,
    make_variational_tier_models,
    train_tiered_variational,
)

CORPUS_FORMAT_VERSION = 1
CHECKPOINT_FORMAT_VERSION = 1
EXPORT_FORMAT_VERSION = 1

MODELS = ("tgae", "tvgae")


# ---------------------------------------------------------------------------
# array and file serialization

def array_to_json(arr: np.ndarray) -> dict:
    arr = np.asarray(arr)
    return {
        "shape": [int(s) for s in arr.shape],
        "data": np.asarray(arr, dtype=np.float64).ravel().tolist(),
    }


def json_to_array(obj: dict, dtype=np.float64) -> np.ndarray:
    """Inverse of `array_to_json`; a value that is not finite is a ConfigError."""
    try:
        arr = np.asarray(obj["data"], dtype=dtype)
    except OverflowError as exc:  # inf, or too large, for an integer dtype
        raise ConfigError(f"array data: {exc}") from None
    if not np.isfinite(arr).all():
        raise ConfigError("array data holds a non-finite value")
    return arr.reshape(obj["shape"])


def params_state(params: Iterable[Param]) -> dict:
    """Checkpoint map of parameter name -> `array_to_json` of its value."""
    state: dict[str, dict] = {}
    for p in params:
        if p.name in state:
            raise ValueError(f"duplicate param name {p.name!r}")
        state[p.name] = array_to_json(p.value)
    return state


def set_params_state(params: Iterable[Param], state: dict) -> None:
    """Load each parameter's value from a `params_state` map."""
    for p in params:
        if p.name not in state:
            raise KeyError(f"checkpoint is missing param {p.name!r}")
        try:
            arr = json_to_array(state[p.name])
        except ConfigError as exc:
            raise ConfigError(f"param {p.name!r}: {exc}") from None
        if arr.shape != p.value.shape:
            raise ShapeMismatchError(
                f"param {p.name!r}: checkpoint shape {arr.shape} "
                f"!= model shape {p.value.shape}"
            )
        p.value[...] = arr


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    path.write_text(text + "\n", encoding="utf-8")


def read_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc


_ARRAY_SCHEMA = {
    "type": "object",
    "properties": {
        "shape": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "data": {"type": "array", "items": {"type": "number"}},
    },
    "required": ["shape", "data"],
    "additionalProperties": False,
}


def _tier_schema(with_membership: bool) -> dict:
    props = {
        "x": _ARRAY_SCHEMA,
        "edge_index": _ARRAY_SCHEMA,
        "edge_attr": _ARRAY_SCHEMA,
        "z": _ARRAY_SCHEMA,
    }
    required = ["x", "edge_index", "edge_attr", "z"]
    if with_membership:
        props["membership"] = _ARRAY_SCHEMA
        required.append("membership")
    return {
        "type": "object",
        "properties": props,
        "required": required,
        "additionalProperties": False,
    }


EXPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "format_version": {"const": EXPORT_FORMAT_VERSION},
        "id": {"type": ["string", "null"]},
        "cid": {"type": ["integer", "null"]},
        "inchi": {"type": ["string", "null"]},
        "model": {"enum": list(MODELS)},
        "tiers": {
            "type": "object",
            "properties": {
                "1": _tier_schema(with_membership=True),
                "2": _tier_schema(with_membership=True),
                "3": _tier_schema(with_membership=False),
            },
            "required": ["1", "2", "3"],
            "additionalProperties": False,
        },
    },
    "required": ["format_version", "id", "cid", "inchi", "model", "tiers"],
    "additionalProperties": False,
}


# ---------------------------------------------------------------------------
# configuration

@dataclass
class RunConfig:
    model: str = "tgae"
    seed: int = 0
    epochs: int = 200
    lr: float = 0.01
    hidden: int = 32
    d_z: int = 16
    kl_weight: float = 1.0
    k: int = 2


_CONFIG_FIELDS = frozenset(f.name for f in fields(RunConfig))


def _coerce(field_name: str, raw: str):
    """Parse a config file value as the type of the field's default."""
    try:
        return type(getattr(RunConfig(), field_name))(raw)
    except ValueError:
        raise ConfigError(f"config field {field_name!r}: cannot parse {raw!r}") from None


def load_config_file(path) -> dict:
    """Flat `key = value` lines; # starts a comment; unknown keys rejected."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown config field {key!r}")
        values[key] = _coerce(key, value)
    return values


def validate_config(cfg: RunConfig) -> RunConfig:
    """The one rule set of run settings, from flags, config files and
    checkpoints alike: each value has the type of its default (so 2.5 and
    true are not ints), and then the per-field bounds."""
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if type(value) is not type(f.default):
            raise ConfigError(f"config field {f.name!r}: expected "
                              f"{type(f.default).__name__}, got {value!r}")
    if cfg.model not in MODELS:
        raise ConfigError(f"config field 'model': must be one of {MODELS}, got {cfg.model!r}")
    if cfg.seed < 0:
        raise ConfigError("config field 'seed': must be nonnegative")
    for name in ("epochs", "lr", "hidden", "d_z", "kl_weight", "k"):
        value = getattr(cfg, name)
        if not math.isfinite(value):
            raise ConfigError(f"config field {name!r}: must be finite, got {value}")
        if value <= 0:
            raise ConfigError(f"config field {name!r}: must be strictly positive")
    if not (2 <= cfg.k <= 6):
        raise ConfigError(f"config field 'k': must be in [2, 6], got {cfg.k}")
    return cfg


def resolve_config(config_path=None, **flag_overrides) -> RunConfig:
    """Precedence: explicit flags > config file > defaults."""
    cfg = RunConfig()
    if config_path is not None:
        cfg = replace(cfg, **load_config_file(config_path))
    overrides = {k: v for k, v in flag_overrides.items() if v is not None}
    cfg = replace(cfg, **overrides)
    return validate_config(cfg)


# ---------------------------------------------------------------------------
# corpus

def _molecule_entry(mol, graph: Graph, membership: MembershipMatrix,
                    partition) -> dict:
    return {
        "id": graph.id,
        "cid": mol.cid,
        "inchi": mol.inchi,
        "name": mol.name,
        "formula": formula_from_features(graph.x),
        "x": array_to_json(graph.x),
        "edge_index": array_to_json(graph.edge_index),
        "edge_attr": array_to_json(graph.edge_attr),
        "pos": None if graph.pos is None else array_to_json(graph.pos),
        "membership": array_to_json(membership.m),
        "groups": [list(g) for g in partition.groups],
        "group_kinds": list(partition.kinds),
    }


def _require_object(doc, what: str, keys: Sequence[str] = ()) -> None:
    """ConfigError unless `doc` is a JSON object holding every key in `keys`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what}: expected a JSON object, got {type(doc).__name__}")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ConfigError(f"{what}: missing key(s) {', '.join(map(repr, missing))}")


def load_corpus(path) -> list[dict]:
    doc = read_json(Path(path))
    _require_object(doc, f"corpus {path}")
    if doc.get("format_version") != CORPUS_FORMAT_VERSION:
        raise ConfigError(
            f"corpus {path}: format_version {doc.get('format_version')!r} "
            f"!= supported {CORPUS_FORMAT_VERSION}"
        )
    molecules = doc.get("molecules")
    if not isinstance(molecules, list) or not molecules:
        raise ConfigError(f"corpus {path}: no molecules")
    return molecules


def _molecule_name(entry: dict, index: int) -> str:
    if entry.get("id") is not None:
        return f"corpus molecule {entry['id']!r}"
    return f"corpus molecule #{index}"


def corpus_items(entries: Sequence[dict]) -> list[tuple[Graph, MembershipMatrix]]:
    """Graph and membership of each corpus entry; a malformed entry or a
    graph that breaks an invariant of `graphs.validate` is a ConfigError."""
    items = []
    for index, entry in enumerate(entries):
        _require_object(entry, f"corpus molecule #{index}",
                        ("x", "edge_index", "edge_attr", "membership"))
        what = _molecule_name(entry, index)
        try:
            graph = Graph(
                x=json_to_array(entry["x"]),
                edge_index=json_to_array(entry["edge_index"], dtype=np.int64),
                edge_attr=json_to_array(entry["edge_attr"]),
                pos=None if entry.get("pos") is None else json_to_array(entry["pos"]),
                id=entry.get("id"),
            )
            membership = MembershipMatrix(json_to_array(entry["membership"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{what}: {exc}") from None
        violations = validate(graph)
        if violations:
            raise ConfigError(f"{what}: {violations[0]}")
        items.append((graph, membership))
    return items


def _check_feature_width(entries: Sequence[dict], items, d_in: int, source: str) -> None:
    """ConfigError naming the first molecule whose node-feature width is not
    `d_in`, the width of `source`."""
    for index, (entry, (graph, _)) in enumerate(zip(entries, items)):
        if graph.x.shape[1] != d_in:
            raise ConfigError(f"{_molecule_name(entry, index)}: {graph.x.shape[1]} "
                              f"node features, {source} has {d_in}")


# ---------------------------------------------------------------------------
# commands

def cmd_fetch(cids: Sequence[int], out_dir, transport=None,
              base: Optional[str] = None, delay: float = 0.2) -> list[Path]:
    """Download one SDF per CID into out_dir. Returns written paths."""
    if transport is None:
        transport = pubchem.urllib_transport()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    failures = 0
    for i, cid in enumerate(cids):
        if i and delay > 0:
            time.sleep(delay)
        try:
            body = pubchem.fetch_pubchem_sdf(int(cid), transport, base=base)
        except TiergaeError as exc:
            failures += 1
            print(f"fetch: cid {cid}: {exc}", file=sys.stderr)
            continue
        path = out / f"{int(cid)}.sdf"
        path.write_bytes(body)
        written.append(path)
    if cids and not written:
        raise CliError(f"fetch: all {failures} requests failed")
    return written


def _iter_sdf_paths(paths: Sequence) -> list[Path]:
    found: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            found.extend(sorted(p.glob("*.sdf")))
        else:
            found.append(p)
    return found


def cmd_ingest(paths: Sequence, out_path) -> Path:
    """Parse, featurize and partition every molecule; write the corpus."""
    sdf_paths = _iter_sdf_paths(paths)
    if not sdf_paths:
        raise CliError("ingest: no input files")
    entries: list[dict] = []
    failures = 0
    for path in sdf_paths:
        try:
            molecules = parse_sdf(Path(path).read_bytes())
        except (TiergaeError, OSError) as exc:
            failures += 1
            print(f"ingest: {path}: {exc}", file=sys.stderr)
            continue
        for mol in molecules:
            if mol.atom_count == 0:
                print(f"ingest: {path}: skipping empty molecule", file=sys.stderr)
                continue
            graph = featurize(mol)
            partition = partition_molecule(mol)
            membership = membership_from_partition(partition, mol.atom_count)
            entries.append(_molecule_entry(mol, graph, membership, partition))
            print(
                f"ingest: {entries[-1]['id'] or path}: {mol.atom_count} atoms, "
                f"{membership.num_groups} groups",
                file=sys.stderr,
            )
    if not entries:
        raise CliError(f"ingest: no molecules ingested ({failures} file(s) failed)")
    out = Path(out_path)
    write_json(out, {"format_version": CORPUS_FORMAT_VERSION, "molecules": entries})
    return out


def _flavor(kind: str):
    """(make_models, train_tiered, encode_tiered, train config class) of a
    model kind. The functions are read from the module on each call, so
    wrappers installed on them (the perfbench tracer's) are the ones run."""
    if kind == "tgae":
        return make_tier_models, train_tiered, encode_tiered, TrainConfig
    return (make_variational_tier_models, train_tiered_variational,
            encode_tiered_variational, VariationalTrainConfig)


def cmd_train(cfg: RunConfig, corpus_path, out_path) -> tuple[Path, Path]:
    """Train bottom-up on the corpus; write checkpoint and history CSV."""
    entries = load_corpus(corpus_path)
    items = corpus_items(entries)
    d_in = items[0][0].x.shape[1]
    _check_feature_width(entries, items, d_in, "the first molecule")
    make_models, train_tiered_fn, _, train_config = _flavor(cfg.model)
    models = make_models(d_in, cfg.hidden, cfg.d_z, cfg.k, cfg.seed)
    # the train config takes the run config's values of the fields it shares
    config = train_config(**{f.name: getattr(cfg, f.name)
                             for f in fields(train_config) if hasattr(cfg, f.name)})
    histories = train_tiered_fn(models, items, config)
    checkpoint = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model": cfg.model,
        "dims": {"d_in": d_in, "hidden": cfg.hidden, "d_z": cfg.d_z, "k": cfg.k},
        "seed": cfg.seed,
        "params": params_state([p for m in models for p in m.params()]),
    }
    out = Path(out_path)
    write_json(out, checkpoint)
    history_path = out.parent / (out.stem + "_history.csv")
    with open(history_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "tier", "loss"])
        for tier in sorted(histories):
            for epoch, loss in enumerate(histories[tier]):
                writer.writerow([epoch, tier, repr(loss)])
    return out, history_path


def load_checkpoint(path, d_in: Optional[int] = None):
    """Rebuild models from a checkpoint; returns (models, model_kind)."""
    doc = read_json(Path(path))
    _require_object(doc, f"checkpoint {path}")
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ConfigError(
            f"checkpoint {path}: format_version {doc.get('format_version')!r} "
            f"!= supported {CHECKPOINT_FORMAT_VERSION}"
        )
    _require_object(doc, f"checkpoint {path}", ("dims", "model", "params"))
    dims = doc["dims"]
    _require_object(dims, f"checkpoint {path}: dims", ("d_in", "hidden", "d_z", "k"))
    try:
        cfg = validate_config(RunConfig(model=doc["model"], hidden=dims["hidden"],
                                        d_z=dims["d_z"], k=dims["k"]))
    except ConfigError as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from None
    if type(dims["d_in"]) is not int or dims["d_in"] <= 0:
        raise ConfigError(f"checkpoint {path}: d_in must be a positive int, "
                          f"got {dims['d_in']!r}")
    if d_in is not None and dims["d_in"] != d_in:
        raise ConfigError(
            f"checkpoint {path}: trained with d_in {dims['d_in']}, corpus has {d_in}"
        )
    # the weights drawn here are all overwritten, so the seed is not read
    models = _flavor(cfg.model)[0](dims["d_in"], cfg.hidden, cfg.d_z, cfg.k)
    try:
        set_params_state([p for m in models for p in m.params()], doc["params"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"checkpoint {path}: bad params: {exc}") from None
    return models, cfg.model


def _export_doc(entry: dict, rep, kind: str) -> dict:
    tiers = {}
    for tier_no, bundle in zip(("1", "2", "3"), rep.tiers):
        tier = {
            "x": array_to_json(bundle.x),
            "edge_index": array_to_json(bundle.edge_index),
            "edge_attr": array_to_json(bundle.edge_attr),
            "z": array_to_json(bundle.z),
        }
        if bundle.membership is not None:
            tier["membership"] = array_to_json(bundle.membership)
        tiers[tier_no] = tier
    return {
        "format_version": EXPORT_FORMAT_VERSION,
        "id": entry.get("id"),
        "cid": entry.get("cid"),
        "inchi": entry.get("inchi"),
        "model": kind,
        "tiers": tiers,
    }


def _export_filename(entry: dict, index: int) -> str:
    raw = entry.get("id") or f"molecule{index}"
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in str(raw))
    return f"{safe}.json"


def cmd_embed(checkpoint_path, corpus_path, out_dir) -> list[Path]:
    """Read-only inference over the corpus; one export JSON per molecule."""
    entries = load_corpus(corpus_path)
    items = corpus_items(entries)
    d_in = items[0][0].x.shape[1]
    models, kind = load_checkpoint(checkpoint_path, d_in=d_in)
    # every molecule is checked before the first export is written
    _check_feature_width(entries, items, d_in, f"checkpoint {checkpoint_path}")
    encode = _flavor(kind)[2]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for index, (entry, (graph, membership)) in enumerate(zip(entries, items)):
        rep = encode(graph, membership, models)
        path = out / _export_filename(entry, index)
        write_json(path, _export_doc(entry, rep, kind))
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiergae",
        description="Tiered graph autoencoders for molecular graphs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_fetch = subs.add_parser("fetch", help="download SDF records from PubChem")
    p_fetch.add_argument("cids", nargs="+", type=int)
    p_fetch.add_argument("--delay", type=float, default=0.2,
                         help="politeness pause between requests, seconds")
    p_fetch.add_argument("--out", default="sdf", help="directory for the SDF files")

    p_ingest = subs.add_parser("ingest", help="parse SDF files into a corpus")
    p_ingest.add_argument("paths", nargs="+")
    p_ingest.add_argument("--out", default="corpus.json", help="corpus file")

    p_train = subs.add_parser("train", help="train a tiered autoencoder")
    p_train.add_argument("corpus")
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--hidden", type=int)
    p_train.add_argument("--d-z", dest="d_z", type=int)
    p_train.add_argument("--kl-weight", dest="kl_weight", type=float)
    p_train.add_argument("--k", type=int)
    p_train.add_argument("--config", help="flat key = value config file")
    p_train.add_argument("--seed", type=int, help="rng seed (overrides config file)")
    p_train.add_argument("--model", choices=MODELS, help="autoencoder variant")
    p_train.add_argument("--out", default="checkpoint.json",
                         help="checkpoint file")

    p_embed = subs.add_parser("embed", help="export tiered representations")
    p_embed.add_argument("corpus")
    p_embed.add_argument("--checkpoint", required=True)
    p_embed.add_argument("--out", default="export", help="directory for the exports")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fetch":
            cmd_fetch(args.cids, args.out, delay=args.delay)
        elif args.command == "ingest":
            cmd_ingest(args.paths, args.out)
        elif args.command == "train":
            cfg = resolve_config(
                args.config, model=args.model, seed=args.seed, epochs=args.epochs,
                lr=args.lr, hidden=args.hidden, d_z=args.d_z,
                kl_weight=args.kl_weight, k=args.k,
            )
            checkpoint, history = cmd_train(cfg, args.corpus, args.out)
            print(f"wrote {checkpoint} and {history}", file=sys.stderr)
        elif args.command == "embed":
            written = cmd_embed(args.checkpoint, args.corpus, args.out)
            print(f"wrote {len(written)} export file(s)", file=sys.stderr)
    except TiergaeError as exc:
        print(f"tiergae {args.command}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
