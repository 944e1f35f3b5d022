"""Command-line pipeline: fetch, ingest, train, embed.

File formats owned here:
  corpus      one JSON document holding every featurized molecule (features
              and bonds, no atom coordinates) plus its group partition, from
              which each membership is rebuilt
  checkpoint  JSON map of named parameter collections plus the dimensions
              needed to rebuild the models
  export      one JSON document per molecule with the full tiered bundle;
              a tier's membership is the group index of each of its nodes
  history     CSV (epoch, tier, loss) per training run

Arrays are shape-tagged: {"shape": [...], "data": [row-major values]}. An
integer array (edge_index, membership) holds JSON ints and is read back
exactly, any other array holds floats. All JSON is written with sorted keys
so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import functools
import io
import itertools
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import graphs, pubchem
from .autodiff import Param
from .errors import CliError, ConfigError, DomainError, ShapeMismatchError, TiergaeError
from .fgroups import GroupPartition, membership_from_partition, partition_molecule
from .graphs import Graph, MembershipMatrix, first_defect
from .sdf import ELEMENT_VOCAB, featurize, formula_from_features, parse_sdf
from .tgae import MAX_WIDTH, MODELS, RunConfig, encode_tiered, make_tier_models, train_tiered
from .tvgae import (
    encode_tiered_variational,
    make_variational_tier_models,
    train_tiered_variational,
)
from .workers import Report, run_strides, worker_count

CORPUS_FORMAT_VERSION = 3
CHECKPOINT_FORMAT_VERSION = 1
EXPORT_FORMAT_VERSION = 3

# SDF bytes that each ingest process must have to pay for its fork. On
# 2 vCPUs, two processes against one on the first files of the perfbench
# library input, in a process that had run a library pass (medians of 15
# alternating in-process repeats, two sets), ran 0.82-0.83x at 120 KiB,
# 1.00-1.01x at 230 KiB, 1.10-1.32x at 348 KiB and 1.40-1.43x at 459 KiB:
# the break-even lies at 115-175 KiB a process
INGEST_BYTES_PER_PROCESS = 160 * 1024

# longest `fetch --delay`, seconds; `time.sleep` refuses about 9.2e9 s and more
MAX_FETCH_DELAY = 86400.0


# ---------------------------------------------------------------------------
# array and file serialization

def array_to_json(arr: np.ndarray) -> dict:
    """Shape-tagged JSON form of `arr`: an integer array's values as JSON
    ints, any other array's as floats."""
    arr = np.asarray(arr)
    if arr.dtype.kind != "i":
        arr = arr.astype(np.float64, copy=False)
    return {"shape": [int(s) for s in arr.shape], "data": arr.ravel().tolist()}


def json_to_array(obj: dict, dtype=np.float64) -> np.ndarray:
    """Inverse of `array_to_json`. An integer array is read exactly: a value
    that is not a JSON int in the dtype's range (1.0, true, 2**63) is a
    ConfigError, as is a value of a float array that is not a finite JSON
    number (true, "1.5", NaN). So is a shape that is not a list of
    non-negative ints, as `_ARRAY_SCHEMA` has it (-1, 3, [true, 3])."""
    shape = obj["shape"]
    if not isinstance(shape, list):
        raise ConfigError(f"array shape {shape!r} is not a list")
    for size in shape:
        if type(size) is not int or size < 0:
            raise ConfigError(f"array shape holds {size!r}, not a non-negative int")
    data = obj["data"]
    if np.dtype(dtype).kind == "i":
        info = np.iinfo(dtype)
        try:
            if set(map(type, data)) <= {int}:
                return np.array(data, dtype=dtype).reshape(shape)
        except OverflowError:  # an int past the dtype's range
            pass
        bad = next(v for v in data if type(v) is not int or not info.min <= v <= info.max)
        raise ConfigError(f"array data holds {bad!r}, not an {info.dtype}")
    if not set(map(type, data)) <= {int, float}:  # true, "1.5" or a list
        bad = next(v for v in data if type(v) not in (int, float))
        raise ConfigError(f"array data holds {bad!r}, not a number")
    try:
        arr = np.asarray(data, dtype=np.float64)
    except OverflowError as exc:  # an int too large for a float
        raise ConfigError(f"array data: {exc}") from None
    if not np.isfinite(arr).all():
        raise ConfigError("array data holds a non-finite value")
    return arr.reshape(shape)


def params_state(params: Iterable[Param]) -> dict:
    """Checkpoint map of parameter name -> `array_to_json` of its value."""
    state: dict[str, dict] = {}
    for p in params:
        if p.name in state:
            raise ConfigError(f"duplicate param name {p.name!r}")
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


@contextlib.contextmanager
def _writing(path):
    """Turn an OSError raised while writing `path` into a CliError naming it."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None


def to_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


_TEMP_IDS = itertools.count()  # with the pid, names a temporary no other write shares


def write_texts(files: Sequence[tuple[Path, str | bytes]]) -> None:
    """The one writer of files. Each (path, content) pair's content, text
    as UTF-8 and bytes unchanged, goes first to a temporary sibling of its
    path, `.tiergae-<pid>-<n>.tmp` whatever the path's length, in order,
    and the siblings replace the paths, in reverse order, only once every
    content is written. A path that is a directory is refused before any
    file moves. A move can still fail after the ones before it (a
    permission error, a directory made in the meantime), so a caller lists
    first the file that must not be new without the others: it moves last."""
    staged: list[Path] = []
    try:
        for path, content in files:
            staged.append(path.parent / f".tiergae-{os.getpid()}-{next(_TEMP_IDS)}.tmp")
            data = content.encode("utf-8") if isinstance(content, str) else content
            with _writing(path):
                path.parent.mkdir(parents=True, exist_ok=True)
                staged[-1].write_bytes(data)
        for path, _ in files:
            if path.is_dir():
                raise CliError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
        for (path, _), tmp in reversed(list(zip(files, staged))):
            with _writing(path):
                os.replace(tmp, path)
            staged.pop()  # moved: nothing left to remove
    finally:
        for tmp in staged:
            with contextlib.suppress(OSError):
                tmp.unlink()


def write_json(path: Path, obj) -> None:
    write_texts([(path, to_json(obj) + "\n")])


def read_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
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


# JSON Schema (draft 2020-12) counts a float with a zero fraction as an
# integer, so these items pass 1.0 as well as 1; json_to_array(..., np.int64),
# which an export's reader applies, is the exact check and refuses 1.0
_INDEX_DATA = {"type": "array", "items": {"type": "integer", "minimum": 0}}
_EDGE_INDEX_SCHEMA = {**_ARRAY_SCHEMA,
                      "properties": {**_ARRAY_SCHEMA["properties"], "data": _INDEX_DATA}}

_MEMBERSHIP_SCHEMA = {
    **_ARRAY_SCHEMA,
    "properties": {
        "shape": {**_ARRAY_SCHEMA["properties"]["shape"], "minItems": 1, "maxItems": 1},
        "data": _INDEX_DATA,
    },
}


def _tier_schema(with_membership: bool) -> dict:
    keys = ["x", "edge_index", "edge_attr", "z"]
    properties = {key: _ARRAY_SCHEMA for key in keys}
    properties["edge_index"] = _EDGE_INDEX_SCHEMA
    if with_membership:
        keys.append("membership")
        properties["membership"] = _MEMBERSHIP_SCHEMA
    return {"type": "object", "properties": properties,
            "required": keys, "additionalProperties": False}


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

# each RunConfig field's name and the type of its default, which a config
# file value and a train flag are parsed as
CONFIG_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


def add_run_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per RunConfig field (`--d-z` for d_z), parsed as the type
    of its default. A flag not given parses as None, which `resolve_config`
    leaves to the config file or the default."""
    for name, kind in CONFIG_TYPES.items():
        parser.add_argument("--" + name.replace("_", "-"), type=kind,
                            choices=MODELS if name == "model" else None,
                            help=f"default {getattr(RunConfig, name)}")


def _coerce(field_name: str, raw: str):
    """Parse a config file value as the type of the field's default."""
    try:
        return CONFIG_TYPES[field_name](raw)
    except ValueError:
        raise ConfigError(f"config field {field_name!r}: cannot parse {raw!r}") from None


def load_config_file(path) -> dict:
    """Flat `key = value` lines; # starts a comment; unknown keys rejected."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config field {key!r}")
        values[key] = _coerce(key, value)
    return values


def resolve_config(config_path=None, **flag_overrides) -> RunConfig:
    """Precedence: explicit flags > config file > defaults. The settings are
    merged first and built into one RunConfig, so a config file value that
    a flag overrides is never checked. A flag of None is not given."""
    values = {} if config_path is None else load_config_file(config_path)
    values.update((k, v) for k, v in flag_overrides.items() if v is not None)
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# corpus

def _molecule_entry(mol, graph: Graph, partition: GroupPartition) -> dict:
    return {
        "id": graph.id,
        "cid": mol.cid,
        "inchi": mol.inchi,
        "name": mol.name,
        "formula": formula_from_features(graph.x),
        "x": array_to_json(graph.x),
        "edge_index": array_to_json(graph.edge_index),
        "edge_attr": array_to_json(graph.edge_attr),
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


def _read_document(path, what: str, version: int) -> dict:
    """The JSON object in `path`; a ConfigError unless its format_version is `version`."""
    doc = read_json(Path(path))
    _require_object(doc, f"{what} {path}")
    if doc.get("format_version") != version:
        raise ConfigError(f"{what} {path}: format_version "
                          f"{doc.get('format_version')!r} != supported {version}")
    return doc


def load_corpus(path) -> list[dict]:
    doc = _read_document(path, "corpus", CORPUS_FORMAT_VERSION)
    molecules = doc.get("molecules")
    if not isinstance(molecules, list) or not molecules:
        raise ConfigError(f"corpus {path}: no molecules")
    return molecules


def _molecule_name(entry: dict, index: int) -> str:
    if entry.get("id") is not None:
        return f"corpus molecule {entry['id']!r}"
    return f"corpus molecule #{index}"


def corpus_items(entries: Sequence[dict]) -> list[tuple[Graph, MembershipMatrix]]:
    """Graph and membership of each corpus entry, the membership rebuilt from
    the entry's `groups`. A malformed entry, or a graph that
    `graphs.first_defect` refuses (an invariant of `graphs.validate`, among
    them at most `graphs.MAX_ATOMS` atoms; no atoms or node features; edge
    features whose pooled sums could overflow; another node-feature width
    than the first molecule's), is a ConfigError naming the molecule. The
    library entry points run the same graph check again
    (`tgae.check_items`), which costs a few milliseconds a corpus.

    Each molecule is decoded and its membership built in turn, up to the
    first malformed one; then the graphs before it are checked in one
    pass. A graph that this check refuses comes before the malformed
    molecule, so the error raised is the one of the first molecule that
    fails, in molecule order."""
    items, error = [], None
    for index, entry in enumerate(entries):
        try:
            _require_object(entry, f"corpus molecule #{index}",
                            ("x", "edge_index", "edge_attr", "groups"))
        except ConfigError as exc:
            error = exc
            break
        try:
            graph = Graph(
                x=json_to_array(entry["x"]),
                edge_index=json_to_array(entry["edge_index"], dtype=np.int64),
                edge_attr=json_to_array(entry["edge_attr"]),
                id=entry.get("id"),
            )
            # a 0-d x has no rows; the graph check refuses its shape
            membership = membership_from_partition(GroupPartition(entry["groups"]),
                                                   graph.x.shape[0] if graph.x.ndim else 0)
        except (KeyError, TypeError, ValueError) as exc:
            error = ConfigError(f"{_molecule_name(entry, index)}: {exc}")
            break
        items.append((graph, membership))
    found = first_defect([graph for graph, _ in items], [m for _, m in items])
    if found is not None:
        index, problem = found
        raise ConfigError(f"{_molecule_name(entries[index], index)}: {problem}")
    if error is not None:
        raise error
    return items


# ---------------------------------------------------------------------------
# commands

def cmd_fetch(cids: Sequence[int], out_dir, transport=None, delay: float = 0.2) -> list[Path]:
    """Download one SDF per CID into out_dir. Returns written paths."""
    if not 0.0 <= delay <= MAX_FETCH_DELAY:  # NaN fails both comparisons
        raise CliError(f"delay must be between 0 and {MAX_FETCH_DELAY:g} seconds, "
                       f"got {delay!r}")
    if transport is None:
        transport = pubchem.urllib_transport()
    out = Path(out_dir)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    failures = 0
    for i, cid in enumerate(cids):
        if i and delay > 0:
            time.sleep(delay)
        try:
            body = pubchem.fetch_pubchem_sdf(int(cid), transport)
        except TiergaeError as exc:
            failures += 1
            print(f"fetch: cid {cid}: {exc}", file=sys.stderr)
            continue
        path = out / f"{int(cid)}.sdf"
        write_texts([(path, body)])
        written.append(path)
    if cids and not written:
        raise CliError(f"all {failures} requests failed")
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


def _input_bytes(paths: Sequence[Path]) -> int:
    """Total size of `paths`; a path that cannot be stat'ed counts 0."""
    total = 0
    for path in paths:
        with contextlib.suppress(OSError):
            total += path.stat().st_size
    return total


def _ingest_file(path: Path, lines: list) -> Optional[list[str]]:
    """Read, parse, featurize and partition one SDF file: each molecule's
    corpus entry as JSON text, or None if the file is skipped as unreadable.
    Its stderr lines go into `lines` as they happen, so an exception leaves
    the lines up to it there."""
    try:
        molecules = parse_sdf(path.read_bytes())
    except (TiergaeError, OSError) as exc:
        lines.append(f"ingest: {path}: {exc}")
        return None
    fragments = []
    for mol in molecules:
        if mol.atom_count == 0:
            lines.append(f"ingest: {path}: skipping empty molecule")
            continue
        if mol.atom_count > graphs.MAX_ATOMS:
            lines.append(f"ingest: {path}: skipping a molecule of {mol.atom_count} atoms, "
                         f"more than MAX_ATOMS = {graphs.MAX_ATOMS}")
            continue
        graph = featurize(mol)
        partition = partition_molecule(mol)
        fragments.append(to_json(_molecule_entry(mol, graph, partition)))
        name = graph.id or path
        unknown = [symbol for symbol in dict.fromkeys(atom.symbol for atom in mol.atoms)
                   if symbol not in ELEMENT_VOCAB]
        if unknown:
            lines.append(f"ingest: {name}: element(s) {', '.join(map(repr, unknown))} "
                         "not in vocabulary, using the catch-all bucket")
        lines.append(f"ingest: {name}: {mol.atom_count} atoms, "
                     f"{partition.group_count} groups")
    return fragments


def _ingest_share(sdf_paths: Sequence[Path], share) -> Report:
    """`_ingest_file` on the files at `share`, in order: one (index, lines,
    fragments) result per file, and (index, exception) of the first
    exception other than a skipped file's, whose result holds the lines up
    to it."""
    results = []
    for index in share:
        lines = []
        try:
            fragments = _ingest_file(sdf_paths[index], lines)
        except Exception as exc:
            results.append((index, lines, []))
            return results, (index, exc)
        results.append((index, lines, fragments))
    return results, None


def cmd_ingest(paths: Sequence, out_path) -> Path:
    """Parse, featurize and partition every molecule; write the corpus.

    The files are shared by stride over `workers.worker_count` processes,
    at most one per INGEST_BYTES_PER_PROCESS of input: this one takes files
    0, k, 2k, ..., forked children the rest, and each returns its files'
    stderr lines and JSON entries. They come out in file order, and the
    exception raised is the one a one-process run meets first, after the
    lines that run prints before it."""
    sdf_paths = _iter_sdf_paths(paths)
    if not sdf_paths:
        raise CliError("no input files")
    k = worker_count(max(1, min(len(sdf_paths),
                                _input_bytes(sdf_paths) // INGEST_BYTES_PER_PROCESS)))
    results, failure = run_strides(functools.partial(_ingest_share, sdf_paths),
                                   len(sdf_paths), k, "SDF files")
    last = len(sdf_paths) if failure is None else failure[0]
    fragments: list[str] = []
    failures = 0
    for index, lines, file_fragments in sorted(results):  # indices are unique
        if index > last:
            break
        for line in lines:
            print(line, file=sys.stderr)
        if file_fragments is None:
            failures += 1
        else:
            fragments += file_fragments
    if failure is not None:
        raise failure[1]
    if not fragments:
        raise CliError(f"no molecules ingested ({failures} file(s) failed)")
    out = Path(out_path)
    write_texts([(out, f'{{"format_version":{CORPUS_FORMAT_VERSION},"molecules":['
                       + ",".join(fragments) + "]}\n")])
    return out


def flavor(kind: str):
    """(make_models, train_tiered, encode_tiered) of a model kind. The
    functions are read from the module on each call, so wrappers installed
    on them (the perfbench tracer's) are the ones run."""
    if kind == "tgae":
        return make_tier_models, train_tiered, encode_tiered
    return make_variational_tier_models, train_tiered_variational, encode_tiered_variational


def cmd_train(cfg: RunConfig, corpus_path, out_path) -> tuple[Path, Path]:
    """Train bottom-up on the corpus; write checkpoint and history CSV, or
    neither of them."""
    entries = load_corpus(corpus_path)
    items = corpus_items(entries)
    d_in = items[0][0].x.shape[1]
    del entries  # the graphs hold all that training reads
    make_models, train_tiered_fn, _ = flavor(cfg.model)
    models = make_models(d_in, cfg)
    histories = train_tiered_fn(models, items, cfg)
    checkpoint = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model": cfg.model,
        "dims": {"d_in": d_in, "hidden": cfg.hidden, "d_z": cfg.d_z, "k": cfg.k},
        "seed": cfg.seed,
        "params": params_state([p for m in models for p in m.params()]),
    }
    out = Path(out_path)
    history_path = out.parent / (out.stem + "_history.csv")
    history = io.StringIO()
    writer = csv.writer(history, lineterminator="\n")
    writer.writerow(["epoch", "tier", "loss"])
    for tier in sorted(histories):
        for epoch, loss in enumerate(histories[tier]):
            writer.writerow([epoch, tier, repr(loss)])
    # no new checkpoint without its history: a failed write keeps the old one
    write_texts([(out, to_json(checkpoint) + "\n"), (history_path, history.getvalue())])
    return out, history_path


def load_checkpoint(path, d_in: Optional[int] = None):
    """Rebuild models from a checkpoint; returns (models, model_kind)."""
    doc = _read_document(path, "checkpoint", CHECKPOINT_FORMAT_VERSION)
    _require_object(doc, f"checkpoint {path}", ("dims", "model", "params"))
    dims = doc["dims"]
    _require_object(dims, f"checkpoint {path}: dims", ("d_in", "hidden", "d_z", "k"))
    try:
        cfg = RunConfig(model=doc["model"], hidden=dims["hidden"], d_z=dims["d_z"],
                        k=dims["k"])
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
    models = flavor(cfg.model)[0](dims["d_in"], cfg)
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
    """Read-only inference over the corpus; one export JSON per molecule.

    After every check, the molecules are split by stride over one process
    per CPU in the affinity mask (`workers.worker_count`): this one takes 0, k, 2k,
    ..., forked children the rest. Each process encodes its share in one
    stacked pass (`tgae.encode_tiers`), then checks, builds and writes each
    export in molecule order. Every child is reaped before this returns or
    raises, and the failure raised is the one of the lowest molecule index,
    as in a serial run. An exception raised inside a share's stacked pass
    is ranked at the share's first molecule: none of the share is written,
    as if that molecule had failed."""
    entries = load_corpus(corpus_path)
    items = corpus_items(entries)
    # the exports read only these keys of the parsed documents
    entries = [{key: entry.get(key) for key in ("id", "cid", "inchi")} for entry in entries]
    d_in = items[0][0].x.shape[1]
    models, kind = load_checkpoint(checkpoint_path, d_in=d_in)
    first: dict[str, int] = {}  # export filename -> index of its molecule
    for index, entry in enumerate(entries):
        name = _export_filename(entry, index)
        if first.setdefault(name, index) != index:
            raise ConfigError(f"{_molecule_name(entries[first[name]], first[name])} and "
                              f"{_molecule_name(entry, index)} both export to {name}")
    encode = flavor(kind)[2]
    out = Path(out_dir)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    paths = [out / filename for filename in first]

    def embed_share(share) -> Report:
        """Encode the molecules at `share`, then check and write them in
        order; no results, and (index, exception) of the first that fails."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                reps = encode([items[i][0] for i in share], [items[i][1] for i in share],
                              models)
        except Exception as exc:
            return None, (share[0], exc)
        for index, rep in zip(share, reps):
            try:
                for tier, bundle in enumerate(rep.tiers, 1):
                    if not (np.isfinite(bundle.x).all() and np.isfinite(bundle.z).all()):
                        raise DomainError(f"{_molecule_name(entries[index], index)}: "
                                          f"tier {tier} features or embedding not finite")
                write_json(paths[index], _export_doc(entries[index], rep, kind))
            except Exception as exc:
                return None, (index, exc)
        return None, None

    failure = run_strides(embed_share, len(paths), worker_count(len(paths)), "molecules")[1]
    if failure is not None:
        raise failure[1]
    return paths


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
    add_run_flags(p_train)
    p_train.add_argument("--config", help="flat key = value config file; a flag overrides it")
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
            cfg = resolve_config(args.config, **{name: getattr(args, name)
                                                 for name in CONFIG_TYPES})
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
