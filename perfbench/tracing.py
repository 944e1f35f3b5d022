"""Span tracing for the traced run, applied to tiergae from outside.

A `Tracer` wraps public functions of the tiergae modules and two methods of
the autodiff layer. Each wrapped call records a span (name, start, end,
parent) and, for some names, adds to a count computed at the same boundary.
Spans are kept in memory; `write_spans` saves them at the end of a run.

Every tiergae module that imported a wrapped function gets the wrapper, so
calls made through `tgae`, `tvgae` and `cli` are seen as well. `uninstall`
restores the original objects.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from tiergae.graphs import adjacency_array

# count(counts, result, args, kwargs) adds to the named counters
Count = Callable[..., None]


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _tape_nodes(counts, _out, args, kwargs):
    counts["autodiff.tape_nodes"] += len(_arg(args, kwargs, 0, "self").nodes)


def _gcn_flops(counts, n: int, enc) -> None:
    """Forward flops of a K-layer GCN on n nodes: A @ H, then @ W, then + b."""
    for layer in enc.layers:
        d_in, d_out = layer.weight.value.shape
        counts["gcn.flops"] += 2 * n * n * d_in + 2 * n * d_in * d_out + n * d_out


def _encode_flops(counts, out, args, kwargs):
    tape = _arg(args, kwargs, 3, "tape")
    _gcn_flops(counts, tape.value(out).shape[0], _arg(args, kwargs, 0, "enc"))


def _encode_numpy_flops(counts, out, args, kwargs):
    _gcn_flops(counts, out.shape[0], _arg(args, kwargs, 0, "enc"))


def _pool_cells(counts, _out, args, kwargs):
    n, _, s = adjacency_array(_arg(args, kwargs, 0, "a")).shape
    counts["pooling.cells"] += n * n * s


def _sdf_atoms(counts, out, _args, _kwargs):
    counts["sdf.atoms"] += sum(m.atom_count for m in out)


def _groups(counts, out, _args, _kwargs):
    counts["fgroups.groups"] += out.group_count


def _bytes_written(counts, _out, args, kwargs):
    counts["cli.bytes_written"] += Path(_arg(args, kwargs, 0, "path")).stat().st_size


def _bytes_read(counts, _out, args, kwargs):
    counts["cli.bytes_read"] += Path(_arg(args, kwargs, 0, "path")).stat().st_size


# (module, attribute, count); a dotted attribute names a class method
TARGETS: tuple[tuple[str, str, Optional[Count]], ...] = (
    ("autodiff", "Tape.backward", _tape_nodes),
    ("autodiff", "Adam.step", None),
    ("tgae", "train_tier", None),
    ("tgae", "reconstruction_loss", None),
    ("tgae", "decode_adjacency", None),
    ("tgae", "tier_sample", None),
    ("tgae", "next_tier_samples", None),
    ("tgae", "encode_tiered", None),
    ("tvgae", "train_tier_variational", None),
    ("tvgae", "kl_divergence", None),
    ("tvgae", "reparameterize", None),
    ("tvgae", "next_tier_samples_variational", None),
    ("tvgae", "encode_tiered_variational", None),
    ("gcn", "encode", _encode_flops),
    ("gcn", "encode_numpy", _encode_numpy_flops),
    ("gcn", "gcn_norm", None),
    ("pooling", "pool_adjacency", _pool_cells),
    ("pooling", "pool_features", None),
    ("graphs", "coo_to_dense", None),
    ("graphs", "dense_to_coo", None),
    ("sdf", "parse_sdf", _sdf_atoms),
    ("sdf", "featurize", None),
    ("fgroups", "partition_molecule", _groups),
    ("fgroups", "membership_from_partition", None),
    ("cli", "cmd_ingest", None),
    ("cli", "cmd_train", None),
    ("cli", "cmd_embed", None),
    ("cli", "write_json", _bytes_written),
    ("cli", "read_json", _bytes_read),
    ("cli", "array_to_json", None),
    ("cli", "corpus_items", None),
    ("cli", "load_checkpoint", None),
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr, _ in TARGETS)
MODULES = tuple(dict.fromkeys(mod for mod, _, _ in TARGETS))
COUNTERS = ("autodiff.tape_nodes", "gcn.flops", "pooling.cells", "sdf.atoms",
            "fgroups.groups", "cli.bytes_written", "cli.bytes_read")
# every other count is in plain units; flops are computed, not measured
UNITS = {"gcn.flops": "flop-computed", "cli.bytes_written": "B", "cli.bytes_read": "B"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    failed: bool = False


class Tracer:
    """Records spans and counts for wrapped tiergae calls in one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, count: Optional[Count]) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            # counted after the span closes, so counting lands in the
            # parent's self time and not in the layer's
            if count is not None:
                count(counts, out, args, kwargs)
            return out

        return traced

    def install(self) -> list[str]:
        """Patch every target; returns the names not found, which then
        report zero calls."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        missing = []
        for mod_name, attr, count in TARGETS:
            name = f"{mod_name}.{attr}"
            owner_name, _, meth = attr.rpartition(".")
            try:
                module = importlib.import_module(f"tiergae.{mod_name}")
            except ModuleNotFoundError:
                module = None
            owner = getattr(module, owner_name, None) if owner_name else module
            if not hasattr(owner, meth):
                missing.append(name)
                continue
            if owner_name:
                self._patch(owner, meth, self._wrap(name, owner.__dict__[meth], count))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, count)
            for mod in _tiergae_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return missing

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


def _tiergae_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "tiergae" or name.startswith("tiergae."))]


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its child spans cover.

    Spans come from one thread, so children of one parent never overlap and
    the time they cover is the sum of their durations.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def check_spans(spans: list[Span], selfs: list[float], tol: float = 1e-6) -> list[str]:
    """Each child lies inside its parent, and for each root span the self
    times of the spans under it, its own included, add up to its duration."""
    problems = []
    root = list(range(len(spans)))
    covered: dict[int, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                problems.append(f"span {i} {s.name} lies outside its parent {p.name}")
            root[i] = root[s.parent]
        covered[root[i]] += selfs[i]
    for r, total in covered.items():
        dur = spans[r].end - spans[r].start
        if abs(total - dur) > tol:
            problems.append(
                f"self times under {spans[r].name} add up to {total:.9f} s, "
                f"its duration is {dur:.9f} s"
            )
    return problems


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per span name: `.self_s` and `.calls`; per module: `.failed`."""
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for mod in MODULES:
        out[f"{mod}.failed"] = 0
    for s, self_s in zip(spans, self_times(spans)):
        out[f"{s.name}.self_s"] += self_s
        out[f"{s.name}.calls"] += 1
        if s.failed:
            out[f"{s.name.split('.')[0]}.failed"] += 1
    return out


def write_spans(passes: list[list[Span]], path: Path) -> None:
    """Spans of each traced pass; times in seconds from the pass's first span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"fields": ["name", "start_s", "end_s", "parent"], "passes": []}
    for spans in passes:
        t0 = spans[0].start if spans else 0.0
        doc["passes"].append([[s.name, s.start - t0, s.end - t0, s.parent] for s in spans])
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
