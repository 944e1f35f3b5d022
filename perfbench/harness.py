"""One benchmark run of one workload.

A run generates the workload's SDF files, then runs the real pipeline in
this process, pass after pass: `cli.cmd_ingest` on the files,
`cli.cmd_train` on the corpus, `cli.cmd_embed` with the checkpoint. Passes go
on until the run's seconds are used up. The outputs of the first pass are
checked in full; every later pass must reproduce their bytes. Between the
passes of an untraced run, fresh interpreters are timed for set-up time.

No pass is left untimed as a warm-up: a CLI user starts a fresh process for
every command and pays the first call's costs each time, and a slow first
pass is one of at least three.

In a traced run, untraced and traced passes alternate. A traced pass wraps
the tiergae layers (see tracing.py) and gives self times and counts; the
difference between the two kinds of pass is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import jsonschema

from tiergae import cli

import tracing
from workloads import Workload, generate, input_shape, write_inputs

SETUP_SAMPLES = 12
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
TIERS = ("1", "2", "3")
SETUP_CODE = "import tiergae.cli\nimport time\nprint(repr(time.time()))"

_DRAFT = jsonschema.Draft202012Validator
_NUMBER_ITEMS = {"type": "number"}


def _items(validator, items, instance, schema):
    """`items` with a fast path for arrays of plain numbers, which are
    almost all of an export; anything else goes the standard way."""
    if items == _NUMBER_ITEMS and isinstance(instance, list) and all(
            type(x) is float or type(x) is int for x in instance):
        return
    yield from _DRAFT.VALIDATORS["items"](validator, items, instance, schema)


ExportValidator = jsonschema.validators.extend(_DRAFT, {"items": _items})


class Aborted(Exception):
    """A pipeline call raised or its output failed a check."""


@dataclass
class PassTimes:
    ingest: list[float]  # seconds per cmd_ingest call
    train: float
    embed: list[float]   # seconds per cmd_embed call


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SetupTimer:
    """Seconds from starting a fresh interpreter until `import tiergae.cli`
    returns. One untimed start first writes bytecode. The timed starts are
    spread over the run, between passes, so that the median does not rest
    on one short phase of the machine's speed."""

    def __init__(self, src: Path):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.cmd = [sys.executable, "-c", SETUP_CODE]
        self.times: list[float] = []
        self._start()

    def _start(self) -> float:
        t0 = time.time()
        done = subprocess.run(self.cmd, env=self.env, check=True, capture_output=True,
                              text=True, timeout=60)
        return float(done.stdout.split()[-1]) - t0

    def sample(self, share: float) -> None:
        """Time starts until ``share`` of the run's samples are taken."""
        while len(self.times) < math.ceil(SETUP_SAMPLES * min(share, 1.0)):
            self.times.append(self._start())


def pipeline_s(passes: list[PassTimes]) -> float:
    ingest = statistics.median(t for p in passes for t in p.ingest)
    train = statistics.median(p.train for p in passes)
    embed = statistics.median(t for p in passes for t in p.embed)
    return ingest + train + embed


def _history_losses(path: Path) -> dict[str, list[float]]:
    losses: dict[str, list[float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            losses.setdefault(row["tier"], []).append(float(row["loss"]))
    return losses


def _edge_mass(tier: dict) -> float:
    return math.fsum(tier["edge_attr"]["data"])


class Bench:
    """Pipeline passes over one workload's inputs, with output checks."""

    def __init__(self, workload: Workload, names: list[str], work: Path):
        self.w = workload
        self.names = names
        self.sdf_dir = work / "sdf"
        self.corpus = work / "corpus.json"
        self.checkpoint = work / "checkpoint.json"
        self.export = work / "export"
        self.config = cli.RunConfig(model=workload.model, epochs=workload.epochs)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ref: dict = {}         # digests and values of the first pass
        self.losses: dict[str, list[float]] = {}
        self.groups: list[int] = []

    # one pipeline call ------------------------------------------------------

    def _call(self, fn, *args):
        """Run one pipeline command; returns its result and wall seconds.
        The command's progress lines on stderr are discarded."""
        self.attempted += 1
        try:
            with open(os.devnull, "w") as null, contextlib.redirect_stderr(null):
                t0 = perf_counter()
                out = fn(*args)
                elapsed = perf_counter() - t0
        except Exception as exc:
            self.failed += 1
            traceback.print_exc()
            self.problems.append(f"{fn.__name__} raised {exc!r}")
            raise Aborted from exc
        return out, elapsed

    def _verify(self, what: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
            raise Aborted

    # checks -----------------------------------------------------------------

    def _check_corpus(self) -> list[str]:
        digest = sha256(self.corpus)
        if "corpus" in self.ref:
            return [] if digest == self.ref["corpus"] else ["corpus bytes changed"]
        self.ref["corpus"] = digest
        entries = cli.load_corpus(self.corpus)
        self.groups = [len(e["groups"]) for e in entries]
        ids = [e["id"] for e in entries]
        return [] if ids == self.names else [f"corpus ids {ids[:3]}... != inputs"]

    def _check_train(self, history: Path) -> list[str]:
        problems = []
        losses = _history_losses(history)
        for tier in TIERS:
            got = losses.get(tier, [])
            if len(got) != self.w.epochs:
                problems.append(f"tier {tier}: {len(got)} losses, expected {self.w.epochs}")
            if not all(math.isfinite(v) for v in got):
                problems.append(f"tier {tier}: non-finite loss in history")
        digest = sha256(self.checkpoint)
        if "checkpoint" in self.ref:
            if digest != self.ref["checkpoint"] or losses != self.losses:
                problems.append("checkpoint or history changed between passes")
        else:
            self.ref["checkpoint"] = digest
            self.losses = losses
        return problems

    def _check_embed(self) -> list[str]:
        files = sorted(self.export.glob("*.json"))
        expected = sorted(f"{n}.json" for n in self.names)
        if [f.name for f in files] != expected:
            return [f"{len(files)} export files, expected {len(expected)}"]
        digests = {f.name: sha256(f) for f in files}
        if "exports" in self.ref:
            return [] if digests == self.ref["exports"] else ["export bytes changed"]
        self.ref["exports"] = digests
        problems = []
        validator = ExportValidator(cli.EXPORT_SCHEMA)
        for f in files:
            doc = json.loads(f.read_text(encoding="utf-8"))
            error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
            if error is not None:
                problems.append(f"{f.name} fails EXPORT_SCHEMA: {error.message}")
                continue
            masses = [_edge_mass(doc["tiers"][t]) for t in TIERS]
            if masses[1] != masses[0] or masses[2] != masses[0]:
                problems.append(f"{f.name}: adjacency mass per tier {masses} not conserved")
        return problems

    def export_digest(self) -> str:
        lines = "".join(f"{n} {d}\n" for n, d in sorted(self.ref["exports"].items()))
        return hashlib.sha256(lines.encode("utf-8")).hexdigest()

    # passes -----------------------------------------------------------------

    def _ingest(self) -> float:
        elapsed = self._call(cli.cmd_ingest, [self.sdf_dir], self.corpus)[1]
        self._verify("ingest", self._check_corpus())
        return elapsed

    def _embed(self) -> float:
        shutil.rmtree(self.export, ignore_errors=True)
        elapsed = self._call(cli.cmd_embed, self.checkpoint, self.corpus, self.export)[1]
        self._verify("embed", self._check_embed())
        return elapsed

    def run_pass(self) -> PassTimes:
        """Ingest, train, then the remaining ingest and embed calls in
        turn. The machine's speed drifts over seconds, so alternating
        spreads each stage's calls over the pass instead of timing them
        back to back in one phase of the drift. A later ingest rewrites
        the corpus with the same bytes (checked), so embed reads the same
        input."""
        ingest = [self._ingest()]
        (_, history), train = self._call(cli.cmd_train, self.config, self.corpus,
                                         self.checkpoint)
        self._verify("train", self._check_train(history))
        embed = []
        for k in range(max(self.w.ingest_reps - 1, self.w.embed_reps)):
            if k < self.w.embed_reps:
                embed.append(self._embed())
            if k + 1 < self.w.ingest_reps:
                ingest.append(self._ingest())
        return PassTimes(ingest, train, embed)

    def traced_pass(self) -> tuple[PassTimes, tracing.Tracer]:
        tracer = tracing.Tracer()
        missing = tracer.install()
        if missing:
            print(f"perfbench: not found, reported as uncalled: {missing}", file=sys.stderr)
        try:
            times = self.run_pass()
        finally:
            tracer.uninstall()
        return times, tracer


def _is_time(key: str) -> bool:
    return key.endswith((".self_s", ".s"))


def per_layer(tracers: list[tracing.Tracer]) -> tuple[dict, list[str]]:
    """Per-layer values over traced passes: median seconds per pass and
    counts, which must repeat exactly."""
    problems = []
    per_pass = []
    for tracer in tracers:
        selfs = tracing.self_times(tracer.spans)
        problems.extend(tracing.check_spans(tracer.spans, selfs))
        summary = tracing.summarize(tracer.spans)
        for name in ("cli.cmd_ingest", "cli.cmd_train", "cli.cmd_embed"):
            summary[f"{name}.s"] = sum(s.end - s.start for s in tracer.spans
                                       if s.name == name)
        summary.update({c: tracer.counts.get(c, 0) for c in tracing.COUNTERS})
        per_pass.append(summary)
    out = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        if _is_time(key):
            out[key] = statistics.median(values)
            continue
        if len(set(values)) != 1:
            problems.append(f"{key} differs between traced passes: {values}")
        out[key] = values[0]
    return out, problems


def throughput(work_per_call: float, times: list[float]) -> float:
    """Work done per second over all calls of a stage: total work over total
    wall time. The machine switches between fast and slow phases; a median
    jumps from one phase's speed to the other's as their shares of a run
    cross one half, while this moves with the shares."""
    return work_per_call * len(times) / math.fsum(times)


def end_to_end(bench: Bench, passes: list[PassTimes], setup: SetupTimer) -> dict:
    n = len(bench.names)
    graph_epochs = n * bench.w.epochs * len(TIERS)
    return {
        "setup_s": (statistics.median(setup.times), "s"),
        "ingest_mol_per_s": (throughput(n, [t for p in passes for t in p.ingest]), "mol/s"),
        "train_graph_epochs_per_s": (throughput(graph_epochs, [p.train for p in passes]),
                                     "1/s"),
        "embed_mol_per_s": (throughput(n, [t for p in passes for t in p.embed]), "mol/s"),
        "pipeline_s": (pipeline_s(passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "final_loss_t1": (bench.losses["1"][-1], "loss"),
        "final_loss_t2": (bench.losses["2"][-1], "loss"),
        "ok_ops_share": ((bench.attempted - bench.failed) / bench.attempted, "ratio"),
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        root: Path) -> tuple[dict, list[str]]:
    """One run; returns the result object and human-readable report lines."""
    src = root / "src"
    out_dir = root / ".bench_work"
    work = out_dir / f"{workload.name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    setup = None if trace else SetupTimer(src)
    molecules = generate(workload, seed)
    write_inputs(molecules, work / "sdf")
    bench = Bench(workload, [m.name for m in molecules], work)
    untraced: list[PassTimes] = []
    traced: list[tuple[PassTimes, tracing.Tracer]] = []
    aborted = False
    try:
        start = perf_counter()
        deadline = start + seconds
        while True:
            if trace:
                enough = min(len(untraced), len(traced)) >= MIN_TRACED_PASSES
            else:
                enough = len(untraced) >= MIN_PASSES
            if enough and perf_counter() >= deadline:
                break
            untraced.append(bench.run_pass())
            if trace:
                traced.append(bench.traced_pass())
            else:
                setup.sample((perf_counter() - start) / seconds)
        if setup is not None:
            setup.sample(1.0)
    except Aborted:
        aborted = True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = [
        f"workload {workload.name} seed {seed} model {workload.model} "
        f"epochs {workload.epochs} trace {int(trace)} "
        f"blas_threads {os.environ.get('OPENBLAS_NUM_THREADS')}",
        "input " + json.dumps(input_shape(molecules, bench.groups or [0]), sort_keys=True),
        f"passes untraced {len(untraced)}, traced {len(traced)}",
    ]
    metrics: dict[str, tuple[float, str]] = {}
    if not aborted and not trace:
        metrics = end_to_end(bench, untraced, setup)
    elif not aborted:
        layers, problems = per_layer([t for _, t in traced])
        bench.problems.extend(problems)
        metrics = {k: (v, "s" if _is_time(k) else tracing.UNITS.get(k, "count"))
                   for k, v in layers.items()}
        metrics["final_loss_t3"] = (bench.losses["3"][-1], "loss")
        overhead = pipeline_s([p for p, _ in traced]) - pipeline_s(untraced)
        metrics["trace_overhead_s"] = (overhead, "s")
        spans_path = out_dir / f"trace-{workload.name}-s{seed}.json"
        tracing.write_spans([t.spans for _, t in traced], spans_path)
        report.append(f"spans written to {spans_path.relative_to(root)}")
    if "exports" in bench.ref:
        report.append(f"sha256 checkpoint {bench.ref['checkpoint']} "
                      f"exports {bench.export_digest()}")
    report.extend(f"problem {p}" for p in bench.problems)
    report.extend(f"metric {k} {v!r} {u}" for k, (v, u) in metrics.items())
    result = {
        "correct": not aborted and not bench.problems and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report
