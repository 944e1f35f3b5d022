"""Alternating parent/change pairs of the benchmark, and the rule a gain must meet.

Runs N pairs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

one side in each of two checkout roots (for example the repository and an
extracted `git archive` of its parent commit), seeds S, S + 1, ..., the
parent first in even pairs and the change first in odd ones. For every
end-to-end metric that BENCHMARK.json declares it prints each side's
median and quartiles, how many pairs the change won (ties count for
neither), whether a gain is shown (it wins at least 9 of 10 pairs and the
medians differ by more than the parent's interquartile range) and whether
the change's median stays within the metric's bound of the parent's: "yes",
"NO", or "unresolved" where the parent's interquartile range is wider than
the bound and not every run of the change beats every run of the parent.
The metrics and their bounds are read from the change's BENCHMARK.json.
Each run's metrics and its `sha256 checkpoint ... exports ...` digests come
first, one JSON line each, so every run made is on record; the last line
says whether the parent and the change wrote the same checkpoint and
exports in every pair (both sides of a pair run the same seed).

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload drugs-tgae --seed 301 --pairs 10 --seconds 35
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

WIN_SHARE = 0.9  # the share of pairs a gain must win
# the report line with the digests of a run's checkpoint and exports
DIGESTS = re.compile(r"^sha256 checkpoint (\S+) exports (\S+)$", re.MULTILINE)

Digests = Optional[tuple[str, str]]


def parse_run(stdout: str) -> tuple[dict[str, float], Digests]:
    """The end-to-end metrics in the output of one benchmark run, and its
    (checkpoint, exports) digests, or None if it printed none."""
    result = json.loads(stdout.strip().splitlines()[-1])
    found = DIGESTS.search(stdout)
    return ({name: m["value"] for name, m in result["metrics"].items()},
            found.groups() if found else None)


def run_once(root: Path, workload: str, seed: int,
             seconds: float) -> tuple[dict[str, float], Digests]:
    """`parse_run` of one untraced benchmark run in `root`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return parse_run(done.stdout)


def digest_verdict(digests: list[tuple[Digests, Digests]]) -> str:
    """Whether each (parent, change) pair of digests agrees."""
    differ = [i for i, (p, c) in enumerate(digests) if p is None or p != c]
    if not differ:
        return f"digests: checkpoint and exports agree in all {len(digests)} pairs"
    return ("digests: differ or missing in pair(s) " + ", ".join(map(str, differ))
            + f" of {len(digests)}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def bound_verdict(parent: list[float], change: list[float], sign: float,
                  bound: float) -> str:
    """"yes" if the change's median is no worse than the parent's by more
    than the relative bound, "NO" if it is, and "unresolved" if the
    parent's own spread is wider than the bound; a change whose every run
    beats every parent run is "yes" whatever the spread."""
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "yes"
    (p1, p2, p3), c2 = quartiles(parent), quartiles(change)[1]
    if sign * (c2 - p2 * (1.0 - sign * bound)) < 0.0:
        return "NO"
    return "unresolved" if p3 - p1 > bound * abs(p2) else "yes"


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[dict]:
    """One row per declared metric from (parent, change) metric pairs."""
    rows = []
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = 1.0 if higher else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p_q, c_q = quartiles(parent), quartiles(change)
        gap = sign * (c_q[1] - p_q[1])  # > 0: the change's median is better
        rows.append({
            "metric": name, "unit": metric["unit"], "better": metric["better"],
            "pairs": len(pairs), "parent": p_q, "change": c_q, "wins": wins,
            "gain_shown": wins >= WIN_SHARE * len(pairs) and gap > p_q[2] - p_q[0],
            "bound": bound_verdict(parent, change, sign, metric["bound"]),
        })
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    lines = [f"{'metric':26} {'parent q1/median/q3':>34} {'change q1/median/q3':>34} "
             f"{'wins':>6}  gain  in bound"]
    for r in rows:
        sides = ["/".join(f"{v:.6g}" for v in r[side]) for side in ("parent", "change")]
        gain = "yes" if r["gain_shown"] else "no"
        lines.append(f"{r['metric']:26} {sides[0]:>34} {sides[1]:>34} "
                     f"{r['wins']:>3}/{r['pairs']:<2}  {gain:4}  {r['bound']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout root of the parent")
    parser.add_argument("--change", default=Path("."), type=Path,
                        help="checkout root of the change (default: .)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int, help="seed of the first pair")
    parser.add_argument("--pairs", default=10, type=int)
    parser.add_argument("--seconds", default=35.0, type=float)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        parser.error("--pairs must be positive, --seconds positive and --seed nonnegative")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    pairs, digests = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        sides = {}
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            root = args.parent if side == "parent" else args.change
            sides[side] = run_once(root, args.workload, seed, args.seconds)
            metrics, sha = sides[side]
            print(json.dumps({"pair": i, "seed": seed, "side": side, "metrics": metrics,
                              "sha256": sha}, sort_keys=True), flush=True)
        pairs.append((sides["parent"][0], sides["change"][0]))
        digests.append((sides["parent"][1], sides["change"][1]))
    print(f"workload {args.workload}, {args.pairs} pairs at {args.seconds:g} s, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}")
    for line in format_rows(summarize(pairs, spec["end_to_end"])):
        print(line)
    print(digest_verdict(digests))
    return 0


if __name__ == "__main__":
    sys.exit(main())
