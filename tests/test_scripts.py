"""Smoke run of the example script, which calls the training APIs."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def load_script(name: str):
    """The script `scripts/<name>` as a module, without running its main."""
    spec = importlib.util.spec_from_file_location(Path(name).stem, ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flags", [(), ("--variational",)])
def test_train_vanillin_runs(flags):
    out = run_script("train_vanillin.py", "--epochs", "2", *flags)
    kind = "variational" if flags else "deterministic"
    assert f"trained {kind} model, 2 epochs per tier" in out
    assert "tier 3: 1 nodes, embedding 1x16" in out


def test_bench_pairs_summary_applies_the_win_and_spread_rule():
    bench_pairs = load_script("bench_pairs.py")
    end_to_end = [
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "close", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "wall", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rss", "unit": "MB", "better": "lower", "bound": 0.05},
    ]
    parent_rate = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    pairs = []
    for i, p in enumerate(parent_rate):
        parent = {"rate": p, "close": p, "wall": 1.0, "rss": 50.0}
        change = {"rate": p * 1.2 if i else p * 0.99,  # wins 9 of 10
                  "close": p + (1.0 if i < 8 else -1.0),  # wins 8 of 10
                  "wall": 0.8 if i % 2 else 1.0,  # 5 wins, 5 ties
                  "rss": 53.0}  # 6% worse
        pairs.append((parent, change))
    rows = {r["metric"]: r for r in bench_pairs.summarize(pairs, end_to_end)}
    assert rows["rate"]["wins"] == 9 and rows["rate"]["gain_shown"]
    assert rows["rate"]["parent"] == bench_pairs.quartiles(parent_rate)
    assert rows["close"]["wins"] == 8 and not rows["close"]["gain_shown"]
    assert rows["wall"]["wins"] == 5 and not rows["wall"]["gain_shown"]
    assert rows["wall"]["change"][1] == 0.9
    assert all(rows[m]["bound"] == "yes" for m in ("rate", "close", "wall"))
    assert rows["rss"]["bound"] == "NO" and rows["rss"]["wins"] == 0
    lines = bench_pairs.format_rows(list(rows.values()))
    assert len(lines) == 5 and lines[1].split()[0] == "rate"


def test_bench_pairs_gain_needs_a_gap_wider_than_the_parent_spread():
    bench_pairs = load_script("bench_pairs.py")
    metric = [{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}]
    parent = [80.0, 120.0] * 5  # quartiles 80 and 120
    pairs = [({"rate": p}, {"rate": p + 10.0}) for p in parent]
    row, = bench_pairs.summarize(pairs, metric)
    assert row["wins"] == 10 and not row["gain_shown"]
    assert row["parent"] == (80.0, 100.0, 120.0)
    # a parent spread of 40 is wider than the bound, 25: no verdict on it
    assert row["bound"] == "unresolved"


def test_bench_pairs_bound_verdict_under_a_wide_parent_spread():
    verdict = load_script("bench_pairs.py").bound_verdict
    parent = [80.0, 120.0] * 5
    # every change run beats every parent run: within the bound whatever the spread
    assert verdict(parent, [121.0] * 10, 1.0, 0.25) == "yes"
    assert verdict(parent, [79.0] * 10, -1.0, 0.25) == "yes"
    # a median past the bound is out of it whatever the spread
    assert verdict(parent, [70.0] * 10, 1.0, 0.25) == "NO"
    assert verdict(parent, [100.0] * 10, 1.0, 0.25) == "unresolved"
    # the same medians under a spread narrower than the bound
    assert verdict([99.0, 101.0] * 5, [100.0] * 10, 1.0, 0.25) == "yes"


RUN_OUTPUT = """perfbench: workload library-tvgae seed 7
sha256 checkpoint {ck} exports {ex}
metric embed_mol_per_s 512.5 mol/s
{{"correct": true, "metrics": {{"embed_mol_per_s": {{"unit": "mol/s", "value": 512.5}}}}}}
"""


def test_bench_pairs_reads_the_digests_and_says_whether_each_pair_agrees():
    bench_pairs = load_script("bench_pairs.py")
    metrics, digests = bench_pairs.parse_run(RUN_OUTPUT.format(ck="9ade", ex="156e"))
    assert metrics == {"embed_mol_per_s": 512.5}
    assert digests == ("9ade", "156e")
    no_line = "\n".join(line for line in RUN_OUTPUT.splitlines() if "sha256" not in line)
    assert bench_pairs.parse_run(no_line.format(ck="", ex=""))[1] is None
    same = [(("a", "b"), ("a", "b"))] * 3
    assert bench_pairs.digest_verdict(same) == (
        "digests: checkpoint and exports agree in all 3 pairs")
    mixed = same + [(("a", "b"), ("a", "c")), (("a", "b"), None)]
    assert bench_pairs.digest_verdict(mixed) == (
        "digests: differ or missing in pair(s) 3, 4 of 5")
