"""Smoke run of the example script, which calls the training APIs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def script_process(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def run_script(name: str, *args: str) -> str:
    done = script_process(name, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout


def load_script(name: str):
    """The script `scripts/<name>` as a module, without running its main."""
    spec = importlib.util.spec_from_file_location(Path(name).stem, ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flags", [(), ("--model", "tvgae", "--k", "3")])
def test_train_vanillin_runs(flags):
    # the script takes the flags of `tiergae train`
    out = run_script("train_vanillin.py", "--epochs", "2", *flags)
    kind = "variational" if flags else "deterministic"
    assert f"trained {kind} model, 2 epochs per tier" in out
    assert "tier 3: 1 nodes, embedding 1x16" in out


@pytest.mark.parametrize("flags,field", [(("--epochs", "0"), "epochs"),
                                         (("--lr", "nan"), "lr")])
def test_train_vanillin_refuses_a_bad_setting_in_one_line(flags, field):
    done = script_process("train_vanillin.py", *flags)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith(f"train_vanillin: config field {field!r}: ")
    assert done.stderr.count("\n") == 1, done.stderr


@pytest.mark.parametrize("content", [None, b""])
def test_train_vanillin_refuses_an_sdf_it_cannot_use_in_one_line(tmp_path, content):
    sdf = tmp_path / "in.sdf"
    if content is not None:
        sdf.write_bytes(content)
    done = script_process("train_vanillin.py", "--sdf", str(sdf))
    assert done.returncode == 2 and done.stdout == ""
    want = f"no molecule in {sdf}" if content is not None else f"cannot read {sdf}: "
    assert done.stderr.startswith(f"train_vanillin: {want}")
    assert done.stderr.count("\n") == 1, done.stderr


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


def test_bench_pairs_runs_pair_i_of_every_workload_before_pair_i_plus_1(tmp_path, capsys,
                                                                       monkeypatch):
    bench_pairs = load_script("bench_pairs.py")
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}]}))
    calls = []

    def run_once(root, workload, seed, seconds):
        calls.append((root.name, workload, seed))
        return {"rate": 100.0 + (root == change)}, ("ck", "ex")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--seed", "5",
                             "--pairs", "3", "--seconds", "1", "--workload", "a",
                             "--workload", "b"]) == 0
    assert calls == [
        ("parent", "a", 5), ("change", "a", 5), ("parent", "b", 5), ("change", "b", 5),
        ("change", "a", 6), ("parent", "a", 6), ("change", "b", 6), ("parent", "b", 6),
        ("parent", "a", 7), ("change", "a", 7), ("parent", "b", 7), ("change", "b", 7),
    ]
    out = capsys.readouterr().out.splitlines()
    runs = [json.loads(line) for line in out if line.startswith("{")]
    assert [(r["workload"], r["pair"], r["side"]) for r in runs][:2] == [
        ("a", 0, "parent"), ("a", 0, "change")]
    summaries = [i for i, line in enumerate(out) if line.startswith("workload ")]
    assert [out[i].split(",")[0] for i in summaries] == ["workload a", "workload b"]
    for i in summaries:
        assert out[i + 2].split()[:1] == ["rate"] and "3/3" in out[i + 2]
        assert out[i + 3] == "digests: checkpoint and exports agree in all 3 pairs"
