"""`ingest` shares its SDF files out by stride over one process per CPU in
the affinity mask, once the input holds `cli.INGEST_BYTES_PER_PROCESS` for
each. The corpus and stderr must not depend on the number of processes
or on the warning filters, a failure must be the one a run in one process
raises, and no child may outlive the command.

The byte floor is lowered by replacing its constant; the process count is
set and the children counted with the helpers of `forks.py`.
"""

import contextlib
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiergae import cli
from tiergae.cli import cmd_ingest, main
from tiergae.errors import CliError
from tiergae.fgroups import partition_molecule
from tiergae.sdf import Molecule, write_sdf

from conftest import VANILLIN_SDF
from forks import assert_no_child_left, count_forks, use_cpus
from test_blas_threads import chain_molecule
from test_cli import _EDIT, mutated

OOV = "element(s) 'Se' not in vocabulary, using the catch-all bucket"


def selenium_chain(carbons: int) -> Molecule:
    """A carbon chain whose first atom is selenium, outside the vocabulary."""
    mol = chain_molecule(carbons)
    mol.atoms[0].symbol = "Se"
    return mol


@pytest.fixture(scope="module")
def sdf_paths(tmp_path_factory) -> list[Path]:
    """Nine inputs. At k = 2 the child takes #1, #3, #5, #7: the file that
    fails to parse, the missing one, the file of three records (one empty)
    and a selenium chain; the caller takes the other selenium chain."""
    root = tmp_path_factory.mktemp("sdf")

    def sdf(name: str, *molecules: Molecule) -> Path:
        (root / name).write_text(write_sdf(molecules), encoding="utf-8")
        return root / name

    shutil.copy(VANILLIN_SDF, root / "vanillin.sdf")
    (root / "broken.sdf").write_bytes(b"not an SDF file\n")
    return [root / "vanillin.sdf", root / "broken.sdf", sdf("c3.sdf", chain_molecule(3)),
            root / "missing.sdf", sdf("se4.sdf", selenium_chain(4)),
            sdf("three.sdf", chain_molecule(5), Molecule([], []), chain_molecule(8)),
            sdf("c12.sdf", chain_molecule(12)), sdf("se6.sdf", selenium_chain(6)),
            sdf("c2.sdf", chain_molecule(2))]


@pytest.fixture()
def low_floor(monkeypatch) -> None:
    """One process per input byte, so that the CPU count alone sets k."""
    monkeypatch.setattr(cli, "INGEST_BYTES_PER_PROCESS", 1)


def ingest(paths, out: Path, capsys, action: str = "always") -> dict:
    """Corpus bytes (None if none was written) and stderr text of one
    `cmd_ingest` under the warnings `action`; an exception it raises is
    kept as its type and text."""
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        try:
            result = cmd_ingest(paths, out) == out
        except Exception as exc:
            result = type(exc), str(exc)
    return {"result": result, "corpus": out.read_bytes() if out.exists() else None,
            "stderr": capsys.readouterr().err}


def serial(monkeypatch, paths, out: Path, capsys, action: str = "always") -> dict:
    use_cpus(monkeypatch, 1)
    return ingest(paths, out, capsys, action)


# ---------------------------------------------------------------- same bytes


@pytest.mark.parametrize("action", ["always", "default", "error"])
@pytest.mark.parametrize("cpus", [1, 2, 3, 13])
def test_corpus_and_stderr_do_not_depend_on_the_process_count(tmp_path, monkeypatch, capsys,
                                                              sdf_paths, low_floor, cpus,
                                                              action):
    one = serial(monkeypatch, sdf_paths, tmp_path / "one.json", capsys, action)
    use_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    split = ingest(sdf_paths, tmp_path / "split.json", capsys, action)
    assert len(forks) == min(cpus, len(sdf_paths)) - 1
    assert_no_child_left()
    assert split == one
    assert one["result"] is True
    assert one["stderr"].count("\n") == 13 and "skipping empty molecule" in one["stderr"]
    # each selenium chain names the element once, just before its summary line
    lines = one["stderr"].splitlines()
    assert sum(OOV in line for line in lines) == 2
    for name in ("chain4", "chain6"):
        i = lines.index(f"ingest: {name}: {OOV}")
        assert lines[i + 1].startswith(f"ingest: {name}: ") and "atoms" in lines[i + 1]


@pytest.mark.parametrize("cpus", [2, 3])
def test_an_error_filter_changes_nothing(tmp_path, monkeypatch, capsys, sdf_paths, low_floor,
                                         cpus):
    one = serial(monkeypatch, sdf_paths, tmp_path / "one.json", capsys, "ignore")
    use_cpus(monkeypatch, cpus)
    split = ingest(sdf_paths, tmp_path / "split.json", capsys, "error")
    assert_no_child_left()
    assert split == one
    assert one["result"] is True and one["corpus"] is not None


def test_python_w_error_ingests_the_selenium_file_as_without_it(tmp_path, sdf_paths):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    runs = []
    for flags in ((), ("-W", "error")):
        out = tmp_path / f"corpus{len(flags)}.json"
        done = subprocess.run([sys.executable, *flags, "-m", "tiergae.cli", "ingest",
                               str(sdf_paths[4]), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        runs.append((done.returncode, done.stderr, out.read_bytes()))
    assert runs[1] == runs[0]
    assert runs[0][:2] == (0, f"ingest: chain4: {OOV}\ningest: chain4: 13 atoms, 3 groups\n")


# ---------------------------------------------------------------- one process


def test_nothing_forks_below_the_floor(tmp_path, monkeypatch, capsys, sdf_paths):
    size = cli._input_bytes(sdf_paths)
    use_cpus(monkeypatch, 4)
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(cli, "INGEST_BYTES_PER_PROCESS", size // 2 + 1)
    ingest(sdf_paths, tmp_path / "one.json", capsys)
    assert forks == []
    monkeypatch.setattr(cli, "INGEST_BYTES_PER_PROCESS", size // 2)
    ingest(sdf_paths, tmp_path / "two.json", capsys)
    assert len(forks) == 1
    assert_no_child_left()


def test_a_missing_path_counts_no_bytes(sdf_paths):
    assert cli._input_bytes([sdf_paths[3]]) == 0
    assert cli._input_bytes(sdf_paths) == sum(p.stat().st_size for p in sdf_paths
                                              if p.exists())


def test_one_cpu_ingests_in_one_process(tmp_path, monkeypatch, capsys, sdf_paths, low_floor):
    use_cpus(monkeypatch, 1)
    forks = count_forks(monkeypatch)
    assert ingest(sdf_paths, tmp_path / "corpus.json", capsys)["result"] is True
    assert forks == []


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_a_platform_without_fork_or_affinity_ingests_in_one_process(tmp_path, monkeypatch,
                                                                    capsys, sdf_paths,
                                                                    low_floor, missing):
    one = serial(monkeypatch, sdf_paths, tmp_path / "one.json", capsys)
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    monkeypatch.delattr(os, missing)
    assert ingest(sdf_paths, tmp_path / "split.json", capsys) == one
    assert forks == []


def test_a_second_thread_keeps_ingest_in_one_process(tmp_path, monkeypatch, capsys, sdf_paths,
                                                     low_floor):
    one = serial(monkeypatch, sdf_paths, tmp_path / "one.json", capsys)
    use_cpus(monkeypatch, 2)

    def no_fork():
        raise AssertionError("forked while another thread ran")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert ingest(sdf_paths, tmp_path / "split.json", capsys) == one
    finally:
        release.set()
        thread.join()


def test_a_failed_fork_leaves_its_share_to_the_caller(tmp_path, monkeypatch, capsys, sdf_paths,
                                                      low_floor):
    one = serial(monkeypatch, sdf_paths, tmp_path / "one.json", capsys)

    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    use_cpus(monkeypatch, 3)
    assert ingest(sdf_paths, tmp_path / "split.json", capsys) == one


# ---------------------------------------------------------------- failures


@pytest.mark.parametrize("cpus", [2, 3])
def test_files_that_fail_in_a_childs_share_are_skipped_as_in_one_process(tmp_path,
                                                                         monkeypatch, capsys,
                                                                         sdf_paths, low_floor,
                                                                         cpus):
    # #1 fails to parse and #3 is missing; at k = 2 and 3 a child reads both
    paths = sdf_paths[:4]
    one = serial(monkeypatch, paths, tmp_path / "one.json", capsys)
    use_cpus(monkeypatch, cpus)
    assert ingest(paths, tmp_path / "split.json", capsys) == one
    err = one["stderr"]
    assert f"ingest: {paths[1]}: record ends before the counts line" in err
    assert f"ingest: {paths[3]}: " in err
    # with nothing usable, the count of failed files is that of one process
    failing = [sdf_paths[1], sdf_paths[3], sdf_paths[1]]
    one = serial(monkeypatch, failing, tmp_path / "none.json", capsys)
    use_cpus(monkeypatch, cpus)
    assert ingest(failing, tmp_path / "none.json", capsys) == one
    assert one["result"] == (CliError, "no molecules ingested (3 file(s) failed)")
    assert_no_child_left()


def fail_on(monkeypatch, failing: dict) -> None:
    """Raise failing[name] when `partition_molecule` meets a molecule of that name."""

    def partition(mol):
        if mol.name in failing:
            raise failing[mol.name]
        return partition_molecule(mol)

    monkeypatch.setattr(cli, "partition_molecule", partition)


@pytest.mark.parametrize("cpus", [2, 3, 13])
def test_a_child_exception_is_raised_as_in_one_process(tmp_path, monkeypatch, capsys,
                                                       sdf_paths, low_floor, cpus):
    # chain8, the third record of #5, fails in a child at k = 2 and 3, and
    # chain12 (#6) after it in the caller's share at k = 2
    fail_on(monkeypatch, {"chain8": ValueError("bad chain8"), "chain12": KeyError("chain12")})
    one = serial(monkeypatch, sdf_paths, tmp_path / "one.json", capsys)
    use_cpus(monkeypatch, cpus)
    split = ingest(sdf_paths, tmp_path / "split.json", capsys)
    assert_no_child_left()
    assert split == one
    assert one["result"] == (ValueError, "bad chain8") and one["corpus"] is None
    # the lines before it, up to the first record of its file
    assert one["stderr"].splitlines()[-2:] == [
        "ingest: chain5: 16 atoms, 4 groups", f"ingest: {sdf_paths[5]}: skipping empty molecule"]


def test_an_unpicklable_child_exception_is_a_runtime_error(tmp_path, monkeypatch, capsys,
                                                           sdf_paths, low_floor):
    class LocalError(Exception):
        """Defined in a function, so pickle cannot find it by name."""

    use_cpus(monkeypatch, 2)  # #2 is the caller's, #5 a child's
    fail_on(monkeypatch, {"chain3": LocalError("local chain3")})
    with pytest.raises(LocalError):
        cmd_ingest(sdf_paths, tmp_path / "a.json")
    fail_on(monkeypatch, {"chain5": LocalError("local chain5")})
    with pytest.raises(RuntimeError, match="^LocalError: local chain5$"):
        cmd_ingest(sdf_paths, tmp_path / "b.json")
    assert_no_child_left()
    capsys.readouterr()


def test_a_killed_child_exits_2_and_writes_no_corpus(tmp_path, monkeypatch, capsys, sdf_paths,
                                                     low_floor):
    parent = os.getpid()

    def partition(mol):
        if mol.name == "chain5" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return partition_molecule(mol)

    monkeypatch.setattr(cli, "partition_molecule", partition)
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    out = tmp_path / "corpus.json"
    assert main(["ingest", *map(str, sdf_paths), "--out", str(out)]) == 2
    assert_no_child_left()
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "ingest: 1183: 19 atoms, 10 groups",
        f"tiergae ingest: worker process {forks[0]} for SDF files #1, #3, ... "
        f"killed by signal {int(signal.SIGKILL)}"]
    assert not out.exists()


def test_children_are_reaped_when_the_caller_stops(tmp_path, monkeypatch, sdf_paths,
                                                   low_floor):
    class Stop(BaseException):
        pass

    parent = os.getpid()
    real_parse = cli.parse_sdf

    def parse(data):
        if os.getpid() == parent:
            raise Stop
        return real_parse(data)

    monkeypatch.setattr(cli, "parse_sdf", parse)
    use_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    with pytest.raises(Stop):
        cmd_ingest(sdf_paths, tmp_path / "corpus.json")
    assert len(forks) == 2
    assert_no_child_left()


# ---------------------------------------------------------------- fuzz


def run_main(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(deadline=None, max_examples=40)
@given(files=st.lists(st.lists(_EDIT, min_size=1, max_size=5), min_size=2, max_size=5))
def test_forked_ingest_of_mutated_vanillin_matches_one_process(files):
    vanillin = VANILLIN_SDF.read_bytes()
    runs = {}
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        root = Path(tmp)
        for i, edits in enumerate(files):
            (root / f"{i}.sdf").write_bytes(mutated(vanillin, edits))
        mp.setattr(cli, "INGEST_BYTES_PER_PROCESS", 1)
        for cpus in (1, 3):
            use_cpus(mp, cpus)
            forks = count_forks(mp)
            out = root / f"corpus{cpus}.json"
            code, err = run_main(["ingest", str(root), "--out", str(out)])
            runs[cpus] = code, err, out.read_bytes() if out.exists() else None
            assert len(forks) == min(cpus, len(files)) - 1
        assert_no_child_left()
    assert runs[1][0] in (0, 2)
    assert runs[3] == runs[1]
