"""`embed` splits the molecules by stride over one process per CPU in the
affinity mask, forked after every check, and each process encodes its share
in padded stacks. The exports must not depend on the number of processes or
on the stack budget, a failure must be the one a serial run raises, and no
child may outlive the command.

The process count is set and the children counted with the helpers of
`forks.py`.
"""

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from tiergae import cli, tgae
from tiergae.cli import cmd_embed, cmd_ingest, cmd_train, load_corpus, main
from tiergae.errors import CliError, DomainError
from tiergae.sdf import write_sdf
from tiergae.tgae import RunConfig

from conftest import VANILLIN_SDF
from forks import assert_no_child_left, count_forks, use_cpus
from test_blas_threads import chain_molecule

ROOT = Path(__file__).resolve().parents[1]
CHAINS = (3, 5, 8, 2, 12)
N_MOLECULES = 1 + len(CHAINS)
# a stack per node count, stacks of a few small graphs, and the default
BUDGETS = (0, 200, tgae.STACK_CELLS)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    """Vanillin and five hydroxylated carbon chains of 3 to 12 carbons."""
    root = tmp_path_factory.mktemp("corpus")
    chains = root / "chains.sdf"
    chains.write_text(write_sdf([chain_molecule(n) for n in CHAINS]), encoding="utf-8")
    return cmd_ingest([VANILLIN_SDF, chains], root / "corpus.json")


@pytest.fixture(scope="module", params=["tgae", "tvgae"])
def checkpoint(request, corpus, tmp_path_factory) -> Path:
    cfg = RunConfig(model=request.param, epochs=2, hidden=6, d_z=3, seed=0)
    return cmd_train(cfg, corpus, tmp_path_factory.mktemp("model") / "model.json")[0]


@pytest.fixture(scope="module")
def export_names(corpus) -> list[str]:
    return [cli._export_filename(entry, i) for i, entry in enumerate(load_corpus(corpus))]


def embed_argv(checkpoint: Path, corpus: Path, out: Path) -> list[str]:
    return ["embed", str(corpus), "--checkpoint", str(checkpoint), "--out", str(out)]


def patch_export(monkeypatch, action) -> None:
    """Call `action(molecule id)` in the per-molecule step of `embed`, after
    the stacked pass, as each molecule's export document is built."""
    real_export_doc = cli._export_doc

    def export_doc(entry, rep, kind):
        action(entry["id"])
        return real_export_doc(entry, rep, kind)

    monkeypatch.setattr(cli, "_export_doc", export_doc)


# ---------------------------------------------------------------- same bytes


@pytest.mark.parametrize("cpus", [1, 2, 3, N_MOLECULES + 4])
def test_exports_do_not_depend_on_the_process_count(tmp_path, monkeypatch, corpus,
                                                    checkpoint, export_names, cpus):
    # one process at a stack per node count: no graph is padded
    monkeypatch.setattr(tgae, "STACK_CELLS", 0)
    use_cpus(monkeypatch, 1)
    serial = cmd_embed(checkpoint, corpus, tmp_path / "serial")
    for budget in BUDGETS:
        monkeypatch.setattr(tgae, "STACK_CELLS", budget)
        use_cpus(monkeypatch, cpus)
        forks = count_forks(monkeypatch)
        out = tmp_path / f"split-{budget}"
        paths = cmd_embed(checkpoint, corpus, out)
        assert len(forks) == min(cpus, N_MOLECULES) - 1
        assert_no_child_left()
        assert [p.name for p in serial] == [p.name for p in paths] == export_names
        assert sorted(p.name for p in out.iterdir()) == sorted(export_names)
        for one, split in zip(serial, paths):
            assert one.read_bytes() == split.read_bytes(), (budget, split.name)


def test_one_molecule_does_not_fork(tmp_path, monkeypatch, checkpoint):
    corpus = cmd_ingest([VANILLIN_SDF], tmp_path / "vanillin.json")
    use_cpus(monkeypatch, 4)
    forks = count_forks(monkeypatch)
    assert [p.name for p in cmd_embed(checkpoint, corpus, tmp_path / "export")] == ["1183.json"]
    assert forks == []


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_a_platform_without_fork_or_affinity_embeds_in_one_process(tmp_path, monkeypatch,
                                                                   corpus, checkpoint,
                                                                   export_names, missing):
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    monkeypatch.delattr(os, missing)
    assert [p.name for p in cmd_embed(checkpoint, corpus, tmp_path / "export")] == export_names
    assert forks == []


def test_a_second_thread_keeps_embed_in_one_process(tmp_path, monkeypatch, corpus,
                                                    checkpoint, export_names):
    use_cpus(monkeypatch, 2)

    def no_fork():
        raise AssertionError("forked while another thread ran")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        paths = cmd_embed(checkpoint, corpus, tmp_path / "export")
    finally:
        release.set()
        thread.join()
    assert [p.name for p in paths] == export_names


# ---------------------------------------------------------------- failures


def test_a_failing_child_exits_2_and_names_its_path(tmp_path, monkeypatch, capsys, corpus,
                                                    checkpoint, export_names):
    out = tmp_path / "export"
    blocked = out / export_names[1]  # molecule #1 is the child's at k = 2
    blocked.mkdir(parents=True)
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    assert main(embed_argv(checkpoint, corpus, out)) == 2
    assert len(forks) == 1
    assert_no_child_left()
    err = capsys.readouterr().err
    assert f"tiergae embed: cannot write {blocked}: " in err
    assert "Traceback" not in err
    # a process stops at its first failure; the caller's share, 0, 2, 4, is written
    assert sorted(p.name for p in out.glob("*.json") if p.is_file()) == sorted(
        export_names[0::2])


@pytest.mark.parametrize("cpus", [1, 2, 3, N_MOLECULES + 4])
def test_the_lowest_failing_molecule_is_named(tmp_path, monkeypatch, capsys, corpus,
                                              checkpoint, export_names, cpus):
    out = tmp_path / "export"
    for name in export_names[1:3]:
        (out / name).mkdir(parents=True)
    use_cpus(monkeypatch, cpus)
    assert main(embed_argv(checkpoint, corpus, out)) == 2
    assert_no_child_left()
    err = capsys.readouterr().err
    assert f"cannot write {out / export_names[1]}: " in err
    assert export_names[2] not in err


def test_a_killed_child_exits_2_without_a_traceback(tmp_path, monkeypatch, capsys, corpus,
                                                    checkpoint, export_names):
    ids = [entry["id"] for entry in load_corpus(corpus)]
    parent = os.getpid()

    def kill_child(mol_id):
        if mol_id == ids[3] and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    patch_export(monkeypatch, kill_child)
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    out = tmp_path / "export"
    assert main(embed_argv(checkpoint, corpus, out)) == 2
    assert_no_child_left()
    err = capsys.readouterr().err
    assert (f"tiergae embed: worker process {forks[0]} for molecules #1, #3, ... "
            f"killed by signal {int(signal.SIGKILL)}") in err
    assert "Traceback" not in err
    assert (out / export_names[1]).is_file() and not (out / export_names[3]).exists()


def test_a_child_exception_is_raised_in_the_caller(tmp_path, monkeypatch, corpus, checkpoint):
    ids = [entry["id"] for entry in load_corpus(corpus)]

    class LocalError(Exception):
        """Defined in a function, so pickle cannot find it by name."""

    failing = {ids[1]: ValueError(f"bad molecule {ids[1]}"),
               ids[3]: LocalError(f"local {ids[3]}")}

    def fail(mol_id):
        if mol_id in failing:
            raise failing[mol_id]

    patch_export(monkeypatch, fail)
    use_cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match=f"^bad molecule {ids[1]}$"):
        cmd_embed(checkpoint, corpus, tmp_path / "a")
    assert_no_child_left()
    del failing[ids[1]]
    use_cpus(monkeypatch, 4)  # molecule #3 leads a child's share
    with pytest.raises(RuntimeError, match=f"^LocalError: local {ids[3]}$"):
        cmd_embed(checkpoint, corpus, tmp_path / "b")
    assert_no_child_left()


def test_a_stacked_pass_failure_counts_at_its_shares_first_molecule(tmp_path, monkeypatch,
                                                                    capsys, corpus, checkpoint,
                                                                    export_names):
    name = {"tgae": "encode_tiered", "tvgae": "encode_tiered_variational"}[
        json.loads(checkpoint.read_text())["model"]]
    real_encode = getattr(cli, name)
    parent = os.getpid()

    def encode(graphs, memberships, models):
        if os.getpid() != parent:
            raise DomainError(f"stacked pass of {len(graphs)} molecules")
        return real_encode(graphs, memberships, models)

    monkeypatch.setattr(cli, name, encode)
    out = tmp_path / "export"
    (out / export_names[2]).mkdir(parents=True)  # the caller's share fails at #2
    use_cpus(monkeypatch, 2)
    assert main(embed_argv(checkpoint, corpus, out)) == 2
    assert_no_child_left()
    err = capsys.readouterr().err
    # the child's share, #1, #3, #5, fails as its first molecule, #1, would
    assert f"tiergae embed: stacked pass of {N_MOLECULES // 2} molecules" in err
    assert "cannot write" not in err
    assert sorted(p.name for p in out.glob("*.json") if p.is_file()) == [export_names[0]]


def test_children_are_reaped_when_the_caller_stops(tmp_path, monkeypatch, corpus, checkpoint):
    class Stop(BaseException):
        pass

    parent = os.getpid()

    def stop(mol_id):
        if os.getpid() == parent:
            raise Stop

    patch_export(monkeypatch, stop)
    use_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    with pytest.raises(Stop):
        cmd_embed(checkpoint, corpus, tmp_path / "export")
    assert len(forks) == 2
    assert_no_child_left()


def test_a_failed_fork_leaves_its_share_to_the_caller(tmp_path, monkeypatch, corpus,
                                                      checkpoint, export_names):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    use_cpus(monkeypatch, 3)
    paths = cmd_embed(checkpoint, corpus, tmp_path / "export")
    assert [p.name for p in paths] == export_names
    assert all(p.is_file() for p in paths)


def test_checks_come_before_any_fork(tmp_path, monkeypatch, corpus, checkpoint):
    use_cpus(monkeypatch, 4)
    forks = count_forks(monkeypatch)
    (tmp_path / "file").write_text("")
    with pytest.raises(CliError, match="cannot write"):
        cmd_embed(checkpoint, corpus, tmp_path / "file")
    assert forks == []


# ---------------------------------------------------------------- affinity


def run_embed(affinity, checkpoint: Path, corpus: Path, out: Path) -> None:
    """`python -m tiergae.cli embed` in a fresh interpreter; with `affinity`,
    the interpreter first pins itself to those CPUs."""
    argv = embed_argv(checkpoint, corpus, out)
    if affinity is None:
        cmd = [sys.executable, "-m", "tiergae.cli", *argv]
    else:
        code = (f"import os, runpy; os.sched_setaffinity(0, {set(affinity)!r}); "
                "runpy.run_module('tiergae.cli', run_name='__main__')")
        cmd = [sys.executable, "-c", code, *argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_cli_exports_do_not_depend_on_the_affinity_mask(tmp_path, corpus, checkpoint,
                                                        export_names):
    run_embed({min(os.sched_getaffinity(0))}, checkpoint, corpus, tmp_path / "one")
    run_embed(None, checkpoint, corpus, tmp_path / "all")
    for name in export_names:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()
    assert len(list((tmp_path / "all").iterdir())) == N_MOLECULES
