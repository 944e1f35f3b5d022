"""`train` shares each tier's stacks out over one process per CPU in the
affinity mask, forked while the tier trains; every process keeps the
caller's mask. The checkpoint and history must not depend on the number of
processes, a failure must be the one a run in one process raises, no child
may outlive the command, and the caller's affinity mask must be the same
afterwards.

The process count is set and the children counted with the helpers of
`forks.py`.
"""

import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from tiergae import tgae
from tiergae.autodiff import Tape
from tiergae.cli import cmd_ingest, cmd_train, main
from tiergae.errors import DomainError
from tiergae.sdf import write_sdf
from tiergae.tgae import STACK_CELLS, RunConfig, fit_tier, make_tier_models
from tiergae.tvgae import make_variational_tier_models

from conftest import VANILLIN_SDF
from forks import (REAL_GETAFFINITY, REAL_MASK, REFUSED, assert_no_child_left, count_forks,
                   use_cpus)
from oracles import assert_same_bits, mixed_size_samples
from test_blas_threads import chain_molecule

ROOT = Path(__file__).resolve().parents[1]
# Stacks pack small graphs under the budget of STACK_CELLS padded cells, so
# the chains of 65, 66 and 68 carbons (192-200 atoms, 65-68 groups, each
# graph over the budget alone) keep tiers 1 and 2 at four stacks: one packs
# vanillin (19 atoms, 10 groups) with the small chains, and each large chain
# is one. Tier 3 has one.
CHAINS = (5, 65, 2, 12, 68, 66)
TIER_STACKS = (4, 4, 1)
FLAVORS = ("tgae", "tvgae")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    """Vanillin and six hydroxylated carbon chains."""
    root = tmp_path_factory.mktemp("corpus")
    chains = root / "chains.sdf"
    chains.write_text(write_sdf([chain_molecule(n) for n in CHAINS]), encoding="utf-8")
    return cmd_ingest([VANILLIN_SDF, chains], root / "corpus.json")


def config(flavor: str) -> RunConfig:
    return RunConfig(model=flavor, epochs=3, hidden=6, d_z=3, seed=0)


def real_affinity() -> set[int]:
    return REAL_GETAFFINITY(0)


def assert_mask_restored() -> None:
    assert real_affinity() == REAL_MASK


def train(flavor: str, corpus: Path, out: Path) -> dict[str, bytes]:
    """The checkpoint and history bytes of one `cmd_train`."""
    checkpoint, history = cmd_train(config(flavor), corpus, out / "model.json")
    return {"checkpoint": checkpoint.read_bytes(), "history": history.read_bytes()}


def on_backward(monkeypatch, action) -> int:
    """Call `action(stack node count)` before each stack's backward pass;
    the caller's pid."""
    backward = Tape.backward

    def spy(tape, loss_node):
        action(tape.nodes[0].value.shape[1])
        return backward(tape, loss_node)

    monkeypatch.setattr(Tape, "backward", spy)
    return os.getpid()


def train_argv(corpus: Path, out: Path, flavor: str) -> list[str]:
    return ["train", str(corpus), "--model", flavor, "--epochs", "3", "--hidden", "6",
            "--d-z", "3", "--out", str(out / "model.json")]


@pytest.fixture(scope="module", params=FLAVORS)
def serial(request, corpus, tmp_path_factory) -> tuple[str, dict[str, bytes]]:
    """A flavor and the bytes it trains to in one process."""
    with pytest.MonkeyPatch.context() as mp:
        use_cpus(mp, 1)
        return request.param, train(request.param, corpus,
                                    tmp_path_factory.mktemp(f"serial-{request.param}"))


# ---------------------------------------------------------------- same bytes


def test_each_tier_but_the_top_has_stacks_to_share(tmp_path, monkeypatch, corpus):
    counts = []
    stack_samples = tgae.stack_samples

    def spy(samples):
        stacks = stack_samples(samples)
        counts.append(len(stacks))
        return stacks

    monkeypatch.setattr(tgae, "stack_samples", spy)
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    train("tgae", corpus, tmp_path)
    assert tuple(counts) == TIER_STACKS
    assert len(forks) == 2  # one child at tier 1, one at tier 2
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3, 9])  # 9: more CPUs than any tier has stacks
def test_bytes_do_not_depend_on_the_process_count(tmp_path, monkeypatch, corpus, serial,
                                                  cpus):
    flavor, expected = serial
    use_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    assert train(flavor, corpus, tmp_path) == expected
    assert len(forks) == sum(min(cpus, n) - 1 for n in TIER_STACKS)
    assert_no_child_left()
    assert_mask_restored()


def test_one_cpu_trains_in_one_process(tmp_path, monkeypatch, corpus, serial):
    flavor, expected = serial
    forks = count_forks(monkeypatch)
    use_cpus(monkeypatch, 1)
    assert train(flavor, corpus, tmp_path) == expected
    assert forks == []
    assert_no_child_left()


def test_a_tier_of_one_stack_does_not_fork(tmp_path, monkeypatch):
    corpus = cmd_ingest([VANILLIN_SDF], tmp_path / "vanillin.json")
    use_cpus(monkeypatch, 4)
    forks = count_forks(monkeypatch)
    train("tgae", corpus, tmp_path)
    assert forks == []
    assert_no_child_left()


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_a_platform_without_fork_or_affinity_trains_in_one_process(tmp_path, monkeypatch,
                                                                   corpus, serial, missing):
    flavor, expected = serial
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    monkeypatch.delattr(os, missing)
    assert train(flavor, corpus, tmp_path) == expected
    assert forks == []
    assert_no_child_left()


def test_a_second_thread_keeps_train_in_one_process(tmp_path, monkeypatch, corpus, serial):
    flavor, expected = serial
    use_cpus(monkeypatch, 2)

    def no_fork():
        raise AssertionError("forked while another thread ran")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert train(flavor, corpus, tmp_path) == expected
    finally:
        release.set()
        thread.join()
    assert_no_child_left()


def test_a_failed_fork_leaves_its_share_to_the_caller(tmp_path, monkeypatch, corpus, serial):
    flavor, expected = serial

    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    use_cpus(monkeypatch, 3)
    assert train(flavor, corpus, tmp_path) == expected
    assert_no_child_left()
    assert_mask_restored()


def test_a_mask_naming_refused_cpus_keeps_the_bytes_and_fork_count(tmp_path, monkeypatch,
                                                                   corpus, serial):
    flavor, expected = serial
    mask = REAL_MASK | {REFUSED, REFUSED + 1}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask)
    forks = count_forks(monkeypatch)
    assert train(flavor, corpus, tmp_path) == expected
    assert len(forks) == sum(min(len(mask), n) - 1 for n in TIER_STACKS)
    assert_no_child_left()
    assert_mask_restored()


# The two tests below keep the names they had when each process was pinned
# to one CPU of the mask; what they hold each process to now is the caller's
# own mask, unchanged for as long as the tier trains.
@pytest.mark.parametrize("refused", [0, 2])
def test_each_process_is_pinned_while_a_tier_trains(tmp_path, monkeypatch, corpus, refused):
    seen = tmp_path / "seen"
    seen.mkdir()

    def record(_n):
        with open(seen / str(os.getpid()), "a", encoding="utf-8") as fh:
            fh.write(repr(sorted(real_affinity())) + "\n")

    parent = on_backward(monkeypatch, record)
    cpus = use_cpus(monkeypatch, 2 + refused)
    forks = count_forks(monkeypatch)
    train("tgae", corpus, tmp_path)
    # tiers 1 and 2 fork a child per CPU but the first; every backward pass
    # of the caller and of each child sees the caller's mask
    masks = {int(p.name): set(p.read_text().splitlines()) for p in seen.iterdir()}
    assert len(forks) == 2 * (len(cpus) - 1) and set(masks) == {parent, *forks}
    assert all(m == {repr(sorted(REAL_MASK))} for m in masks.values())
    assert_no_child_left()
    assert_mask_restored()


def test_the_caller_is_pinned_while_a_tier_trains(monkeypatch):
    masks = []
    on_backward(monkeypatch, lambda _n: masks.append(real_affinity()))
    use_cpus(monkeypatch, 2)
    model = make_tier_models(4, RunConfig(hidden=5, d_z=3))[0]
    fit_tier(model, tgae.stack_samples(samples()), RunConfig(epochs=2))
    assert masks and all(m == REAL_MASK for m in masks)
    assert_no_child_left()
    assert_mask_restored()


# ---------------------------------------------------------------- failures


def test_a_killed_child_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, corpus):
    def kill_child(_n):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    parent = on_backward(monkeypatch, kill_child)
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    assert main(train_argv(corpus, tmp_path, "tgae")) == 2
    assert len(forks) == 1
    assert_no_child_left()
    assert_mask_restored()
    err = capsys.readouterr().err
    assert (f"tiergae train: worker process {forks[0]} for tier 1 stacks #1, #3 "
            f"killed by signal {int(signal.SIGKILL)}") in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# graphs of BIG + 1, 3, 4 and 5 nodes: each over the budget alone, so a
# tier of them has a stack per node count
BIG = 90


def samples(nan_size: int = 0):
    """A tier-1 corpus in stacks of BIG + 1, 3, 4 and 5 nodes, with a NaN
    feature in a graph of BIG + `nan_size` nodes if there is one."""
    sizes = tuple(BIG + n for n in (3, 5, 1, 3, 4, 5, 3))
    assert min(sizes) ** 2 > STACK_CELLS
    samples = mixed_size_samples(np.random.default_rng(0), sizes, 4)
    for s in samples:
        if s.x.shape[0] == BIG + nan_size:
            s.x[0, 1] = np.nan
            break
    return samples


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("size", [3, 4])  # at two CPUs, stack 1 is the child's, 2 the caller's
def test_a_non_finite_loss_in_any_share_is_the_one_process_error(monkeypatch, flavor, cpus,
                                                                 size):
    make = make_tier_models if flavor == "tgae" else make_variational_tier_models
    model = make(4, RunConfig(hidden=5, d_z=3, seed=1))[0]
    initial = [p.value.copy() for p in model.params()]
    noise = None if flavor == "tgae" else np.random.default_rng(2)
    use_cpus(monkeypatch, cpus)
    with pytest.raises(DomainError, match=r"^tier 1: epoch 0 loss is nan$"):
        fit_tier(model, tgae.stack_samples(samples(size)), RunConfig(epochs=3), noise)
    for p, before in zip(model.params(), initial):
        assert_same_bits(p.value, before)
    assert_no_child_left()
    assert_mask_restored()


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_the_failure_raised_is_the_one_process_loops_first(monkeypatch, cpus):
    # the loop runs the stacks from the largest node count down, so the
    # failure at BIG + 4 nodes comes before the one at BIG + 3 in every share
    def fail(n):
        if n in (BIG + 3, BIG + 4):
            raise ValueError(f"stack of {n} nodes")

    on_backward(monkeypatch, fail)
    use_cpus(monkeypatch, cpus)
    model = make_tier_models(4, RunConfig(hidden=5, d_z=3))[0]
    with pytest.raises(ValueError, match="^stack of 94 nodes$"):
        fit_tier(model, tgae.stack_samples(samples()), RunConfig(epochs=2))
    assert_no_child_left()
    assert_mask_restored()


def test_children_are_reaped_when_the_caller_stops(monkeypatch, corpus, tmp_path):
    class Stop(BaseException):
        pass

    def stop(_n):
        if os.getpid() == parent:
            raise Stop

    parent = on_backward(monkeypatch, stop)
    use_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    with pytest.raises(Stop):
        train("tvgae", corpus, tmp_path)
    assert len(forks) == 2
    assert_no_child_left()
    assert_mask_restored()
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- affinity


def run_train(pinned: bool, corpus: Path, out: Path, flavor: str) -> dict[str, bytes]:
    """`tiergae train` in a fresh interpreter, under `taskset -c` to one CPU
    if `pinned`."""
    cmd = [sys.executable, "-m", "tiergae.cli", *train_argv(corpus, out, flavor)]
    if pinned:
        cmd = ["taskset", "-c", str(min(REAL_MASK)), *cmd]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return {name: (out / name).read_bytes() for name in ("model.json", "model_history.csv")}


@pytest.mark.skipif(len(REAL_MASK) < 2 or shutil.which("taskset") is None,
                    reason="needs two CPUs and taskset")
@pytest.mark.parametrize("flavor", FLAVORS)
def test_cli_bytes_do_not_depend_on_the_affinity_mask(tmp_path, corpus, flavor):
    one = run_train(True, corpus, tmp_path / "one", flavor)
    every = run_train(False, corpus, tmp_path / "every", flavor)
    assert one == every
