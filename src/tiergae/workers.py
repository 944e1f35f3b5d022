"""Forked worker processes, one per CPU in the affinity mask.

Three commands split work whose result does not depend on how it is split:
`cli.cmd_ingest` shares out its SDF files, `cli.cmd_embed` its molecules
and `tgae.fit_tier` (under `cli.cmd_train`) each tier's stacks. The caller
keeps one share and forks a child for each other share. A child leaves
through `os._exit` in a `finally`, so it never returns into the caller's
stack or runs atexit handlers. The rules live here, once: when not to fork
(`worker_count`), how a child's results and first failure travel back
(`fork_share` writes them pickled, `reap` reads them), what a child that
ended without a report becomes (`WorkerError`), and how units are shared
out by stride (`run_strides`, which ingest and embed use).
`StackWorkers` runs the epochs of one training tier over such children,
which stay up for the whole tier and pin themselves one per CPU.

Plain `os` and `pickle`, not `multiprocessing`: a `multiprocessing`
prototype of `embed` raised peak RSS by 1.6-2.4%, and `os`, `pickle` and
`threading` are loaded by `import tiergae` anyway.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .autodiff import Param, zero_grads
from .errors import WorkerError

# (rank, exception) of a share's first failure; the caller raises the
# failure that a run in one process would have met first
Failure = tuple[int, Exception]
# what a share's run gives back: its results (a list, or None if it sends
# none back) and its first failure, or None
Report = tuple[Optional[list], Optional[Failure]]

# how long `receive` polls before it blocks: a CPU that idles in a blocking
# read can take milliseconds to wake on a virtual machine, longer than most
# of a training epoch's waits. On 2 vCPUs, drugs-tgae's training schedule
# took 0.390 s blocking at once, 0.370 s polling 2 ms and 0.349 s polling
# 10 ms (medians of 15 in-process runs).
SPIN_S = 0.01


def worker_count(n: int) -> int:
    """Processes that share `n` units of work: one per CPU in this
    process's affinity mask, at most one per unit. It is 1 where `os.fork`
    or `os.sched_getaffinity` is missing, and while another thread runs,
    since a fork copies the locks that thread may hold."""
    if (not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity"))
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), n)


def pickled_report(report: Report) -> bytes:
    """`report` pickled; an exception that does not survive the round trip
    is sent as a RuntimeError holding its text."""
    results, failure = report
    try:
        pickle.loads(pickle.dumps(failure))
    except Exception:
        rank, exc = failure
        failure = rank, RuntimeError(f"{type(exc).__name__}: {exc}")
    return pickle.dumps((results, failure))


def fork_share(run_share: Callable[..., Report], share) -> Optional[tuple[int, int]]:
    """Fork a child that runs `run_share(share)`, writes the report it
    returns, pickled, to a pipe, and leaves with `os._exit`, never returning
    to the caller. (pid, read end of the pipe), or None if no child could be
    started."""
    try:
        rfd, wfd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            payload = pickled_report(run_share(share))
            with open(wfd, "wb") as fh:
                fh.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    return pid, rfd


def reap(pid: int, rfd: int, what: str, rank: int) -> Report:
    """The report of a child of `fork_share`, once it has ended. A child
    that did not end with status 0, so did not finish its report (a signal,
    OOM), gives no results and a WorkerError naming `what` it was running,
    ranked at `rank`. The pipe is read first, so a child never blocks on a
    full pipe."""
    try:
        with open(rfd, "rb") as fh:
            payload = fh.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0:
        return pickle.loads(payload)
    how = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
    return None, (rank, WorkerError(f"worker process {pid} for {what} {how}"))


def run_strides(run_share: Callable[..., Report], n: int, k: int,
                label: str) -> Report:
    """Units 0 .. n-1 shared by stride over k processes: this one runs
    units 0, k, 2k, ... and a forked child each other stride, or this one
    if the child could not start. `run_share(share)` runs the units of
    `share` in order and returns their report. The results of every share,
    in no set order, and the failure of the lowest rank; a child that ended
    without a report is a WorkerError naming its `label`ed units, ranked at
    its first unit. Every child is reaped before this returns or raises."""
    own = list(range(0, n, k))
    children = []  # (pid, read end of its pipe, first unit of its share)
    reports = []
    try:
        for start in range(1, k):
            share = range(start, n, k)
            child = fork_share(run_share, share)
            if child is None:  # this process takes the share
                own.extend(share)
            else:
                children.append((*child, start))
        reports.append(run_share(sorted(own)))
    finally:
        reports += [reap(pid, rfd, f"{label} #{start}, #{start + k}, ...", start)
                    for pid, rfd, start in children]
    failures = [failure for _, failure in reports if failure is not None]
    return ([r for results, _ in reports for r in results or ()],
            min(failures, key=lambda f: f[0], default=None))


def pin(cpu: int) -> bool:
    """Move this process to `cpu` alone; False, with the mask unchanged, if
    the kernel refuses that CPU."""
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return False
    return True


def send(fd: int, buf) -> None:
    """Write all of `buf` (a contiguous array or bytes) to `fd`."""
    view = memoryview(buf).cast("B")
    while view:
        view = view[os.write(fd, view):]


def receive(fd: int, buf) -> bool:
    """Fill `buf` (a contiguous array) from `fd`, a non-blocking read end;
    False if the pipe ends before it is full. It polls for up to SPIN_S
    before it blocks."""
    view = memoryview(buf).cast("B")
    deadline = None
    while view:
        try:
            got = os.readv(fd, [view])
        except BlockingIOError:
            if deadline is None:
                deadline = time.perf_counter() + SPIN_S
            if time.perf_counter() < deadline:
                continue
            os.set_blocking(fd, True)
            try:
                got = os.readv(fd, [view])
            finally:
                os.set_blocking(fd, False)
        if not got:
            return False
        view = view[got:]
    return True


@dataclass
class _Child:
    """A forked child of `StackWorkers`, as its caller sees it."""

    pid: int
    report: int          # read end of the pipe of its failure report
    down: int            # write end of the pipe of parameter values
    up: int              # read end of the pipe of its replies
    share: list[int]     # its stacks, in the order it runs them
    rows: np.ndarray     # its reply: one row per stack, the loss then the gradient
    what: str            # what it runs, for a WorkerError


class StackWorkers:
    """The epochs of one tier of `tgae.fit_tier`, with its stacks shared
    out over one process per CPU in the affinity mask (`worker_count`).
    `run_stack(s, eps)` runs forward and backward of stack s, adding its
    gradient into each Param.grad, and returns its loss; `draw()` gives
    an epoch's noise (or None).

    With one process, `epoch` is the plain loop: stacks in reverse, every
    gradient added into Param.grad. With k, the caller runs stacks 0, k,
    2k, ..., and k - 1 forked children run the other strides; they keep
    their stacks through the fork, and each epoch goes: the caller sends
    the parameter values down a pipe to each child; every process runs
    each stack of its share on zeroed grads and keeps its loss and its
    gradient; the children send theirs back; the caller adds the
    gradients into zeroed grads in reverse stack order. Each stack's
    gradient is 0.0 + g, and a sum that starts at +0.0 is never -0.0, so
    every Param.grad gets the bits of the one-process loop. This holds
    because each Param is one leaf of a stack's tape, so a stack adds into
    its grad once. A child with a noise generator draws each epoch's
    normals from its forked copy, in step with the caller's.

    While the tier trains, the caller and each child run on a CPU of the
    mask of their own, since unpinned, each epoch's pipe write woke the
    child on the writer's CPU and the split ran slower than one process; a
    CPU the kernel refuses leaves that process unpinned. On leaving, every child is reaped and the caller's mask is
    restored. A failure in any share is raised as the one-process loop
    would meet it first, at the highest stack index; a child that ends
    without a report is a WorkerError.
    """

    def __init__(self, count: int, params: Sequence[Param], run_stack: Callable,
                 draw: Callable, label: str):
        self.count, self.params, self.run_stack, self.draw = count, params, run_stack, draw
        self.label = label  # names the tier in a WorkerError
        self.slices, offset = [], 0
        for p in self.params:
            self.slices.append(slice(offset, offset + p.value.size))
            offset += p.value.size
        self.values = np.empty(offset)
        self.children: list[_Child] = []
        self.mask = None  # the caller's affinity mask while it is pinned

    def _reply_rows(self, share: list[int]) -> np.ndarray:
        return np.empty((len(share), 1 + self.values.size))

    def _rank(self, s: int) -> int:
        """Place of stack s in the one-process loop, which runs the last first."""
        return self.count - 1 - s

    # the caller ------------------------------------------------------------

    def __enter__(self) -> StackWorkers:
        k = worker_count(self.count)
        if k == 1:
            return self
        mask = os.sched_getaffinity(0)
        cpus = sorted(mask)
        # by stride, so the split follows the stack count and nothing else;
        # each share in the reverse order that a one-process epoch walks
        shares = [list(range(i, self.count, k))[::-1] for i in range(k)]
        own = shares[0]
        try:
            for cpu, share in zip(cpus[1:], shares[1:]):
                child = self._fork(cpu, share)
                if child is None:  # this process takes the share
                    own = sorted(own + share, reverse=True)
                else:
                    self.children.append(child)
            if pin(cpus[0]):
                self.mask = mask
        except BaseException:
            self.close()
            raise
        self.own, self.own_rows = own, self._reply_rows(own)
        self.total = np.empty_like(self.values)
        # the reply row of each stack: its loss, then its gradient
        self.rows = [None] * self.count
        for share, rows in [(own, self.own_rows),
                            *((c.share, c.rows) for c in self.children)]:
            for s, row in zip(share, rows):
                self.rows[s] = row
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> list[Failure]:
        """Let every child end and reap it, and restore the caller's mask;
        the failures the children reported."""
        children, self.children = self.children, []
        failures = []
        try:
            for child in children:  # a child ends at the end of its down pipe
                os.close(child.down)
                os.close(child.up)
        finally:
            for child in children:
                failures.append(reap(child.pid, child.report, child.what,
                                     self._rank(child.share[0]))[1])
            if self.mask is not None:
                os.sched_setaffinity(0, self.mask)
                self.mask = None
        return [f for f in failures if f is not None]

    def epoch(self) -> list[float]:
        """Run every stack once on the current parameters; leave the epoch's
        gradient in Param.grad and return the stack losses."""
        if not self.children:
            zero_grads(self.params)
            eps = self.draw()
            losses = [0.0] * self.count
            for k in reversed(range(self.count)):
                losses[k] = self.run_stack(k, eps)
            return losses
        np.concatenate([p.value.ravel() for p in self.params], out=self.values)
        for child in self.children:
            send(child.down, self.values)
        failure = self._run_share(self.own, self.own_rows, self.draw())
        # every reply is read, so no child is left blocked on its pipe
        ended = [not receive(child.up, child.rows) for child in self.children]
        if failure is not None or any(ended):
            failures = self.close()
            if failure is not None:
                failures.append(failure)
            raise min(failures, key=lambda f: f[0])[1]
        total = self.total
        total[...] = 0.0
        for row in reversed(self.rows):
            total += row[1:]
        for p, sl in zip(self.params, self.slices):
            p.grad[...] = total[sl].reshape(p.grad.shape)
        return [float(row[0]) for row in self.rows]

    def _run_share(self, share: list[int], rows: np.ndarray,
                   eps: Optional[np.ndarray]) -> Optional[Failure]:
        """Each stack of `share` on zeroed grads, its loss and gradient into
        its row of `rows`; the failure of the first that raises, or None."""
        for s, row in zip(share, rows):
            try:
                zero_grads(self.params)
                row[0] = self.run_stack(s, eps)
                np.concatenate([p.grad.ravel() for p in self.params], out=row[1:])
            except Exception as exc:
                return self._rank(s), exc
        return None

    # a child -----------------------------------------------------------------

    def _fork(self, cpu: int, share: list[int]) -> Optional[_Child]:
        """Start the child that runs `share` on `cpu`, or None if it could
        not start."""
        try:
            down = os.pipe()
        except OSError:
            return None
        try:
            up = os.pipe()
        except OSError:
            os.close(down[0])
            os.close(down[1])
            return None
        for fd in (down[0], up[0]):  # the ends that `receive` polls
            os.set_blocking(fd, False)
        # the caller's ends of every pipe, which the child closes, so that
        # each child sees its down pipe end when the caller closes it
        inherited = [down[1], up[0]]
        for child in self.children:
            inherited += [child.down, child.up, child.report]

        def serve(share: list[int]) -> Report:
            for fd in inherited:
                os.close(fd)
            pin(cpu)
            rows = self._reply_rows(share)
            while receive(down[0], self.values):
                for p, sl in zip(self.params, self.slices):
                    p.value[...] = self.values[sl].reshape(p.value.shape)
                failure = self._run_share(share, rows, self.draw())
                if failure is not None:
                    return None, failure
                send(up[1], rows)
            return None, None

        started = fork_share(serve, share)
        os.close(down[0])
        os.close(up[1])
        if started is None:
            os.close(down[1])
            os.close(up[0])
            return None
        what = f"{self.label} stacks " + ", ".join(f"#{s}" for s in sorted(share))
        return _Child(*started, down[1], up[0], share, self._reply_rows(share), what)
