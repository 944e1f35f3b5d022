"""Forked worker processes, one per CPU in the affinity mask.

Three commands split work whose result does not depend on how it is split:
`cli.cmd_ingest` shares out its SDF files, `cli.cmd_embed` its molecules
and `tgae.fit_tier` (under `cli.cmd_train`) each tier's stacks. The rules
live here, once: when not to fork (`worker_count`), how units are shared
out by stride (`start_strides`), how a child's results and first failure
travel back (`fork_share` writes them pickled, `reap` reads them) and what
a child that ended without a report becomes (`WorkerError`). `run_strides`
(ingest, embed) runs each share once; `StackWorkers` keeps its children up
for a training tier and sends them the tier's `Adam` vectors as they are.

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
from typing import Callable, Optional

import numpy as np

from .autodiff import Adam
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
    returns, pickled, to a pipe, and leaves with `os._exit` in a `finally`,
    so it never returns into the caller's stack or runs atexit handlers.
    (pid, read end of the pipe), or None if no child could be started."""
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


def start_strides(fork: Callable[[list[int]], Optional[object]], n: int, k: int,
                  children: list) -> list[int]:
    """Units 0 .. n-1 shared by stride over k processes. Share i, units i,
    i + k, ..., goes to a child that `fork(share)` starts, and its record
    is appended to `children` at once, so the caller can reap it whatever
    happens next; this process keeps share 0 and each share whose `fork`
    returned None. This process's units, ascending, as every share is."""
    own = list(range(0, n, k))
    for i in range(1, k):
        share = list(range(i, n, k))
        child = fork(share)
        if child is None:
            own += share
        else:
            children.append(child)
    return sorted(own)


def run_strides(run_share: Callable[..., Report], n: int, k: int,
                label: str) -> Report:
    """Units 0 .. n-1 shared by stride over k processes (`start_strides`),
    each child forked by `fork_share`; `run_share(share)` runs the units of
    `share` in order and returns their report. The results of every share,
    in no set order, and the failure of the lowest rank; a child that ended
    without a report is a WorkerError naming its `label`ed units, ranked at
    its first unit. Every child is reaped before this returns or raises."""

    def fork(share: list[int]) -> Optional[tuple[int, int, int]]:
        child = fork_share(run_share, share)
        return None if child is None else (*child, share[0])

    children = []  # (pid, read end of its pipe, first unit of its share)
    reports = []
    try:
        reports.append(run_share(start_strides(fork, n, k, children)))
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
    share: list[int]     # its stacks, ascending
    rows: np.ndarray     # its reply: one row per stack, the loss then the gradient


class StackWorkers:
    """The epochs of one tier of `tgae.fit_tier`, its stacks shared out by
    stride (`start_strides`) over one process per CPU in the affinity mask
    (`worker_count`). `opt` is the tier's `Adam`; `run_stack(s, eps)` runs
    stack s forward and backward, adding its gradient into `opt.grad`, and
    returns its loss; `draw()` gives an epoch's noise (or None).

    An epoch: the caller writes `opt.value` to each child, which reads it
    straight into its parameters; every process runs its stacks, highest
    first, each on a zeroed `opt.grad` that it copies into the stack's
    reply row after the loss; the children send their rows back, and the
    caller adds all rows into a zeroed `opt.grad` in reverse stack order.
    One process runs the same code with no children. A stack adds into each
    Param.grad once, so its row holds 0.0 + g, and a sum from +0.0 is never
    -0.0: `opt.grad` gets the bits of adding every stack straight into it.
    A child keeps its stacks, and its copy of the noise generator, from the
    fork, so it draws each epoch's normals in step with the caller.

    While the tier trains, each process is pinned to a CPU of the mask of
    its own (unpinned, the pipe writes woke each child on the writer's CPU
    and the split ran slower than one process); a CPU the kernel refuses
    leaves its process unpinned. On leaving, every child is reaped and the
    caller's mask restored. A failure is raised as the one-process loop
    would meet it first, at the highest stack index; a child that ends
    without a report is a WorkerError.
    """

    def __init__(self, count: int, opt: Adam, run_stack: Callable, draw: Callable,
                 label: str):
        self.count, self.opt, self.run_stack, self.draw = count, opt, run_stack, draw
        self.label = label  # names the tier in a WorkerError
        self.children: list[_Child] = []
        self.mask = None  # the caller's affinity mask while it is pinned

    def _reply_rows(self, n: int) -> np.ndarray:
        return np.empty((n, 1 + self.opt.value.size))

    def _rank(self, s: int) -> int:
        """Place of stack s in the one-process loop, which runs the last first."""
        return self.count - 1 - s

    # the caller ------------------------------------------------------------

    def __enter__(self) -> StackWorkers:
        try:
            self.own = start_strides(self._fork, self.count, worker_count(self.count),
                                     self.children)
            if self.children:
                mask = os.sched_getaffinity(0)
                if pin(min(mask)):
                    self.mask = mask
        except BaseException:
            self.close()
            raise
        self.rows = self._reply_rows(self.count)  # every stack's reply row
        self.own_rows = [self.rows[s] for s in self.own]
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
                what = f"{self.label} stacks " + ", ".join(f"#{s}" for s in child.share)
                failures.append(reap(child.pid, child.report, what,
                                     self._rank(child.share[-1]))[1])
            if self.mask is not None:
                os.sched_setaffinity(0, self.mask)
                self.mask = None
        return [f for f in failures if f is not None]

    def epoch(self) -> list[float]:
        """Run every stack once on the current parameters; leave the epoch's
        gradient in `opt.grad` and return the stack losses."""
        for child in self.children:
            send(child.down, self.opt.value)
        failure = self._run_share(self.own, self.own_rows, self.draw())
        # every reply is read, so no child is left blocked on its pipe
        ended = [not receive(child.up, child.rows) for child in self.children]
        if failure is not None or any(ended):
            failures = self.close() + ([failure] if failure else [])
            raise min(failures, key=lambda f: f[0])[1]
        for child in self.children:
            self.rows[child.share] = child.rows
        grad = self.opt.grad
        grad[...] = 0.0
        for row in self.rows[::-1]:
            grad += row[1:]
        return self.rows[:, 0].tolist()

    def _run_share(self, share: list[int], rows,
                   eps: Optional[np.ndarray]) -> Optional[Failure]:
        """Each stack of `share`, highest index first, on a zeroed
        `opt.grad`, its loss and gradient into its row of `rows`; the
        failure of the first that raises, or None."""
        for j in reversed(range(len(share))):
            try:
                self.opt.zero_grads()
                rows[j][0] = self.run_stack(share[j], eps)
                rows[j][1:] = self.opt.grad
            except Exception as exc:
                return self._rank(share[j]), exc
        return None

    # a child -----------------------------------------------------------------

    def _fork(self, share: list[int]) -> Optional[_Child]:
        """Start the child that runs `share` on the CPU of the mask that its
        first stack indexes, or None if it could not start."""
        cpu = sorted(os.sched_getaffinity(0))[share[0]]
        down = up = ()
        try:
            down = os.pipe()
            up = os.pipe()
        except OSError:
            for fd in down + up:
                os.close(fd)
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
            rows = self._reply_rows(len(share))
            while receive(down[0], self.opt.value):
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
        return _Child(*started, down[1], up[0], share, self._reply_rows(len(share)))
