"""Forked worker processes, one per CPU in the affinity mask.

Three commands split work whose result does not depend on how it is split:
`cli.cmd_ingest` shares out its SDF files, `cli.cmd_embed` its molecules
and `tgae.fit_tier` (under `cli.cmd_train`) each tier's stacks. The rules
live here, once: when not to fork (`worker_count`), how units are shared
out by stride (`start_strides`), and how the shares run (`Workers`). The
children are forked once and then run rounds: in each, the caller writes
one pickled message to every child, runs its own share, and reads every
child's pickled `Report`; a child serves rounds until the caller closes its
pipe, and one that ends without a report becomes a `WorkerError`.
`run_strides` (ingest, embed) runs one round; `fit_tier` one per epoch.

Plain `os` and `pickle`, not `multiprocessing`: a `multiprocessing`
prototype of `embed` raised peak RSS by 1.6-2.4%, and `os`, `pickle` and
`threading` are loaded with numpy anyway.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

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
    return pickle.dumps((results, failure), pickle.HIGHEST_PROTOCOL)


def send(fd: int, payload: bytes) -> None:
    """Write `payload` to `fd`, after its length in 8 bytes."""
    view = memoryview(len(payload).to_bytes(8, "little") + payload)
    while view:
        view = view[os.write(fd, view):]


def _fill(fd: int, buf: bytearray) -> bool:
    """Fill `buf` from `fd`, a non-blocking read end; False if the pipe
    ends before it is full. It polls for up to SPIN_S before it blocks."""
    view = memoryview(buf)
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


def receive(fd: int) -> Optional[bytearray]:
    """The next payload that `send` wrote to the pipe whose non-blocking
    read end is `fd`, or None if the pipe ends first."""
    head = bytearray(8)
    if not _fill(fd, head):
        return None
    payload = bytearray(int.from_bytes(head, "little"))
    return payload if _fill(fd, payload) else None


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


@dataclass
class _Child:
    """A forked child of `Workers`, as its caller sees it."""

    pid: int
    down: Optional[int]  # write end of the pipe of its messages, until closed
    up: int              # non-blocking read end of the pipe of its reports
    share: list[int]     # its units, ascending


class Workers:
    """Units 0 .. n-1 shared by stride over k processes (`start_strides`),
    the children forked on entering and reaped on leaving, whatever is
    raised. `run_share(share, message)` runs the units of `share` on a
    round's message and returns their `Report`; `describe(share)` gives
    what a child's share is called in a WorkerError and the rank of its
    failure.

    A round (`round`): the caller writes the message, pickled, to each
    child, runs its own share and reads each child's pickled report. A
    child keeps its state from the fork and across rounds, serves rounds
    until the caller closes its pipe, then ends with status 0; it closes
    the caller's ends of every pipe, so that each child sees its pipe end
    when the caller closes it, and leaves with `os._exit`, so it never
    returns into the caller's stack or runs atexit handlers. Every process
    keeps the caller's affinity mask, and the kernel places them.
    """

    def __init__(self, run_share: Callable[[list[int], Any], Report], n: int, k: int,
                 describe: Callable[[list[int]], tuple[str, int]]):
        self.run_share, self.n, self.k, self.describe = run_share, n, k, describe
        self.children: list[_Child] = []

    def __enter__(self) -> Workers:
        try:
            own = start_strides(self._fork, self.n, self.k, self.children)
        except BaseException:
            self.close()
            raise
        # every share, this process's first, in the order of `round`'s results
        self.shares = [own] + [child.share for child in self.children]
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def round(self, message=None,
              last: bool = False) -> tuple[list[Optional[list]], Optional[Failure]]:
        """Run every share once on `message`. The results of each share, in
        the order of `shares`, and the failure of the lowest rank. A child
        that ended without a report is found when its pipe ends: then every
        child is reaped, and it is a WorkerError naming its exit status.
        With `last`, no round follows: each child's pipe is closed once it
        has the message, so the child ends after its report, while this
        process still runs its own share, not after the round."""
        # with no child, a round is a plain call of `run_share`
        payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL) if self.children else b""
        for child in self.children:
            with contextlib.suppress(BrokenPipeError):  # reading its report finds it
                send(child.down, payload)
            if last:
                os.close(child.down)
                child.down = None
        reports = [self.run_share(self.shares[0], message)]
        # every report is read, so no child is left blocked on its pipe
        replies = [receive(child.up) for child in self.children]
        reports += [(None, None) if r is None else pickle.loads(r) for r in replies]
        failures = [failure for _, failure in reports if failure is not None]
        if None in replies:
            failures += self.close()
        return ([results for results, _ in reports],
                min(failures, key=lambda f: f[0], default=None))

    def close(self) -> list[Failure]:
        """Let every child end and reap it; a WorkerError for each that did
        not end with status 0, so did not finish its rounds (a signal, OOM)."""
        children, self.children = self.children, []
        failures = []
        try:
            for child in children:
                if child.down is not None:
                    os.close(child.down)
                os.close(child.up)
        finally:
            for child in children:
                code = os.waitstatus_to_exitcode(os.waitpid(child.pid, 0)[1])
                if code:
                    what, rank = self.describe(child.share)
                    how = (f"killed by signal {-code}" if code < 0
                           else f"exited with status {code}")
                    failures.append((rank, WorkerError(
                        f"worker process {child.pid} for {what} {how}")))
        return failures

    def _fork(self, share: list[int]) -> Optional[_Child]:
        """Start the child that serves `share`, or None if it could not start."""
        down = up = ()
        try:
            down = os.pipe()
            up = os.pipe()
            pid = os.fork()
        except OSError:
            for fd in down + up:
                os.close(fd)
            return None
        if pid == 0:
            code = 1
            try:
                for fd in (down[1], up[0], *(fd for child in self.children
                                              for fd in (child.down, child.up))):
                    os.close(fd)
                os.set_blocking(down[0], False)
                while (message := receive(down[0])) is not None:
                    report = self.run_share(share, pickle.loads(message))
                    send(up[1], pickled_report(report))
                code = 0
            finally:
                os._exit(code)
        os.close(down[0])
        os.close(up[1])
        os.set_blocking(up[0], False)
        return _Child(pid, down[1], up[0], share)


def run_strides(run_share: Callable[[list[int]], Report], n: int, k: int,
                label: str) -> Report:
    """One round of `Workers` with no message: `run_share(share)` runs the
    units of `share` in order and returns their report. The results of
    every share, in no set order, and the failure of the lowest rank; a
    child that ended without a report is a WorkerError naming its
    `label`ed units, ranked at its first unit."""
    with Workers(lambda share, _: run_share(share), n, k,
                 lambda share: (f"{label} #{share[0]}, #{share[0] + k}, ...", share[0])
                 ) as workers:
        results, failure = workers.round(last=True)
    return [r for share_results in results for r in share_results or ()], failure
