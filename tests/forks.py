"""Helpers for the tests of the forking commands (ingest, embed, train).

The process count is set by replacing `os.sched_getaffinity`; `os.fork` is
wrapped to count the children.
"""

import os

import pytest

REAL_GETAFFINITY = getattr(os, "sched_getaffinity", lambda pid: {0})
REAL_MASK = REAL_GETAFFINITY(0)
REFUSED = 4096  # a CPU id past the kernel's CPU count, which it refuses


def use_cpus(monkeypatch, n: int) -> set[int]:
    """A mask of n CPUs: this process's own first, then ids the kernel refuses."""
    own = sorted(REAL_MASK)[:n]
    mask = set(own) | set(range(REFUSED, REFUSED + n - len(own)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask)
    return mask


def count_forks(monkeypatch) -> list[int]:
    """The pids of the children `os.fork` starts from now on."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
