"""Shared fixtures. The whole suite runs offline: an autouse session guard
replaces socket connections with a hard failure so any accidental network
use fails loudly instead of silently reaching out."""

import socket
from pathlib import Path

import numpy as np
import pytest

from tiergae.autodiff import Tape
from tiergae.sdf import parse_sdf
from tiergae.tgae import bce_weights, reconstruction_loss
from tiergae.tvgae import kl_divergence

DATA_DIR = Path(__file__).parent / "data"
VANILLIN_SDF = DATA_DIR / "vanillin.sdf"


class _NetworkBlocked(RuntimeError):
    pass


@pytest.fixture(autouse=True, scope="session")
def _no_network():
    def blocked(*args, **kwargs):
        raise _NetworkBlocked("test suite must not open network connections")

    saved_connect = socket.socket.connect
    saved_create = socket.create_connection
    socket.socket.connect = blocked
    socket.create_connection = blocked
    try:
        yield
    finally:
        socket.socket.connect = saved_connect
        socket.create_connection = saved_create


def pytest_terminal_summary(terminalreporter):
    from acceptance_report import RESULTS

    if RESULTS:
        terminalreporter.write_sep("-", "acceptance gate")
        for line in RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def vanillin_sdf_bytes() -> bytes:
    return VANILLIN_SDF.read_bytes()


@pytest.fixture()
def vanillin_mol(vanillin_sdf_bytes):
    return parse_sdf(vanillin_sdf_bytes)[0]


def path4_adjacency() -> np.ndarray:
    """4-node path 0-1-2-3, single unit channel."""
    a = np.zeros((4, 4, 1))
    for i, j in ((0, 1), (1, 2), (2, 3)):
        a[i, j, 0] = a[j, i, 0] = 1.0
    return a


def path4_features() -> np.ndarray:
    return np.eye(4)


@pytest.fixture()
def path4():
    return path4_features(), path4_adjacency()


def recon_value(logits, target) -> float:
    """`reconstruction_loss` of an array of edge logits against a binary target."""
    tape = Tape()
    return float(tape.value(
        reconstruction_loss(tape, tape.const(logits), bce_weights(target))))


def kl_value(mu, logsigma) -> float:
    """`kl_divergence` of a posterior given as arrays."""
    tape = Tape()
    return float(tape.value(kl_divergence(tape, tape.const(mu), tape.const(logsigma))))
