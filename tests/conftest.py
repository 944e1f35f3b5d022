"""Shared fixtures. The whole suite runs offline: an autouse session guard
replaces socket connections with a hard failure so any accidental network
use fails loudly instead of silently reaching out.

tiergae is imported before numpy: it pins BLAS to one thread, which takes
effect only if numpy is not loaded yet, so the in-process tests run BLAS at
one thread, as the `tiergae` command does."""

import tiergae  # noqa: F401  # before numpy, see above

import json
import socket
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from tiergae.autodiff import Tape
from tiergae.cli import json_to_array
from tiergae.gcn import GnnEncoder, encode, encode_numpy
from tiergae.graphs import Graph, validate
from tiergae.sdf import parse_sdf
from tiergae.tgae import bce_weights, decode_adjacency, reconstruction_loss
from tiergae.tvgae import elbo_loss, kl_divergence, reparameterize

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
    """`reconstruction_loss` of an array of edge logits against the edge
    mask `target`."""
    tape = Tape()
    return float(tape.value(
        reconstruction_loss(tape, tape.const(logits), bce_weights(target))))


def export_violations(out_dir) -> list[str]:
    """`graphs.validate`'s violations of every tier of every export in
    out_dir, each as "file tier: violation"."""
    found = []
    for path in sorted(Path(out_dir).glob("*.json")):
        for tier, doc in json.loads(path.read_text())["tiers"].items():
            graph = Graph(json_to_array(doc["x"]),
                          json_to_array(doc["edge_index"], dtype=np.int64),
                          json_to_array(doc["edge_attr"]))
            found += [f"{path.name} tier {tier}: {v}" for v in validate(graph)]
    return found


def kl_value(mu, logsigma) -> float:
    """`kl_divergence` of a posterior given as arrays."""
    tape = Tape()
    return float(tape.value(kl_divergence(tape, tape.const(mu), tape.const(logsigma))))


@dataclass
class FixedLogsigmaModel:
    """The variational flavor with its log-sigma path pinned to a constant.

    mu comes from the production `encode`, logsigma is -20 with no
    gradient, and the loss is the production `reparameterize` and
    `elbo_loss` with kl_weight 0. Sampling noise is then exp(-20)-scale, so
    training follows the deterministic model with the same mu encoder.
    """

    encoder_mu: GnnEncoder
    tier: int

    LOGSIGMA = -20.0

    @property
    def d_z(self) -> int:
        return self.encoder_mu.d_out

    def params(self):
        return self.encoder_mu.params()

    def embed(self, x, a_norm):
        return encode_numpy(self.encoder_mu, x, a_norm)

    def loss(self, tape, x, a_norm, bce, config, noise):
        mu = encode(self.encoder_mu, x, a_norm, tape)
        logsigma = tape.const(np.full(tape.value(mu).shape, self.LOGSIGMA))
        z = reparameterize(tape, mu, logsigma, noise)
        return elbo_loss(tape, decode_adjacency(tape, z), bce, mu, logsigma,
                         kl_weight=0.0), mu
