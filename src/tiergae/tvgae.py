"""Variational tiered graph autoencoder.

Each tier's posterior q(z_i) = N(mu_i, diag(sigma_i^2)) is parameterized by
two independent GCNs (no weight sharing between the mu and log-sigma paths).
Training samples z = mu + exp(logsigma) * eps and minimizes the negative
ELBO: weighted BCE reconstruction plus KL against the standard normal prior.
Pooling and inference always consume mu, never samples, so tier handoff and
embedding export are deterministic. Training works on padded stacks of
graphs (see `tgae`); the noise stays per graph, and pad rows get zero noise
and no KL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Param, Tape, seeded_rng
from .errors import ShapeMismatchError
from .gcn import GnnEncoder, encode, encode_numpy
from .graphs import Graph, MembershipMatrix
from .tgae import (
    ENCODER_ROLE,
    LOGSIGMA_ROLE,
    NOISE_ROLE,
    BceWeights,
    RunConfig,
    TierSample,
    TierStack,
    decode_adjacency,
    encode_tiers,
    fit_tier,
    make_tier_encoders,
    pool_samples,
    reconstruction_loss,
    run_tiered_schedule,
)

LOGSIGMA_LIMIT = 20.0  # exp(2 * 20) is still finite in float64


@dataclass
class VariationalTierModel:
    encoder_mu: GnnEncoder
    encoder_logsigma: GnnEncoder
    tier: int

    def __post_init__(self):
        if self.tier not in (1, 2, 3):
            raise ShapeMismatchError(f"tier must be 1, 2 or 3, got {self.tier}")
        same_in = self.encoder_mu.d_in == self.encoder_logsigma.d_in
        same_out = self.encoder_mu.d_out == self.encoder_logsigma.d_out
        if not (same_in and same_out):
            raise ShapeMismatchError("mu and logsigma encoders must agree on widths")

    @property
    def d_z(self) -> int:
        return self.encoder_mu.d_out

    def params(self) -> list[Param]:
        return self.encoder_mu.params() + self.encoder_logsigma.params()

    def embed(self, x: np.ndarray, a_norm: np.ndarray) -> np.ndarray:
        return encode_numpy(self.encoder_mu, x, a_norm)

    def loss(self, tape: Tape, x: int, a_norm: int, bce: BceWeights,
             config: RunConfig, noise: np.ndarray) -> tuple[int, int]:
        """Negative ELBO of one posterior sample per graph, and mu for pooling."""
        mu, logsigma = encode_posterior(self, x, a_norm, tape)
        z = reparameterize(tape, mu, logsigma, noise)
        loss = elbo_loss(tape, decode_adjacency(tape, z), bce, mu, logsigma,
                         config.kl_weight)
        return loss, mu


def make_variational_tier_models(d_in: int,
                                 cfg: RunConfig = RunConfig()) -> list[VariationalTierModel]:
    """Per tier: mu encoder drawn from the same stream as the deterministic
    model's encoder (shared role), logsigma encoder from its own stream."""
    mus = make_tier_encoders(d_in, cfg, ENCODER_ROLE, "mu.")
    logsigmas = make_tier_encoders(d_in, cfg, LOGSIGMA_ROLE, "logsigma.")
    return [VariationalTierModel(mu, ls, tier)
            for tier, (mu, ls) in enumerate(zip(mus, logsigmas), 1)]


def encode_posterior(model: VariationalTierModel, x: int, a_norm: int,
                     tape: Tape) -> tuple[int, int]:
    """Two independent GCN passes; logsigma clamped to a safe range."""
    mu = encode(model.encoder_mu, x, a_norm, tape)
    logsigma = tape.clip(
        encode(model.encoder_logsigma, x, a_norm, tape),
        -LOGSIGMA_LIMIT, LOGSIGMA_LIMIT,
    )
    return mu, logsigma


def reparameterize(tape: Tape, mu: int, logsigma: int, noise: np.ndarray) -> int:
    """z = mu + exp(logsigma) * eps with eps the noise array; gradient
    reaches mu and logsigma only."""
    shape = tape.value(mu).shape
    if tape.value(logsigma).shape != shape:
        raise ShapeMismatchError("mu and logsigma shapes differ")
    eps = np.asarray(noise, dtype=np.float64)
    if eps.shape != shape:
        raise ShapeMismatchError(f"noise shape {eps.shape} != mu shape {shape}")
    return tape.add(mu, tape.elementwise_mul(tape.exp(logsigma), tape.const(eps)))


def kl_divergence(tape: Tape, mu: int, logsigma: int, rows=1.0, inv_nodes=None) -> int:
    """KL(q || N(0, I)) = -1/2 sum(1 + 2 ls - mu^2 - exp(2 ls)) over the
    node rows and dims of a graph, divided by its node count, and summed
    over the graphs of a stack. rows and inv_nodes are a padded stack's
    `BceWeights.rows` and `.inv_nodes`, which weight a pad row 0; left
    out, every row is a node row."""
    vm = tape.value(mu)
    if tape.value(logsigma).shape != vm.shape:
        raise ShapeMismatchError("mu and logsigma shapes differ")
    if inv_nodes is None:
        inv_nodes = 1.0 / vm.shape[-2]
    ones = tape.const(np.ones_like(vm))
    two_ls = tape.scalar_mul(2.0, logsigma)
    mu_sq = tape.elementwise_mul(mu, mu)
    exp_two_ls = tape.exp(two_ls)
    inner = tape.add(tape.add(ones, two_ls),
                     tape.scalar_mul(-1.0, tape.add(mu_sq, exp_two_ls)))
    return tape.graph_sum(inner, rows, -0.5 * inv_nodes)


def elbo_loss(tape: Tape, logits: int, bce: BceWeights, mu: int,
              logsigma: int, kl_weight: float = 1.0) -> int:
    """Negative ELBO on the edge logits: the reconstruction loss plus
    `kl_weight` times the KL term."""
    recon = reconstruction_loss(tape, logits, bce)
    kl = kl_divergence(tape, mu, logsigma, bce.rows, bce.inv_nodes)
    return tape.add(recon, tape.scalar_mul(kl_weight, kl))


def train_tier_variational(model: VariationalTierModel,
                           stacks: Sequence[TierStack],
                           config: RunConfig,
                           rng: np.random.Generator) -> list[float]:
    """Full-batch Adam on the mean per-graph negative ELBO, one posterior
    sample per graph per epoch."""
    return fit_tier(model, stacks, config, rng)


def next_tier_samples_variational(model: VariationalTierModel,
                                  samples: Sequence[TierSample],
                                  stacks: Sequence[TierStack],
                                  memberships: Sequence[MembershipMatrix]) -> list[TierSample]:
    """Pool the posterior means of a trained tier into next-tier samples."""
    return pool_samples(model, samples, stacks, memberships)


def train_tiered_variational(models: Sequence[VariationalTierModel],
                             items: Sequence[tuple[Graph, MembershipMatrix]],
                             config: RunConfig) -> dict[int, list[float]]:
    """Bottom-up schedule with one noise stream per tier."""
    return run_tiered_schedule(
        models, items,
        lambda tier, model, stacks: train_tier_variational(
            model, stacks, config, seeded_rng(config.seed, tier, NOISE_ROLE)),
        next_tier_samples_variational, VariationalTierModel)


def encode_tiered_variational(graphs, memberships,
                              models: Sequence[VariationalTierModel]):
    """Mu-mode inference: z_t = mu_t everywhere, no sampling, no rng."""
    return encode_tiers(graphs, memberships, models)
