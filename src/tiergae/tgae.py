"""Deterministic tiered graph autoencoder.

Three tiers: atoms, functional groups, whole molecule. Each tier has its own
GCN encoder and a sigmoid inner-product decoder sig(Z Z^T); tiers are trained
bottom-up, one at a time. Once a tier is trained its embeddings are frozen
and pooled through the membership matrix to build the next tier's inputs,
so no gradient crosses a tier boundary during training.

Both flavors (`TierModel` here, `tvgae.VariationalTierModel`) share one
pipeline through a two-method protocol:
  embed(x, a_norm) -> the numpy embedding that gets pooled (tvgae: mu)
  loss(tape, x, a_norm, target, config, noise) -> (loss node, node to pool)
where x and a_norm are tape nodes, config is the flavor's train config and
noise its rng or fixed noise array. `fit_tier`, `pool_samples`,
`run_tiered_schedule`, `encode_tiers` and `pipeline_loss` are the shared
epoch loop, tier handoff, schedule, inference pass and end-to-end loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .autodiff import Adam, Param, Tape, seeded_rng, stable_sigmoid
from .errors import ShapeMismatchError
from .gcn import GnnEncoder, binary_collapse, encode, encode_numpy, gcn_norm, make_encoder
from .graphs import Graph, MembershipMatrix, adjacency_array, coo_to_dense
from .pooling import diff_group_pool, graph_tier_membership, pool_adjacency, pool_features

SIGMOID_CLAMP = 1e-12

# rng stream roles within one (seed, tier) pair; the deterministic model and
# the mu encoder of the variational one share role 0 so their initial weights
# coincide for ablation comparisons
ENCODER_ROLE = 0
LOGSIGMA_ROLE = 1
NOISE_ROLE = 2

DEFAULT_HIDDEN = 32
DEFAULT_DZ = 16
DEFAULT_K = 2


@dataclass
class TierModel:
    encoder: GnnEncoder
    tier: int

    def __post_init__(self):
        if self.tier not in (1, 2, 3):
            raise ValueError(f"tier must be 1, 2 or 3, got {self.tier}")

    def params(self) -> list[Param]:
        return self.encoder.params()

    def embed(self, x: np.ndarray, a_norm: np.ndarray) -> np.ndarray:
        return encode_numpy(self.encoder, x, a_norm)

    def loss(self, tape: Tape, x: int, a_norm: int, target: np.ndarray,
             config, noise) -> tuple[int, int]:
        """Reconstruction loss of sigmoid(Z Z^T), and Z for pooling; config
        and noise are unused."""
        z = encode(self.encoder, x, a_norm, tape)
        return reconstruction_loss(tape, decode_adjacency(tape, z), target), z


@dataclass
class TrainConfig:
    epochs: int = 200
    lr: float = 0.01


@dataclass
class TierSample:
    """One graph prepared for one tier: features, raw and normalized
    adjacency, and the binary reconstruction target."""

    x: np.ndarray
    a: np.ndarray        # N x N x s
    a_norm: np.ndarray   # N x N
    target: np.ndarray   # N x N binary


@dataclass
class TierBundle:
    x: np.ndarray
    edge_index: np.ndarray
    edge_attr: np.ndarray
    membership: Optional[np.ndarray]
    z: np.ndarray


@dataclass
class TieredRepresentation:
    tiers: list[TierBundle] = field(default_factory=list)


def make_tier_models(d_in: int, hidden: int = DEFAULT_HIDDEN, d_z: int = DEFAULT_DZ,
                     k: int = DEFAULT_K, seed: int = 0) -> list[TierModel]:
    """Three encoders chained by width: d_in -> d_z -> d_z."""
    models = []
    for tier, width in zip((1, 2, 3), (d_in, d_z, d_z)):
        rng = seeded_rng(seed, tier, ENCODER_ROLE)
        enc = make_encoder(width, hidden, d_z, k, rng, name_prefix=f"tier{tier}.")
        models.append(TierModel(encoder=enc, tier=tier))
    return models


def decode_adjacency(tape: Tape, z: int) -> int:
    """A_hat = sigmoid(Z Z^T), recorded on the tape."""
    return tape.sigmoid(tape.matmul(z, tape.transpose(z)))


def decode_adjacency_numpy(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    return stable_sigmoid(z @ z.T)


def reconstruction_target(a) -> np.ndarray:
    """Binary existence target: off-diagonal entries for N > 1.

    A 1-node graph has no off-diagonal entries, so its target degenerates to
    the single self-loop-existence bit; without this the top-tier loss would
    be a constant.
    """
    exist = binary_collapse(a)
    n = exist.shape[0]
    if n == 1:
        return exist
    return exist * (1.0 - np.eye(n))


def _loss_constants(target: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Fold pos_weight and the diagonal mask into two coefficient matrices.

    loss = -(sum(c1 * log p) + sum(c2 * log(1 - p))) / count
    """
    target = np.asarray(target, dtype=np.float64)
    n = target.shape[0]
    if target.shape != (n, n):
        raise ShapeMismatchError(f"target must be square, got {target.shape}")
    if not np.isin(target, (0.0, 1.0)).all():
        raise ValueError("reconstruction target must be binary")
    if n > 1:
        if np.diag(target).any():
            raise ValueError("reconstruction target must have a zero diagonal")
        mask = 1.0 - np.eye(n)
    else:
        mask = np.ones((1, 1))
    n_pos = float((target * mask).sum())
    n_neg = float(mask.sum() - n_pos)
    # either class empty: pos_weight is undefined, fall back to unweighted BCE
    pos_weight = n_neg / n_pos if n_pos > 0 and n_neg > 0 else 1.0
    c1 = pos_weight * target * mask
    c2 = (1.0 - target) * mask
    return c1, c2, float(mask.sum())


def reconstruction_loss(tape: Tape, a_hat: int, target: np.ndarray) -> int:
    """Mean BCE over masked entries, positives scaled by pos_weight."""
    va = tape.value(a_hat)
    if va.shape != np.asarray(target).shape:
        raise ShapeMismatchError(
            f"a_hat shape {va.shape} != target shape {np.asarray(target).shape}"
        )
    c1, c2, count = _loss_constants(target)
    p = tape.clip(a_hat, SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)
    log_p = tape.log(p)
    one_minus_p = tape.add(tape.const(np.ones_like(va)), tape.scalar_mul(-1.0, p))
    log_1mp = tape.log(one_minus_p)
    pos = tape.sum(tape.elementwise_mul(tape.const(c1), log_p))
    neg = tape.sum(tape.elementwise_mul(tape.const(c2), log_1mp))
    return tape.scalar_mul(-1.0 / count, tape.add(pos, neg))


def reconstruction_loss_value(a_hat: np.ndarray, target: np.ndarray) -> float:
    tape = Tape()
    return float(tape.value(reconstruction_loss(tape, tape.const(a_hat), target)))


def tier_sample(x: np.ndarray, a) -> TierSample:
    arr = adjacency_array(a)
    return TierSample(
        x=np.asarray(x, dtype=np.float64),
        a=arr,
        a_norm=gcn_norm(binary_collapse(arr)),
        target=reconstruction_target(arr),
    )


def fit_tier(model, samples: Sequence[TierSample], config, noise=None) -> list[float]:
    """Full-batch Adam on the mean per-graph `model.loss`; one loss per epoch."""
    if not samples:
        raise ValueError("training a tier needs at least one sample")
    opt = Adam(model.params(), lr=config.lr)
    history: list[float] = []
    for _ in range(config.epochs):
        tape = Tape()
        opt.zero_grads()
        total = None
        for s in samples:
            loss, _ = model.loss(tape, tape.const(s.x), tape.const(s.a_norm),
                                 s.target, config, noise)
            total = loss if total is None else tape.add(total, loss)
        total = tape.scalar_mul(1.0 / len(samples), total)
        tape.backward(total)
        opt.step()
        history.append(float(tape.value(total)))
    return history


def train_tier(model: TierModel, samples: Sequence[TierSample],
               config: TrainConfig) -> list[float]:
    """Full-batch Adam on the mean per-graph reconstruction loss."""
    return fit_tier(model, samples, config)


def _check_models(models: Sequence) -> None:
    if len(models) != 3 or [m.tier for m in models] != [1, 2, 3]:
        raise ValueError("expected models for tiers 1, 2, 3 in order")


def pool_samples(model, samples: Sequence[TierSample],
                 memberships: Sequence[MembershipMatrix]) -> list[TierSample]:
    """Frozen embeddings of a trained tier, pooled into next-tier samples."""
    out = []
    for s, m in zip(samples, memberships):
        z = model.embed(s.x, s.a_norm)
        out.append(tier_sample(pool_features(z, m), pool_adjacency(s.a, m)))
    return out


def next_tier_samples(model: TierModel, samples: Sequence[TierSample],
                      memberships: Sequence[MembershipMatrix]) -> list[TierSample]:
    """Frozen embeddings of a trained tier, pooled into next-tier samples."""
    return pool_samples(model, samples, memberships)


def run_tiered_schedule(models: Sequence, items: Sequence[tuple[Graph, MembershipMatrix]],
                        train: Callable, pool: Callable) -> dict[int, list[float]]:
    """Bottom-up schedule: train a tier with `train(tier, model, samples)`,
    freeze it, build the next tier's samples with `pool`, move up."""
    _check_models(models)
    if not items:
        raise ValueError("empty corpus")
    samples = [tier_sample(g.x, coo_to_dense(g).a) for g, _ in items]
    memberships = ([m for _, m in items],
                   [graph_tier_membership(m.num_groups) for _, m in items], None)
    hist = {}
    for model, ms in zip(models, memberships):
        hist[model.tier] = train(model.tier, model, samples)
        if ms is not None:
            samples = pool(model, samples, ms)
    return hist


def train_tiered(models: Sequence[TierModel],
                 items: Sequence[tuple[Graph, MembershipMatrix]],
                 config: TrainConfig) -> dict[int, list[float]]:
    """Bottom-up schedule: train a tier, freeze it, pool, move up."""
    return run_tiered_schedule(
        models, items, lambda _tier, model, s: train_tier(model, s, config),
        next_tier_samples)


def encode_tiers(graph: Graph, m1: MembershipMatrix,
                 models: Sequence) -> TieredRepresentation:
    """Inference pass through all tiers on `model.embed`; tape-free."""
    _check_models(models)
    if m1.num_nodes != graph.num_nodes:
        raise ShapeMismatchError(
            f"membership rows {m1.num_nodes} != node count {graph.num_nodes}"
        )
    s = tier_sample(graph.x, coo_to_dense(graph).a)
    graph_arrays = (graph.x, graph.edge_index, graph.edge_attr)
    rep = TieredRepresentation()
    for model, m in zip(models, (m1, graph_tier_membership(m1.num_groups))):
        z = model.embed(s.x, s.a_norm)
        rep.tiers.append(TierBundle(*graph_arrays, m.m, z))
        p = diff_group_pool(z, s.a, m)
        s = tier_sample(p.x_next, p.a_next)
        graph_arrays = (p.x_next, p.edge_index_next, p.edge_attr_next)
    rep.tiers.append(TierBundle(*graph_arrays, None, models[2].embed(s.x, s.a_norm)))
    return rep


def encode_tiered(graph: Graph, m1: MembershipMatrix,
                  models: Sequence[TierModel]) -> TieredRepresentation:
    """Inference pass through all tiers; deterministic, tape-free."""
    return encode_tiers(graph, m1, models)


def pipeline_loss(models: Sequence, x: np.ndarray, a, m1: MembershipMatrix,
                  tape: Tape, config=None, noises: Sequence = (None, None, None)) -> int:
    """Sum of all three tier losses with pooling on the tape.

    Training never needs cross-tier gradients (lower tiers are frozen), but
    the chain is differentiable end to end; this builds it in one tape so
    a finite-difference check can exercise every parameter at once.
    """
    _check_models(models)
    a_cur = adjacency_array(a)
    x_node = tape.const(np.asarray(x, dtype=np.float64))
    memberships = (m1, graph_tier_membership(m1.num_groups), None)
    total = None
    for model, m, noise in zip(models, memberships, noises):
        a_norm = tape.const(gcn_norm(binary_collapse(a_cur)))
        loss, pooled = model.loss(tape, x_node, a_norm, reconstruction_target(a_cur),
                                  config, noise)
        total = loss if total is None else tape.add(total, loss)
        if m is not None:
            x_node = tape.matmul(tape.const(m.m.T.copy()), pooled)
            a_cur = pool_adjacency(a_cur, m)
    return total


def full_pipeline_loss(models: Sequence[TierModel], x: np.ndarray, a,
                       m1: MembershipMatrix, tape: Tape) -> int:
    """Sum of all three tier losses with pooling on the tape (`pipeline_loss`)."""
    return pipeline_loss(models, x, a, m1, tape)
