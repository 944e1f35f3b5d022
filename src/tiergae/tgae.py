"""Deterministic tiered graph autoencoder.

Three tiers: atoms, functional groups, whole molecule. Each tier has its own
GCN encoder and an inner-product decoder with edge logits Z Z^T (edge
probabilities sigmoid(Z Z^T)), trained on the weighted BCE of those logits.
Tiers are trained bottom-up, one at a time. Once a tier is trained its
embeddings are frozen and pooled through the membership matrix to build the
next tier's inputs, so no gradient crosses a tier boundary during training.

Both flavors (`TierModel` here, `tvgae.VariationalTierModel`) share one
pipeline through a two-method protocol:
  embed(x, a_norm) -> the numpy embedding that gets pooled (tvgae: mu)
  loss(tape, x, a_norm, bce, config, noise) -> (loss node, node to pool)
where x (B, N, d) and a_norm (B, N, N) are tape nodes holding a stack of B
graphs, each zero-padded to the stack's largest node count N, bce their
`BceWeights` (which also weight each graph's node rows), config the run's
`RunConfig` and noise a (B, N, d_z) standard normal array, zero on pad rows
(None for `tgae`). The loss of a stack is the sum of its graphs' losses, and
no pad entry reaches it. A model that takes noise also has a `d_z`
attribute, the width of that array.
`fit_tier`, `pool_samples`, `run_tiered_schedule`, `encode_tiers` and
`pipeline_loss` are the shared epoch loop, tier handoff, schedule, inference
pass and end-to-end loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .autodiff import Adam, Param, Tape, seeded_rng
from .errors import DomainError, ShapeMismatchError
from .gcn import GnnEncoder, binary_collapse, encode, encode_numpy, gcn_norm, make_encoder
from .graphs import Graph, MembershipMatrix, adjacency_array, coo_to_dense, dense_to_coo
from .pooling import graph_tier_membership, pool_adjacency, pool_features
from .workers import StackWorkers

# rng stream roles within one (seed, tier) pair; the deterministic model and
# the mu encoder of the variational one share role 0 so their initial weights
# coincide for ablation comparisons
ENCODER_ROLE = 0
LOGSIGMA_ROLE = 1
NOISE_ROLE = 2

# The padded cells B * N^2 that `stack_samples` lets a stack of graphs of
# several sizes reach. A stack's tape and numpy calls cost 0.10-0.19 ms
# even for one graph of 20 nodes (ten graphs padded to 26 nodes: 0.33-0.52
# ms), so fewer stacks pay; at 8192 cells one float64 N x N plane is 64 KiB
# and the dozen planes of a stack's forward and backward pass stay in a
# 2 MiB L2. Measured on the drugs-tgae seed-1 corpus (64 molecules, 20-58
# atoms), tgae, 30 epochs, budgets interleaved, medians of 21 in-process
# runs on a 2 vCPU Xeon host. Budget: tier-1 stacks, then tier-1 and
# tier-2 ms per epoch on one CPU:
#   0 (a stack per node count): 33, 9.51, 4.27     4096: 25, 8.41, 2.62
#   8192: 16, 6.86, 2.26     16384: 9, 6.09, 2.35     32768: 5, 7.18, 2.98
#   65536: 3, 10.50, 3.78
# On both CPUs, forked: 0: 6.61, 3.13; 8192: 5.09, 1.71; 16384: 4.24, 2.03.
# 16384 is as fast but pads 9.1% of the tier-1 cells, against 3.6% here.
STACK_CELLS = 8192


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run, from the command line down to the epoch
    loop. `model` picks the flavor; each flavor's builder and trainer read
    the fields they need (`tgae` skips kl_weight)."""

    model: str = "tgae"
    seed: int = 0
    epochs: int = 200
    lr: float = 0.01
    hidden: int = 32
    d_z: int = 16
    kl_weight: float = 1.0
    k: int = 2


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

    def loss(self, tape: Tape, x: int, a_norm: int, bce: BceWeights,
             config: RunConfig, noise) -> tuple[int, int]:
        """Reconstruction loss of the logits Z Z^T, and Z for pooling; config
        and noise are unused."""
        z = encode(self.encoder, x, a_norm, tape)
        return reconstruction_loss(tape, decode_adjacency(tape, z), bce), z


@dataclass
class TierSample:
    """One graph prepared for one tier: features, normalized adjacency, the
    binary reconstruction target, and the membership m that pools the tier
    into the next with the adjacency already pooled through it (both None
    at the top tier). The tier's own N x N x s adjacency is not kept. Once
    the tier's samples are stacked for training, x and a_norm are views
    into its `TierStack` and target is None: the stack's `BceWeights`
    replace it."""

    x: np.ndarray
    a_norm: np.ndarray                 # N x N
    target: Optional[np.ndarray]       # N x N binary
    m: Optional[MembershipMatrix]      # N x G
    pooled_a: Optional[np.ndarray]     # G x G x s


@dataclass
class BceWeights:
    """Weighted-BCE coefficients of a graph or of a stack of graphs padded
    to one node count N. On the logits l_b of graph b, with p = sigmoid(l_b),
    its loss is -(sum(c1 log p) + sum(c2 log(1 - p))) / count_b =
    (sum(c1 softplus(-l_b)) + sum(c2 softplus(l_b))) / count_b, and a
    stack's loss is the sum of its graphs' losses. The mask is a graph's
    off-diagonal cells in its own leading nodes x nodes block (its one cell
    if it has one node): c1 and c2 are zero on the diagonal and on every
    pad cell, so a pad logit gets no loss and exactly zero gradient.

    rows and inv_nodes weight a term summed over node rows, such as the KL
    of `tvgae`: graph b's sum over the rows where rows_b is 1, times
    inv_nodes_b, is its mean over its own nodes, and no pad row reaches it."""

    c1: np.ndarray         # pos_weight * target * mask, per graph
    c2: np.ndarray         # (1 - target) * mask
    count: np.ndarray      # masked entries of each graph
    rows: np.ndarray       # 1 on each graph's node rows, 0 on its pad rows
    inv_nodes: np.ndarray  # 1 / node count of each graph


@dataclass
class TierStack:
    """Samples of one tier, smallest node count first and in sample order
    within a count, each zero-padded to the largest count N: its x rows and
    its a_norm rows and columns past its own nodes are zero, with no
    self-loop, so no real row reads a pad."""

    index: list[int]     # positions of the B graphs in the sample list
    rows: np.ndarray     # B * N: each row's place in the sample-order
                         # concatenation of node rows, a pad's one past its end
    x: np.ndarray        # B x N x d
    a_norm: np.ndarray   # B x N x N
    bce: BceWeights      # c1, c2: B x N x N; rows: B x N x 1; count, inv_nodes: B


@dataclass
class TierBundle:
    x: np.ndarray
    edge_index: np.ndarray
    edge_attr: np.ndarray
    membership: Optional[np.ndarray]   # group index of each node
    z: np.ndarray


@dataclass
class TieredRepresentation:
    tiers: list[TierBundle] = field(default_factory=list)


def make_tier_encoders(d_in: int, cfg: RunConfig, role: int, prefix: str) -> list[GnnEncoder]:
    """One encoder per tier, chained by width d_in -> d_z -> d_z; tier t's
    weights come from the stream (seed, t, role) and its params are named
    `tier{t}.{prefix}layer{i}.*`."""
    return [make_encoder(width, cfg.hidden, cfg.d_z, cfg.k, seeded_rng(cfg.seed, tier, role),
                         name_prefix=f"tier{tier}.{prefix}")
            for tier, width in zip((1, 2, 3), (d_in, cfg.d_z, cfg.d_z))]


def make_tier_models(d_in: int, cfg: RunConfig = RunConfig()) -> list[TierModel]:
    """Three encoders chained by width: d_in -> d_z -> d_z."""
    return [TierModel(encoder=enc, tier=tier)
            for tier, enc in enumerate(make_tier_encoders(d_in, cfg, ENCODER_ROLE, ""), 1)]


def decode_adjacency(tape: Tape, z: int) -> int:
    """Edge logits Z Z^T of a graph or of each graph in a stack; the edge
    probabilities are their sigmoid."""
    return tape.gram(z)


def reconstruction_target(exist: np.ndarray) -> np.ndarray:
    """Binary target from the N x N existence matrix of an adjacency (its
    `binary_collapse`): off-diagonal entries for N > 1.

    A 1-node graph has no off-diagonal entries, so its target degenerates to
    the single self-loop-existence bit; without this the top-tier loss would
    be a constant.
    """
    n = exist.shape[0]
    if n == 1:
        return exist
    return exist * (1.0 - np.eye(n))


def bce_weights(target, nodes=None) -> BceWeights:
    """Fold pos_weight and the mask of a binary (N, N) target, or of a
    (B, N, N) stack of them, into `BceWeights`. `nodes` gives each graph's
    node count (N if None); a graph of n < N nodes is padded: its target
    sits in the leading n x n block and is zero past it."""
    target = np.asarray(target, dtype=np.float64)
    n = target.shape[-1]
    if target.ndim not in (2, 3) or target.shape[-2] != n:
        raise ShapeMismatchError(f"target must be square, got {target.shape}")
    nodes = np.full(target.shape[:-2], n) if nodes is None else np.asarray(nodes)
    if nodes.shape != target.shape[:-2] or not ((nodes >= 1) & (nodes <= n)).all():
        raise ShapeMismatchError(f"node counts {nodes} do not fit target {target.shape}")
    if not ((target == 0.0) | (target == 1.0)).all():
        raise ValueError("reconstruction target must be binary")
    real = np.arange(n) < nodes[..., None]
    keep = real[..., :, None] & real[..., None, :]
    # the diagonal is masked out, but for a one-node graph it is its one cell
    keep &= ~np.eye(n, dtype=bool) | (nodes == 1)[..., None, None]
    if np.where(keep, 0.0, target).any():
        raise ValueError("reconstruction target must have a zero diagonal and no "
                         "entry past its node count")
    mask = keep.astype(np.float64)
    rows = real[..., None].astype(np.float64)
    count = mask.sum(axis=(-2, -1))
    n_pos = (target * mask).sum(axis=(-2, -1), keepdims=True)
    n_neg = count[..., None, None] - n_pos
    # either class empty: pos_weight is undefined, fall back to unweighted BCE
    pos_weight = np.divide(n_neg, n_pos, out=np.ones_like(n_pos),
                           where=(n_pos > 0) & (n_neg > 0))
    return BceWeights(pos_weight * target * mask, (1.0 - target) * mask, count, rows,
                      1.0 / nodes)


def reconstruction_loss(tape: Tape, logits: int, bce: BceWeights) -> int:
    """BCE of the edge logits over masked entries, positives scaled by
    pos_weight, averaged per graph and summed over a stack."""
    return tape.bce_logits(logits, bce.c1, bce.c2, bce.count)


def tier_sample(x: np.ndarray, a, m: Optional[MembershipMatrix] = None) -> TierSample:
    """The sample of features x and adjacency a, pooled through m for the
    next tier unless m is None. The edge mask of a is computed once and
    feeds the normalized adjacency, the target and the pooling."""
    arr = adjacency_array(a)
    exist = binary_collapse(arr)
    return TierSample(
        x=np.asarray(x, dtype=np.float64),
        a_norm=gcn_norm(exist),
        target=reconstruction_target(exist),
        m=m,
        pooled_a=None if m is None else pool_adjacency(arr, m, exist),
    )


def stack_samples(samples: Sequence[TierSample]) -> list[TierStack]:
    """Stack the samples, smallest node count first and in sample order
    within a count, into `TierStack`s padded to their largest count N.

    Consecutive node counts share a stack while its padded cells B * N^2
    stay within STACK_CELLS; the graphs of one count are never split, so a
    count whose graphs exceed the budget alone is a stack of its own,
    unpadded. Each sample's x and a_norm become views into its stack, so
    the stack holds the only copy of them, and its target is dropped, since
    only the stack's `BceWeights` are read from then on. So a sample is
    stacked, and trained, once: stacking it again is a ValueError.
    """
    by_n: dict[int, list[int]] = {}
    for i, s in enumerate(samples):
        if s.target is None:
            raise ValueError(f"sample {i} was stacked for training already")
        by_n.setdefault(s.x.shape[0], []).append(i)
    packs: list[list[int]] = []
    for n in sorted(by_n):
        if packs and (len(packs[-1]) + len(by_n[n])) * n * n <= STACK_CELLS:
            packs[-1] += by_n[n]
        else:
            packs.append(list(by_n[n]))
    starts = np.cumsum([0] + [s.x.shape[0] for s in samples])
    stacks = []
    for index in packs:
        nodes = np.array([samples[i].x.shape[0] for i in index])
        b, n = len(index), int(nodes[-1])
        x = np.zeros((b, n, samples[index[0]].x.shape[1]))
        a_norm = np.zeros((b, n, n))
        target = np.zeros((b, n, n))
        rows = np.full((b, n), starts[-1])
        for j, i in enumerate(index):
            k = nodes[j]
            x[j, :k] = samples[i].x
            a_norm[j, :k, :k] = samples[i].a_norm
            target[j, :k, :k] = samples[i].target
            rows[j, :k] = starts[i] + np.arange(k)
            samples[i].x, samples[i].a_norm = x[j, :k], a_norm[j, :k, :k]
            samples[i].target = None
        stacks.append(TierStack(index, rows.ravel(), x, a_norm, bce_weights(target, nodes)))
    return stacks


def fit_tier(model, samples: Sequence[TierSample], config: RunConfig,
             noise: Optional[np.random.Generator] = None) -> list[float]:
    """Full-batch Adam on the mean per-graph `model.loss`; one loss per epoch.

    The graphs are trained in padded stacks (`stack_samples`), built once;
    a stack's loss is the sum of its graphs' losses. Each stack runs forward
    and backward on a tape of its own, dropped before the next starts, so
    training memory follows the largest stack, not the corpus. Each loss is
    scaled by 1 / len(samples) on its tape and the stacks' gradients are
    added into Adam's `grad` vector in reverse stack order: every Param.grad
    receives the adds of one reverse sweep over a tape of the whole epoch.
    The epoch loss is the forward-order sum of the stack losses times
    1 / len(samples). With a noise generator, each epoch draws the standard
    normal rows of all graphs in sample order in one call (the numbers of
    one draw per graph), followed by one row of zeros, and gathers each
    stack's rows from it: a pad row gets the zeros. A loss that
    is not finite is a DomainError naming the tier and epoch, raised before
    that epoch's update. The stacks are shared out over one process per CPU
    (`workers.StackWorkers`); the losses and parameters do not depend on
    the process count, to the bit.
    """
    if not samples:
        raise ValueError("training a tier needs at least one sample")
    stacks = stack_samples(samples)
    node_rows = sum(s.x.shape[0] for s in samples)
    scale = 1.0 / len(samples)
    opt = Adam(model.params(), lr=config.lr)

    def draw() -> Optional[np.ndarray]:
        if noise is None:
            return None
        eps = np.zeros((node_rows + 1, model.d_z))
        noise.standard_normal(out=eps[:-1])
        return eps

    def run_stack(k: int, eps: Optional[np.ndarray]) -> float:
        """Forward and backward of stack k, its gradient added into
        `opt.grad`; its loss."""
        st, tape = stacks[k], Tape()
        st_eps = None if eps is None else eps[st.rows].reshape(*st.x.shape[:2], -1)
        loss, _ = model.loss(tape, tape.const(st.x), tape.const(st.a_norm), st.bce,
                             config, st_eps)
        value = float(tape.value(loss))
        tape.backward(tape.scalar_mul(scale, loss))
        return value

    history: list[float] = []
    with StackWorkers(len(stacks), opt, run_stack, draw, f"tier {model.tier}") as workers:
        for epoch in range(config.epochs):
            losses = workers.epoch()
            total = losses[0]
            for value in losses[1:]:
                total += value
            loss = scale * total
            if not math.isfinite(loss):
                raise DomainError(f"tier {model.tier}: epoch {epoch} loss is {loss}")
            opt.step()
            history.append(loss)
    return history


def train_tier(model: TierModel, samples: Sequence[TierSample],
               config: RunConfig) -> list[float]:
    """Full-batch Adam on the mean per-graph reconstruction loss."""
    return fit_tier(model, samples, config)


def _check_models(models: Sequence) -> None:
    if len(models) != 3 or [m.tier for m in models] != [1, 2, 3]:
        raise ValueError("expected models for tiers 1, 2, 3 in order")


def pool_sample(z: np.ndarray, s: TierSample, m: Optional[MembershipMatrix]) -> TierSample:
    """The next tier's sample: embeddings z of sample s pooled through s.m,
    itself pooled through m unless m is None."""
    return tier_sample(pool_features(z, s.m), s.pooled_a, m)


def pool_samples(model, samples: Sequence[TierSample],
                 memberships: Sequence[Optional[MembershipMatrix]]) -> list[TierSample]:
    """Frozen embeddings of a trained tier, pooled into next-tier samples;
    `memberships` pool those samples in turn (None at the top tier)."""
    return [pool_sample(model.embed(s.x, s.a_norm), s, m)
            for s, m in zip(samples, memberships)]


def next_tier_samples(model: TierModel, samples: Sequence[TierSample],
                      memberships: Sequence[Optional[MembershipMatrix]]) -> list[TierSample]:
    """Frozen embeddings of a trained tier, pooled into next-tier samples."""
    return pool_samples(model, samples, memberships)


def run_tiered_schedule(models: Sequence, items: Sequence[tuple[Graph, MembershipMatrix]],
                        train: Callable, pool: Callable) -> dict[int, list[float]]:
    """Bottom-up schedule: train a tier with `train(tier, model, samples)`,
    freeze it, build the next tier's samples with `pool`, move up. Each
    graph's dense adjacency is pooled as its sample is built, so one
    graph's N x N x s array at a time is alive, not the corpus's."""
    _check_models(models)
    if not items:
        raise ValueError("empty corpus")
    samples = [tier_sample(g.x, coo_to_dense(g), m) for g, m in items]
    next_memberships = ([graph_tier_membership(m.num_groups) for _, m in items],
                        [None] * len(items), None)
    hist = {}
    for model, ms in zip(models, next_memberships):
        hist[model.tier] = train(model.tier, model, samples)
        if ms is not None:
            samples = pool(model, samples, ms)
    return hist


def train_tiered(models: Sequence[TierModel],
                 items: Sequence[tuple[Graph, MembershipMatrix]],
                 config: RunConfig) -> dict[int, list[float]]:
    """Bottom-up schedule: train a tier, freeze it, pool, move up."""
    return run_tiered_schedule(
        models, items, lambda _tier, model, s: train_tier(model, s, config),
        next_tier_samples)


def encode_tiers(graph: Graph, m1: MembershipMatrix,
                 models: Sequence) -> TieredRepresentation:
    """Inference pass through all tiers on `model.embed`; tape-free. Tier 1
    keeps the graph's own COO; the pooled tiers take theirs from
    `dense_to_coo`."""
    _check_models(models)
    if m1.num_nodes != graph.num_nodes:
        raise ShapeMismatchError(
            f"membership rows {m1.num_nodes} != node count {graph.num_nodes}"
        )
    s = tier_sample(graph.x, coo_to_dense(graph), m1)
    coo = (graph.edge_index, graph.edge_attr)
    rep = TieredRepresentation()
    for model, m_next in zip(models, (graph_tier_membership(m1.num_groups), None)):
        z = model.embed(s.x, s.a_norm)
        rep.tiers.append(TierBundle(s.x, *coo, s.m.group, z))
        coo = dense_to_coo(s.pooled_a)
        s = pool_sample(z, s, m_next)
    rep.tiers.append(TierBundle(s.x, *coo, None, models[2].embed(s.x, s.a_norm)))
    return rep


def encode_tiered(graph: Graph, m1: MembershipMatrix,
                  models: Sequence[TierModel]) -> TieredRepresentation:
    """Inference pass through all tiers; deterministic, tape-free."""
    return encode_tiers(graph, m1, models)


def pipeline_loss(models: Sequence, x: np.ndarray, a, m1: MembershipMatrix,
                  tape: Tape, config: RunConfig = RunConfig(),
                  noises: Sequence = (None, None, None)) -> int:
    """Sum of all three tier losses with pooling on the tape; `noises` holds
    one noise array per tier (each None for `tgae`).

    Training never needs cross-tier gradients (lower tiers are frozen), but
    the chain is differentiable end to end; this builds it in one tape so
    a finite-difference check can exercise every parameter at once.
    """
    _check_models(models)
    if len(noises) != 3:
        raise ValueError(f"need one noise array per tier, got {len(noises)}")
    a_cur = a
    # the graph is a stack of one: every array gets a leading axis of 1
    x_node = tape.const(np.asarray(x, dtype=np.float64)[None])
    memberships = (m1, graph_tier_membership(m1.num_groups), None)
    total = None
    for model, m, noise in zip(models, memberships, noises):
        s = tier_sample(tape.value(x_node)[0], a_cur, m)
        if noise is not None:
            noise = np.asarray(noise, dtype=np.float64)[None]
        loss, pooled = model.loss(tape, x_node, tape.const(s.a_norm[None]),
                                  bce_weights(s.target[None]), config, noise)
        total = loss if total is None else tape.add(total, loss)
        if m is not None:
            # M^T, the G x N binary matrix of the membership
            mt = (np.arange(m.num_groups)[:, None] == m.group).astype(np.float64)
            x_node = tape.matmul(tape.const(mt[None]), pooled)
            a_cur = s.pooled_a
    return total

