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
where embed takes numpy arrays x (B, N, d) and a_norm (B, N, N) of B graphs
of N nodes each, unpadded. For loss, x and a_norm are tape nodes holding a
stack of B graphs, each zero-padded to the stack's largest node count N, bce
their `BceWeights` (which also weight each graph's node rows), config the
run's `RunConfig` and noise a (B, N, d_z) standard normal array, zero on pad
rows (None for `tgae`). The loss of a stack is the sum of its graphs' losses, and
no pad entry reaches it. A model that takes noise also has a `d_z`
attribute, the width of that array.
`fit_tier`, `pool_samples`, `run_tiered_schedule` and `encode_tiers` are
the shared epoch loop, tier handoff, schedule and inference pass. Training and inference both work on a tier's
padded stacks (`stack_samples`): the handoff embeds the tier's training
stacks and inference stacks the graphs it is given, and both embed and pool
them the same way (`embed_stacks`, `pool_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .autodiff import Adam, Param, Tape, seeded_rng
from .errors import ConfigError, DomainError, ShapeMismatchError
from .gcn import MAX_LAYERS, MIN_LAYERS, GnnEncoder, encode, encode_numpy, gcn_norm, make_encoder
from .graphs import (Graph, MembershipMatrix, adjacency_array, coo_to_dense, dense_to_coo,
                     edge_mask, first_defect)
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

MODELS = ("tgae", "tvgae")

# widest `hidden` and `d_z`. A layer's weight is at most MAX_WIDTH**2
# float64 values (8 MiB), so the largest model (6 layers, 3 tiers, the
# variational flavor's two encoders, each weight with its gradient and
# Adam's two moments) holds about 1 GiB; --hidden 2147483648 asked numpy
# for 208 GiB and died with a MemoryError traceback
MAX_WIDTH = 1024


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run, from the command line down to the epoch
    loop. `model` picks the flavor; each flavor's builder and trainer read
    the fields they need (`tgae` skips kl_weight). A value not of its
    default's type (2.5 is not an int) or past its field's bound is a
    ConfigError when the config is built, also by `dataclasses.replace`."""

    model: str = "tgae"
    seed: int = 0
    epochs: int = 200
    lr: float = 0.01
    hidden: int = 32
    d_z: int = 16
    kl_weight: float = 1.0
    k: int = 2

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not type(f.default):
                raise ConfigError(f"config field {f.name!r}: expected "
                                  f"{type(f.default).__name__}, got {value!r}")
        if self.model not in MODELS:
            raise ConfigError(f"config field 'model': must be one of {MODELS}, "
                              f"got {self.model!r}")
        if self.seed < 0:
            raise ConfigError("config field 'seed': must be nonnegative")
        for name in ("epochs", "lr", "hidden", "d_z", "kl_weight", "k"):
            value = getattr(self, name)
            # math.isfinite overflows on an int past the float range (10**400)
            if type(value) is float and not math.isfinite(value):
                raise ConfigError(f"config field {name!r}: must be finite, got {value}")
            if value <= 0:
                raise ConfigError(f"config field {name!r}: must be strictly positive")
        if not (MIN_LAYERS <= self.k <= MAX_LAYERS):
            raise ConfigError(f"config field 'k': must be in [{MIN_LAYERS}, {MAX_LAYERS}], "
                              f"got {self.k}")
        for name in ("hidden", "d_z"):
            if getattr(self, name) > MAX_WIDTH:
                raise ConfigError(f"config field {name!r}: must be at most {MAX_WIDTH}, "
                                  f"got {getattr(self, name)}")


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
    """One graph prepared for one tier: features, the edge mask of its
    adjacency, and the membership m that pools the tier into the next with
    the adjacency already pooled through it (both None at the top tier).
    The tier's own N x N x s adjacency is not kept, and the normalized
    adjacency is made per stack (`stack_samples`)."""

    x: np.ndarray
    mask: np.ndarray                   # N x N bool, True where an edge is
    m: Optional[MembershipMatrix]      # N x G
    pooled_a: Optional[np.ndarray]     # G x G x s


@dataclass
class BceWeights:
    """Weighted-BCE coefficients of a graph or of a stack of graphs padded
    to one node count N. On the logits l_b of graph b, with p = sigmoid(l_b),
    its loss is -(sum(c1 log p) + sum(c2 log(1 - p))) / count_b =
    (sum(c1 softplus(-l_b)) + sum(c2 softplus(l_b))) / count_b, and a
    stack's loss is the sum of its graphs' losses. The scored cells are a
    graph's off-diagonal cells in its own leading nodes x nodes block (its
    one cell if it has one node): c1 and c2 are zero on the diagonal and on
    every pad cell, so a pad logit gets no loss and exactly zero gradient.
    The target is the graph's edge mask on the scored cells: 1 where an
    edge is, 0 elsewhere. A one-node graph's target is its one self-loop
    bit, so the top-tier loss is not a constant.

    rows and inv_nodes weight a term summed over node rows, such as the KL
    of `tvgae`: graph b's sum over the rows where rows_b is 1, times
    inv_nodes_b, is its mean over its own nodes, and no pad row reaches it."""

    c1: np.ndarray         # pos_weight * target, per graph
    c2: np.ndarray         # (1 - target) on the scored cells, 0 elsewhere
    count: np.ndarray      # scored cells of each graph
    rows: np.ndarray       # 1 on each graph's node rows, 0 on its pad rows
    inv_nodes: np.ndarray  # 1 / node count of each graph


@dataclass
class TierStack:
    """Samples of one tier, smallest node count first and in sample order
    within a count, each zero-padded to the largest count N: its x rows and
    its mask and a_norm rows and columns past its own nodes are zero, with
    no self-loop, so no real row reads a pad."""

    index: list[int]     # positions of the B graphs in the sample list
    nodes: np.ndarray    # B: the node count of each graph, ascending
    rows: np.ndarray     # B * N: each row's place in the sample-order
                         # concatenation of node rows, a pad's one past its end
    x: np.ndarray        # B x N x d
    mask: np.ndarray     # B x N x N bool
    a_norm: np.ndarray   # B x N x N


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


def bce_weights(mask, nodes=None) -> BceWeights:
    """The `BceWeights` of the (N, N) edge mask of a graph, or of each of a
    (B, N, N) stack of them, read as bools. `nodes` gives each graph's node
    count (N if None); a graph of n < N nodes is padded to N, and only its
    leading n x n block is scored. The target is the mask on the scored
    cells."""
    mask = np.asarray(mask, dtype=bool)
    n = mask.shape[-1]
    if mask.ndim not in (2, 3) or mask.shape[-2] != n:
        raise ShapeMismatchError(f"edge mask must be square, got {mask.shape}")
    nodes = np.full(mask.shape[:-2], n) if nodes is None else np.asarray(nodes)
    if nodes.shape != mask.shape[:-2] or not ((nodes >= 1) & (nodes <= n)).all():
        raise ShapeMismatchError(f"node counts {nodes} do not fit edge mask {mask.shape}")
    real = np.arange(n) < nodes[..., None]
    keep = real[..., :, None] & real[..., None, :]
    # the diagonal is not scored, but for a one-node graph it is its one cell
    keep &= ~np.eye(n, dtype=bool) | (nodes == 1)[..., None, None]
    target = (mask & keep).astype(np.float64)
    scored = keep.astype(np.float64)
    rows = real[..., None].astype(np.float64)
    count = scored.sum(axis=(-2, -1))
    n_pos = target.sum(axis=(-2, -1), keepdims=True)
    n_neg = count[..., None, None] - n_pos
    # either class empty: pos_weight is undefined, fall back to unweighted BCE
    pos_weight = np.divide(n_neg, n_pos, out=np.ones_like(n_pos),
                           where=(n_pos > 0) & (n_neg > 0))
    return BceWeights(pos_weight * target, (1.0 - target) * scored, count, rows,
                      1.0 / nodes)


def reconstruction_loss(tape: Tape, logits: int, bce: BceWeights) -> int:
    """BCE of the edge logits over masked entries, positives scaled by
    pos_weight, averaged per graph and summed over a stack."""
    return tape.bce_logits(logits, bce.c1, bce.c2, bce.count)


def tier_sample(x: np.ndarray, a, m: Optional[MembershipMatrix] = None) -> TierSample:
    """The sample of features x and adjacency a, pooled through m for the
    next tier unless m is None: the work that stays per graph. The edge
    mask of a is computed once; it feeds the pooling here and the
    normalized adjacency and, in training, the BCE weights of the sample's
    stack."""
    arr = adjacency_array(a)
    mask = edge_mask(arr)
    return TierSample(
        x=np.asarray(x, dtype=np.float64),
        mask=mask,
        m=m,
        pooled_a=None if m is None else pool_adjacency(arr, m, mask),
    )


def stack_samples(samples: Sequence[TierSample]) -> list[TierStack]:
    """Stack the samples, smallest node count first and in sample order
    within a count, into `TierStack`s padded to their largest count N, and
    normalize each stack's adjacency in one `gcn_norm` call.

    Consecutive node counts share a stack while its padded cells B * N^2
    stay within STACK_CELLS; the graphs of one count are never split, so a
    count whose graphs exceed the budget alone is a stack of its own,
    unpadded. A stack of one graph holds views of its sample's x and mask,
    not copies. The samples are left as they are.
    """
    by_n: dict[int, list[int]] = {}
    for i, s in enumerate(samples):
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
        rows = np.full((b, n), starts[-1])
        if b == 1:
            x, mask = samples[index[0]].x[None], samples[index[0]].mask[None]
        else:
            x = np.zeros((b, n, samples[index[0]].x.shape[1]))
            mask = np.zeros((b, n, n), dtype=bool)
        for j, i in enumerate(index):
            k = nodes[j]
            if b > 1:
                x[j, :k] = samples[i].x
                mask[j, :k, :k] = samples[i].mask
            rows[j, :k] = starts[i] + np.arange(k)
        stacks.append(TierStack(index, nodes, rows.ravel(), x, mask, gcn_norm(mask, nodes)))
    return stacks


def fit_tier(model, stacks: Sequence[TierStack], config: RunConfig,
             noise: Optional[np.random.Generator] = None) -> list[float]:
    """Full-batch Adam on the mean per-graph `model.loss` of the graphs of
    a tier's `stacks` (`stack_samples`); one loss per epoch.

    A stack's loss is the sum of its graphs' losses. Each stack runs forward
    and backward on a tape of its own, dropped before the next starts, so
    training memory follows the largest stack, not the corpus. Each loss is
    scaled by 1 / the graph count on its tape and the stacks' gradients are
    added into Adam's `grad` vector in reverse stack order: every Param.grad
    receives the adds of one reverse sweep over a tape of the whole epoch.
    The epoch loss is the forward-order sum of the stack losses times
    1 / the graph count. With a noise generator, each epoch draws the standard
    normal rows of all graphs in sample order in one call (the numbers of
    one draw per graph), followed by one row of zeros, and gathers each
    stack's rows from it: a pad row gets the zeros. A loss that
    is not finite is a DomainError naming the tier and epoch, raised before
    that epoch's update. The stacks are shared out over one process per CPU
    (`workers.StackWorkers`); the losses and parameters do not depend on
    the process count, to the bit.
    """
    if not stacks:
        raise ValueError("training a tier needs at least one sample")
    bces = [bce_weights(st.mask, st.nodes) for st in stacks]
    node_rows = sum(int(st.nodes.sum()) for st in stacks)
    scale = 1.0 / sum(len(st.index) for st in stacks)
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
        loss, _ = model.loss(tape, tape.const(st.x), tape.const(st.a_norm), bces[k],
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


def train_tier(model: TierModel, stacks: Sequence[TierStack],
               config: RunConfig) -> list[float]:
    """Full-batch Adam on the mean per-graph reconstruction loss."""
    return fit_tier(model, stacks, config)


def _check_models(models: Sequence, flavor: type = object) -> None:
    """ShapeMismatchError unless `models` are three `flavor`s of tiers 1, 2, 3."""
    if len(models) != 3 or any(not isinstance(m, flavor) or getattr(m, "tier", None) != tier
                               for tier, m in zip((1, 2, 3), models)):
        raise ShapeMismatchError("expected models for tiers 1, 2, 3 in order")


def split_items(items: Sequence[tuple[Graph, MembershipMatrix]]) -> tuple[list, list]:
    """The graphs and the memberships of training's `items`; a
    ShapeMismatchError naming the first item that is not a pair."""
    for k, item in enumerate(items):
        if not isinstance(item, (tuple, list)) or len(item) != 2:
            raise ShapeMismatchError(f"item #{k} is not a (Graph, MembershipMatrix) pair")
    return [g for g, _ in items], [m for _, m in items]


def check_items(graphs: Sequence[Graph], memberships: Sequence[MembershipMatrix]) -> None:
    """The graph check of the corpus boundary (`cli.corpus_items`), which
    every library entry point runs on its graphs and tier-1 memberships: a
    graph without a membership or the reverse, an entry that is not a Graph
    or not a MembershipMatrix, the error of `graphs.first_defect`'s graph,
    then a membership whose row count is not its graph's node count or a
    graph whose node-feature width is not the first graph's. The tier path
    checks none of this again."""
    if len(memberships) < len(graphs):
        raise ShapeMismatchError(f"graph #{len(memberships)} has no membership")
    if len(memberships) > len(graphs):
        raise ShapeMismatchError(f"membership #{len(graphs)} has no graph")
    for k, (graph, m1) in enumerate(zip(graphs, memberships)):
        if not isinstance(graph, Graph):
            raise ShapeMismatchError(f"graph #{k} is a {type(graph).__name__}, not a Graph")
        if not isinstance(m1, MembershipMatrix):
            raise ShapeMismatchError(f"membership #{k} is a {type(m1).__name__}, "
                                     "not a MembershipMatrix")
    found = first_defect(graphs)
    if found is not None:
        raise found[2]
    for k, (graph, m1) in enumerate(zip(graphs, memberships)):
        if m1.num_nodes != graph.num_nodes:
            raise ShapeMismatchError(
                f"membership rows {m1.num_nodes} != node count {graph.num_nodes}"
            )
        if graph.x.shape[1] != graphs[0].x.shape[1]:
            raise ShapeMismatchError(f"graph #{k} has {graph.x.shape[1]} node features, "
                                     f"graph #0 has {graphs[0].x.shape[1]}")


def _next_memberships(memberships: Sequence[MembershipMatrix]) -> tuple:
    """Per tier, what pools the tier's samples, given the tier-1
    `memberships`: the tier-2 and tier-3 lists, then None at the top."""
    return ([graph_tier_membership(m.num_groups) for m in memberships],
            [None] * len(memberships), None)


def embed_stacks(model, stacks: Sequence[TierStack]) -> np.ndarray:
    """`model.embed` of the graphs of a tier's stacks: the node rows of all
    of them, in sample order (the rows that `TierStack.rows` index).

    A stack is embedded one node count at a time, on views of its graphs'
    leading rows, so each product has the shapes of a graph embedded alone
    and its bits: OpenBLAS rounds some products over a padded shape
    otherwise (measured for layer widths of 4 and less, and for one-node
    graphs, whose one-row products take its vector kernel)."""
    z = None
    for st in stacks:
        at = st.rows.reshape(len(st.index), -1)
        cuts = [0, *(np.flatnonzero(np.diff(st.nodes)) + 1), len(st.index)]
        for j0, j1 in zip(cuts, cuts[1:]):
            n = st.nodes[j0]
            zs = model.embed(st.x[j0:j1, :n], st.a_norm[j0:j1, :n, :n])
            if z is None:
                z = np.empty((sum(int(t.nodes.sum()) for t in stacks), zs.shape[-1]))
            z[at[j0:j1, :n].ravel()] = zs.reshape(-1, zs.shape[-1])
    return z


def pool_rows(z: np.ndarray, samples: Sequence[TierSample],
              memberships: Sequence[Optional[MembershipMatrix]]) -> list[TierSample]:
    """The next tier's samples from z, the node rows of all `samples` in
    sample order: every sample's rows pooled through its membership in one
    `pool_features` call, each sample's groups numbered past the ones
    before, and its pooled adjacency pooled in turn through its entry of
    `memberships` (None at the top tier). A group's sum gets its rows in
    node order, as pooling the sample alone does."""
    ends = np.cumsum([s.m.num_groups for s in samples])
    group = np.concatenate([s.m.group + (end - s.m.num_groups)
                            for s, end in zip(samples, ends)])
    x = pool_features(z, MembershipMatrix.unchecked(group, int(ends[-1])))
    return [tier_sample(x[end - s.m.num_groups:end], s.pooled_a, m)
            for s, end, m in zip(samples, ends, memberships)]


def pool_samples(model, samples: Sequence[TierSample], stacks: Sequence[TierStack],
                 memberships: Sequence[Optional[MembershipMatrix]]) -> list[TierSample]:
    """Frozen embeddings of a trained tier, from its training `stacks` of
    `samples`, pooled into next-tier samples; `memberships` pool those
    samples in turn (None at the top tier)."""
    return pool_rows(embed_stacks(model, stacks), samples, memberships)


def next_tier_samples(model: TierModel, samples: Sequence[TierSample],
                      stacks: Sequence[TierStack],
                      memberships: Sequence[Optional[MembershipMatrix]]) -> list[TierSample]:
    """Frozen embeddings of a trained tier, pooled into next-tier samples."""
    return pool_samples(model, samples, stacks, memberships)


def run_tiered_schedule(models: Sequence, items: Sequence[tuple[Graph, MembershipMatrix]],
                        train: Callable, pool: Callable, flavor: type) -> dict[int, list[float]]:
    """Bottom-up schedule: stack a tier's samples, train the tier with
    `train(tier, model, stacks)`, freeze it, build the next tier's samples
    with `pool(model, samples, stacks, memberships)`, move up. Each graph's
    dense adjacency is pooled as its sample is built, so one graph's
    N x N x s array at a time is alive, not the corpus's. The models must
    be `flavor`s, and the items go through `split_items` and `check_items`
    first."""
    _check_models(models, flavor)
    if not items:
        raise ConfigError("empty corpus")
    graphs, memberships = split_items(items)
    check_items(graphs, memberships)
    samples = [tier_sample(g.x, coo_to_dense(g), m) for g, m in zip(graphs, memberships)]
    hist = {}
    for model, ms in zip(models, _next_memberships(memberships)):
        stacks = stack_samples(samples)
        hist[model.tier] = train(model.tier, model, stacks)
        if ms is not None:
            samples = pool(model, samples, stacks, ms)
    return hist


def train_tiered(models: Sequence[TierModel],
                 items: Sequence[tuple[Graph, MembershipMatrix]],
                 config: RunConfig) -> dict[int, list[float]]:
    """Bottom-up schedule: train a tier, freeze it, pool, move up."""
    return run_tiered_schedule(
        models, items, lambda _tier, model, stacks: train_tier(model, stacks, config),
        next_tier_samples, TierModel)


def encode_tiers(graphs, memberships, models: Sequence):
    """Inference pass through all tiers on `model.embed`, tape-free: one
    `TieredRepresentation` per graph of `graphs`, whose tier-1 memberships
    are `memberships`; a lone Graph and its membership give its one
    representation. Each tier's samples are stacked (`stack_samples`),
    embedded (`embed_stacks`) and pooled into the next tier's (`pool_rows`),
    as training's handoff does, so the stacking changes no bit. Tier 1 keeps
    each graph's own COO; the pooled tiers take theirs from `dense_to_coo`.
    The graphs go through `check_items` first."""
    if isinstance(graphs, Graph):
        return encode_tiers([graphs], [memberships], models)[0]
    _check_models(models)
    check_items(graphs, memberships)
    if not graphs:
        return []
    samples = [tier_sample(g.x, coo_to_dense(g), m) for g, m in zip(graphs, memberships)]
    coos = [(g.edge_index, g.edge_attr) for g in graphs]
    reps = [TieredRepresentation() for _ in graphs]
    for model, ms in zip(models, _next_memberships(memberships)):
        z = embed_stacks(model, stack_samples(samples))
        end = 0
        for rep, s, coo in zip(reps, samples, coos):
            end += s.x.shape[0]
            rep.tiers.append(TierBundle(s.x, *coo, None if s.m is None else s.m.group,
                                        z[end - s.x.shape[0]:end]))
        if ms is not None:
            pooled = pool_rows(z, samples, ms)
            # the next tier's edge masks are those of the pooled adjacency
            coos = [dense_to_coo(s.pooled_a, p.mask) for s, p in zip(samples, pooled)]
            samples = pooled
    return reps


def encode_tiered(graphs, memberships, models: Sequence[TierModel]):
    """Inference pass through all tiers; deterministic, tape-free."""
    return encode_tiers(graphs, memberships, models)
