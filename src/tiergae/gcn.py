"""GCN encoder: K stacked layers of normalized-adjacency propagation.

Each layer computes act((A_norm @ H) @ W + b), one `Tape.gcn_layer` node on
a tape. A_norm is the symmetrically normalized adjacency with self-loops, made
from a graph's edge mask (`graphs.edge_mask`). Edge feature channels never
enter the encoder: only the existence of an edge is normalized, and the
full channels flow through pooling untouched.

`encode` and `encode_numpy` take one graph, x (N, d) with a_norm (N, N), or a
stack of B graphs padded to N nodes, x (B, N, d) with a_norm (B, N, N); the
layer weights are shared across the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Param, Tape, glorot_uniform
from .errors import ShapeMismatchError

MIN_LAYERS = 2
MAX_LAYERS = 6

ACTIVATIONS = ("relu", "identity")


@dataclass
class GcnLayer:
    weight: Param  # d_in x d_out
    bias: Param    # 1 x d_out
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.bias.value.shape != (1, self.weight.value.shape[1]):
            raise ShapeMismatchError(
                f"bias shape {self.bias.value.shape} does not match "
                f"weight columns {self.weight.value.shape[1]}"
            )


@dataclass
class GnnEncoder:
    layers: list[GcnLayer]

    def __post_init__(self):
        k = len(self.layers)
        if not (MIN_LAYERS <= k <= MAX_LAYERS):
            raise ValueError(f"layer count K={k} outside [{MIN_LAYERS}, {MAX_LAYERS}]")
        for lo, hi in zip(self.layers, self.layers[1:]):
            if lo.weight.value.shape[1] != hi.weight.value.shape[0]:
                raise ShapeMismatchError(
                    f"layer widths do not chain: {lo.weight.value.shape} "
                    f"then {hi.weight.value.shape}"
                )

    @property
    def k(self) -> int:
        return len(self.layers)

    @property
    def d_in(self) -> int:
        return self.layers[0].weight.value.shape[0]

    @property
    def d_out(self) -> int:
        return self.layers[-1].weight.value.shape[1]

    def params(self) -> list[Param]:
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out


def make_encoder(d_in: int, hidden: int, d_z: int, k: int,
                 rng: np.random.Generator, name_prefix: str = "") -> GnnEncoder:
    """Glorot-uniform weights, zero biases; relu hidden, identity output."""
    widths = [d_in] + [hidden] * (k - 1) + [d_z]
    layers = []
    for i in range(k):
        f_in, f_out = widths[i], widths[i + 1]
        layers.append(GcnLayer(
            weight=Param(glorot_uniform(rng, f_in, f_out),
                         name=f"{name_prefix}layer{i}.weight"),
            bias=Param(np.zeros((1, f_out)), name=f"{name_prefix}layer{i}.bias"),
            activation="identity" if i == k - 1 else "relu",
        ))
    return GnnEncoder(layers)


def gcn_norm(mask, nodes=None) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2} with A the 0/1 matrix of an N x N edge
    mask and D the degree of A + I, of one mask or of each mask of a
    (B, N, N) stack.

    The mask is read as bools, so any nonzero entry is an edge of weight 1.
    `nodes` gives the node count of each graph of a stack that is
    zero-padded past it (N if None): the self-loops go on its own nodes
    only, so its pad rows and columns stay zero. Isolated nodes end up with
    a pure self-loop row e_i, so the matrix is always finite. The mask must
    be square and symmetric: an undirected graph.
    """
    a = np.asarray(mask, dtype=bool)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise ShapeMismatchError(f"gcn_norm needs a square matrix or a stack of them, "
                                 f"got {a.shape}")
    if not np.array_equal(a, np.swapaxes(a, -1, -2)):
        raise ValueError("edge mask must be symmetric")
    n = a.shape[-1]
    nodes = np.full(a.shape[:-2], n) if nodes is None else np.asarray(nodes)
    a_tilde = a + np.eye(n) * (np.arange(n) < nodes[..., None])[..., None]
    deg = a_tilde.sum(axis=-1)
    with np.errstate(divide="ignore"):
        d_inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
    return a_tilde * d_inv_sqrt[..., :, None] * d_inv_sqrt[..., None, :]


def _check_inputs(enc: GnnEncoder, x_shape, a_shape) -> None:
    if x_shape[-1] != enc.d_in:
        raise ShapeMismatchError(
            f"input width {x_shape[-1]} != encoder d_in {enc.d_in}"
        )
    if a_shape[:-1] != x_shape[:-1] or a_shape[-1] != a_shape[-2]:
        raise ShapeMismatchError("a_norm dimension != node count of x")


def encode(enc: GnnEncoder, x: int, a_norm: int, tape: Tape) -> int:
    """Tape-recorded forward pass; x and a_norm are tape node ids, and
    a_norm is a constant."""
    _check_inputs(enc, tape.value(x).shape, tape.value(a_norm).shape)
    h = x
    for layer in enc.layers:
        h = tape.gcn_layer(a_norm, h, tape.param(layer.weight), tape.param(layer.bias),
                           layer.activation == "relu")
    return h


def encode_numpy(enc: GnnEncoder, x: np.ndarray, a_norm: np.ndarray) -> np.ndarray:
    """Inference forward pass; the same arithmetic as encode, no tape."""
    h = np.asarray(x, dtype=np.float64)
    _check_inputs(enc, h.shape, np.shape(a_norm))
    for layer in enc.layers:
        h = a_norm @ h @ layer.weight.value + layer.bias.value
        if layer.activation == "relu":
            h = np.maximum(h, 0.0)
    return h
