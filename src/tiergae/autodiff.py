"""Reverse-mode autodiff over dense float64 matrices and stacks of them.

A Tape records forward operations as an append-only list of nodes; node ids
are topological by construction. backward() seeds the scalar loss with 1 and
sweeps the tape once in reverse, accumulating vector-Jacobian products into
Param.grad. The op set is what training records: fused GCN layers
(`gcn_layer`), the inner-product decoder (`gram`, Z Z^T), a BCE-on-logits
loss (`bce_logits`), the KL and reparameterization terms (`add`,
`elementwise_mul`, `scalar_mul`, `exp`, `graph_sum`, `clip`) and the pooling
product of the end-to-end loss (`matmul`). Every rule is checkable against
central finite differences.

Constants get no gradient. A leaf made by `const` holds no Param and no
vector-Jacobian product (VJP), so nothing reads a gradient formed for it; an
op whose input is such a leaf may skip that gradient, and its VJP then
returns None in that input's place, which backward skips. `gcn_layer` does
so for the first layer's features, and requires a constant A.

A stack of B matrices sits on a leading axis, (B, n, m). `matmul` multiplies
2-D @ 2-D, or a stack slice by slice with a stack of the same B; `gcn_layer`
shares its weight and bias across a stack, so their gradients are summed
over the batch. The elementwise ops are shape-agnostic; `bce_logits` and
`graph_sum`, the two reductions to a scalar, sum each graph of a stack apart
and weight it by a number of its own.

Gradients accumulate: replaying a tape without zero_grads doubles them,
and the backward passes of several tapes sum into the same Param.grad.
Training relies on this to give each stack of graphs a tape of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import NonScalarLossError, ShapeMismatchError


def _as_f64(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


@dataclass
class Param:
    """A named trainable matrix with an accumulating gradient buffer."""

    value: np.ndarray
    name: str = ""
    grad: np.ndarray = field(init=False)

    def __post_init__(self):
        self.value = _as_f64(self.value)
        self.grad = np.zeros_like(self.value)


@dataclass
class _Node:
    value: np.ndarray
    parents: tuple[int, ...]
    vjp: Optional[Callable[[np.ndarray], tuple[Optional[np.ndarray], ...]]]
    param: Optional[Param] = None


class Tape:
    """Single-session operation recorder. Not shareable across threads."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def _record(self, value, parents=(), vjp=None, param=None) -> int:
        self.nodes.append(_Node(_as_f64(value), tuple(parents), vjp, param))
        return len(self.nodes) - 1

    def value(self, node: int) -> np.ndarray:
        return self.nodes[node].value

    def _is_const(self, node: int) -> bool:
        return self.nodes[node].vjp is None and self.nodes[node].param is None

    def const(self, value) -> int:
        """Leaf with no gradient path (inputs, masks, fixed noise)."""
        return self._record(value)

    def param(self, p: Param) -> int:
        """Leaf bound to a Param; backward adds into p.grad."""
        return self._record(p.value, (), None, param=p)

    # forward ops ----------------------------------------------------------

    def matmul(self, a: int, b: int) -> int:
        """2-D @ 2-D, or stack @ stack of the same B."""
        va, vb = self.value(a), self.value(b)
        if (va.ndim not in (2, 3) or vb.ndim != va.ndim
                or va.shape[:-2] != vb.shape[:-2] or va.shape[-1] != vb.shape[-2]):
            raise ShapeMismatchError(
                f"matmul: incompatible shapes {va.shape} @ {vb.shape}"
            )
        return self._record(va @ vb, (a, b), lambda g: (
            g @ np.swapaxes(vb, -1, -2), np.swapaxes(va, -1, -2) @ g))

    def gram(self, z: int) -> int:
        """Z Z^T of a matrix, or of each matrix in a stack."""
        vz = self.value(z)
        if vz.ndim not in (2, 3):
            raise ShapeMismatchError(f"gram: need 2-D or 3-D, got {vz.shape}")
        vt = np.swapaxes(vz, -1, -2)
        return self._record(vz @ vt, (z,), lambda g: (
            g @ vz + np.swapaxes(vt @ g, -1, -2),))

    def add(self, a: int, b: int) -> int:
        va, vb = self.value(a), self.value(b)
        if va.shape != vb.shape:
            raise ShapeMismatchError(f"add: shapes {va.shape} != {vb.shape}")
        return self._record(va + vb, (a, b), lambda g: (g, g))

    def elementwise_mul(self, a: int, b: int) -> int:
        va, vb = self.value(a), self.value(b)
        if va.shape != vb.shape:
            raise ShapeMismatchError(
                f"elementwise_mul: shapes {va.shape} != {vb.shape}"
            )
        return self._record(va * vb, (a, b), lambda g: (g * vb, g * va))

    def scalar_mul(self, c: float, a: int) -> int:
        c = float(c)
        return self._record(c * self.value(a), (a,), lambda g: (c * g,))

    def exp(self, a: int) -> int:
        out = np.exp(self.value(a))
        return self._record(out, (a,), lambda g: (g * out,))

    def clip(self, a: int, lo: float, hi: float) -> int:
        va = self.value(a)
        mask = (va >= lo) & (va <= hi)
        return self._record(np.clip(va, lo, hi), (a,), lambda g: (g * mask,))

    def gcn_layer(self, a_norm: int, h: int, w: int, b: int, relu: bool) -> int:
        """One GCN layer, act((A @ H) @ W + b) with act relu or identity, on
        a graph, H (n, d_in) with A (n, n), or a stack, H (B, n, d_in) with
        A (B, n, n). W (d_in, d_out) and b (1, d_out) are shared across the
        stack. A must be a constant: no gradient is formed for it, nor for
        an H that is a constant."""
        va, vh, vw, vb = (self.value(i) for i in (a_norm, h, w, b))
        if (vh.ndim not in (2, 3) or va.shape != vh.shape[:-1] + vh.shape[-2:-1]
                or vw.ndim != 2 or vh.shape[-1] != vw.shape[0]
                or vb.shape != (1, vw.shape[1])):
            raise ShapeMismatchError(
                f"gcn_layer: A {va.shape}, H {vh.shape}, W {vw.shape}, b {vb.shape}"
            )
        if not self._is_const(a_norm):
            raise ValueError("gcn_layer: A must be a constant node")
        h_const = self._is_const(h)
        ah = va @ vh
        pre = ah @ vw + vb

        def vjp(g):
            if relu:
                g = g * (pre > 0)
            # one GEMM over all B*n rows sums the per-slice gradients
            g2 = g.reshape(-1, g.shape[-1])
            return (None if h_const else np.swapaxes(va, -1, -2) @ (g @ vw.T),
                    ah.reshape(-1, ah.shape[-1]).T @ g2,
                    g2.sum(axis=0, keepdims=True))

        return self._record(np.maximum(pre, 0.0) if relu else pre, (h, w, b), vjp)

    def bce_logits(self, logits: int, c1, c2, count) -> int:
        """Weighted BCE on the logits l of a graph (n, n) or a stack
        (B, n, n): the sum over graphs b of (sum(c1 softplus(-l)) +
        sum(c2 softplus(l))) / count_b, with c1, c2 constant arrays shaped
        like l and count a number or one per graph. Its gradient is
        (c2 sigmoid(l) - c1 sigmoid(-l)) / count_b. A NaN or infinite logit
        gives a loss that is not finite, without a warning.

        softplus(+-l) = max(+-l, 0) + log1p(e) and sigmoid(+-l) is 1 / (1 + e)
        or e / (1 + e), picked by the sign of +-l, all from one e = exp(-|l|),
        so exp never overflows and the backward pass calls no exp."""
        vl = self.value(logits)
        c1, c2, count = _as_f64(c1), _as_f64(c2), _as_f64(count)
        if (vl.ndim < 2 or c1.shape != vl.shape or c2.shape != vl.shape
                or count.shape not in ((), vl.shape[:-2])):
            raise ShapeMismatchError(
                f"bce_logits: logits {vl.shape}, weights {c1.shape} and {c2.shape}, "
                f"count {count.shape}"
            )
        # in place where it can be: a fresh N x N temporary costs more in
        # allocation and page faults than the arithmetic on it
        e = np.abs(vl)
        np.exp(np.negative(e, out=e), out=e)
        log1p_e = np.log1p(e)
        term = np.negative(vl)
        np.maximum(term, 0.0, out=term)
        with np.errstate(invalid="ignore"):  # 0 * inf on an infinite logit
            term += log1p_e
            term *= c1
            loss = term.sum(axis=(-2, -1))
            np.maximum(vl, 0.0, out=term)
            term += log1p_e
            term *= c2
            loss = ((loss + term.sum(axis=(-2, -1))) / count).sum()
        # 1 / count_b on each cell of graph b
        per_cell = count[..., None, None]

        def vjp(g):
            big = 1.0 + e
            small = np.divide(e, big)
            np.divide(1.0, big, out=big)
            grad = np.where(vl >= 0, big, small)  # sigmoid(l)
            grad *= c2
            np.copyto(small, big, where=vl <= 0)  # sigmoid(-l)
            small *= c1
            grad -= small
            grad *= float(g) / per_cell
            return (grad,)

        return self._record(loss, (logits,), vjp)

    def graph_sum(self, a: int, mask, scale) -> int:
        """The sum over graphs b of scale_b * sum(mask_b * a_b), for a graph
        a (n, m) or a stack (B, n, m); mask is a constant that broadcasts to
        a and scale a number or one per graph. Its gradient is
        scale_b * mask_b. A mask of ones gives scale * sum(a) to the bit."""
        va = self.value(a)
        mask, scale = _as_f64(mask), _as_f64(scale)
        if va.ndim < 2 or scale.shape not in ((), va.shape[:-2]):
            raise ShapeMismatchError(f"graph_sum: a {va.shape}, scale {scale.shape}")
        weight = np.broadcast_to(mask * scale[..., None, None], va.shape)
        value = ((va * mask).sum(axis=(-2, -1)) * scale).sum()
        return self._record(value, (a,), lambda g: (float(g) * weight,))

    # backward ---------------------------------------------------------------

    def backward(self, loss_node: int) -> None:
        loss = self.nodes[loss_node].value
        if loss.size != 1:
            raise NonScalarLossError(
                f"backward needs a scalar loss, got shape {loss.shape}"
            )
        grads: dict[int, np.ndarray] = {loss_node: np.ones_like(loss)}
        for nid in range(loss_node, -1, -1):
            g = grads.pop(nid, None)
            if g is None:
                continue
            node = self.nodes[nid]
            if node.param is not None:
                node.param.grad += g
            if node.vjp is None:
                continue
            for pid, pg in zip(node.parents, node.vjp(g)):
                if pg is None:
                    continue
                if pid in grads:
                    grads[pid] = grads[pid] + pg
                else:
                    grads[pid] = pg


def zero_grads(params: Iterable[Param]) -> None:
    for p in params:
        p.grad[...] = 0.0


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and its guard


class Adam:
    """Standard bias-corrected Adam; moment state persists across steps.

    Adam holds its parameters: their values and gradients are copied, in
    param order, into one `value` and one `grad` vector, and each
    Param.value and Param.grad becomes a view into them, so a Param given
    twice is a ValueError. `step` updates the whole vectors at once; the
    update is elementwise, so it gives the bits of one update per Param."""

    def __init__(self, params: Sequence[Param], lr: float = 0.01):
        params = list(params)
        if len({id(p) for p in params}) != len(params):
            raise ValueError("Adam: a Param is given more than once")
        self.lr, self.t = lr, 0
        self.value = np.concatenate([p.value.ravel() for p in params] or [np.empty(0)])
        self.grad = np.concatenate([p.grad.ravel() for p in params] or [np.empty(0)])
        self.m, self.v = np.zeros_like(self.value), np.zeros_like(self.value)
        end = 0
        for p in params:
            start, end = end, end + p.value.size
            p.value = self.value[start:end].reshape(p.value.shape)
            p.grad = self.grad[start:end].reshape(p.grad.shape)

    def step(self) -> None:
        self.t += 1
        g, m, v = self.grad, self.m, self.v
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1 ** self.t)
        v_hat = v / (1.0 - BETA2 ** self.t)
        self.value -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

    def zero_grads(self) -> None:
        self.grad[...] = 0.0


def seeded_rng(*key: int) -> np.random.Generator:
    """PCG64 generator keyed by an integer tuple; same key, same stream."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))
