"""Reverse-mode autodiff over dense float64 matrices and stacks of them.

A Tape records forward operations as an append-only list of nodes; node ids
are topological by construction. backward() seeds the scalar loss with 1 and
sweeps the tape once in reverse, accumulating vector-Jacobian products into
Param.grad. The op set is the minimum needed by GCN layers, inner-product
decoders, and BCE/ELBO losses, and every rule is checkable against central
finite differences.

`matmul`, `transpose` and `add_bias` also take a stack of B matrices on a
leading axis, (B, n, m): stack @ stack multiplies slice by slice, and stack @
2-D matrix shares the matrix across the stack, so its gradient is summed over
the batch. The elementwise ops and `sum` are shape-agnostic.

Gradients accumulate: replaying a tape without zero_grads doubles them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DomainError, NonScalarLossError, ShapeMismatchError


def _as_f64(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Two-branch logistic; exp sees only non-positive arguments."""
    x = _as_f64(x)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass
class Param:
    """A named trainable matrix with an accumulating gradient buffer."""

    value: np.ndarray
    name: str = ""
    grad: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.value = _as_f64(self.value)
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        else:
            self.grad = _as_f64(self.grad)
            if self.grad.shape != self.value.shape:
                raise ShapeMismatchError(
                    f"param {self.name!r}: grad shape {self.grad.shape} "
                    f"!= value shape {self.value.shape}"
                )


@dataclass
class _Node:
    value: np.ndarray
    parents: tuple[int, ...]
    vjp: Optional[Callable[[np.ndarray], tuple[np.ndarray, ...]]]
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

    def const(self, value) -> int:
        """Leaf with no gradient path (inputs, masks, fixed noise)."""
        return self._record(value)

    def param(self, p: Param) -> int:
        """Leaf bound to a Param; backward adds into p.grad."""
        return self._record(p.value, (), None, param=p)

    # forward ops ----------------------------------------------------------

    def matmul(self, a: int, b: int) -> int:
        """2-D @ 2-D, stack @ stack of the same B, or stack @ shared 2-D."""
        va, vb = self.value(a), self.value(b)
        batch_ok = (va.ndim, vb.ndim) in ((2, 2), (3, 2)) or (
            va.ndim == vb.ndim == 3 and va.shape[0] == vb.shape[0])
        if not batch_ok or va.shape[-1] != vb.shape[-2]:
            raise ShapeMismatchError(
                f"matmul: incompatible shapes {va.shape} @ {vb.shape}"
            )
        shared = va.ndim > vb.ndim

        def vjp(g):
            ga = g @ np.swapaxes(vb, -1, -2)
            if shared:
                # one GEMM over all B*n rows sums the per-slice gradients
                return ga, va.reshape(-1, va.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            return ga, np.swapaxes(va, -1, -2) @ g

        return self._record(va @ vb, (a, b), vjp)

    def transpose(self, a: int) -> int:
        """Swap the last two axes of a matrix or of each matrix in a stack."""
        va = self.value(a)
        if va.ndim not in (2, 3):
            raise ShapeMismatchError(f"transpose: need 2-D or 3-D, got {va.shape}")
        return self._record(np.swapaxes(va, -1, -2), (a,),
                            lambda g: (np.swapaxes(g, -1, -2),))

    def add(self, a: int, b: int) -> int:
        va, vb = self.value(a), self.value(b)
        if va.shape != vb.shape:
            raise ShapeMismatchError(f"add: shapes {va.shape} != {vb.shape}")
        return self._record(va + vb, (a, b), lambda g: (g, g))

    def add_bias(self, a: int, bias: int) -> int:
        """Row-broadcast add: (n, d) matrix or (B, n, d) stack plus (1, d) bias."""
        va, vb = self.value(a), self.value(bias)
        if va.ndim not in (2, 3) or vb.shape != (1, va.shape[-1]):
            raise ShapeMismatchError(
                f"add_bias: matrix {va.shape} with bias {vb.shape}"
            )

        def vjp(g):
            return g, g.reshape(-1, g.shape[-1]).sum(axis=0, keepdims=True)

        return self._record(va + vb, (a, bias), vjp)

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

    def sigmoid(self, a: int) -> int:
        out = stable_sigmoid(self.value(a))
        return self._record(out, (a,), lambda g: (g * out * (1.0 - out),))

    def relu(self, a: int) -> int:
        va = self.value(a)
        return self._record(np.maximum(va, 0.0), (a,), lambda g: (g * (va > 0),))

    def exp(self, a: int) -> int:
        out = np.exp(self.value(a))
        return self._record(out, (a,), lambda g: (g * out,))

    def log(self, a: int) -> int:
        va = self.value(a)
        if (va <= 0).any():
            raise DomainError("log requires strictly positive entries")
        return self._record(np.log(va), (a,), lambda g: (g / va,))

    def sum(self, a: int) -> int:
        va = self.value(a)
        return self._record(va.sum(), (a,), lambda g: (np.full(va.shape, float(g)),))

    def mean(self, a: int) -> int:
        va = self.value(a)
        return self._record(
            va.mean(), (a,), lambda g: (np.full(va.shape, float(g) / va.size),)
        )

    def clip(self, a: int, lo: float, hi: float) -> int:
        va = self.value(a)
        mask = (va >= lo) & (va <= hi)
        return self._record(np.clip(va, lo, hi), (a,), lambda g: (g * mask,))

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
                if pid in grads:
                    grads[pid] = grads[pid] + pg
                else:
                    grads[pid] = pg


def zero_grads(params: Iterable[Param]) -> None:
    for p in params:
        p.grad[...] = 0.0


class Adam:
    """Standard bias-corrected Adam; moment state persists across steps."""

    def __init__(self, params: Sequence[Param], lr: float = 0.01,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grads(self) -> None:
        zero_grads(self.params)


def seeded_rng(*key: int) -> np.random.Generator:
    """PCG64 generator keyed by an integer tuple; same key, same stream."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))
