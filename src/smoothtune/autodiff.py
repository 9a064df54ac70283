"""Tape-based reverse-mode automatic differentiation over float64 numpy values.

A Tape records primitive applications in topological order as they are built;
forward values are computed eagerly so intermediate results are immediately
usable. One backward sweep per scalar output yields gradients for every
requested leaf, in a fixed order, so identical tapes produce bitwise identical
gradients. Forward values needed by adjoint rules are captured by the adjoint
closures rather than recomputed.

Nothing a tape holds points back at a Var, so a tape and its intermediates are
freed by reference counting as soon as the last Var or tape reference goes. A
ForwardTape runs the same ops but records nothing, so forward-only passes keep
an intermediate only while the next op still needs it.
"""

from __future__ import annotations

import weakref
from typing import Callable

import numpy as np

from . import tensor as tc
from .errors import ContractViolation


class Var:
    """Immutable value at a tape node. Hashable by identity for gradient maps."""

    __slots__ = ("tape", "index", "value", "__weakref__")

    def __init__(self, tape: "Tape", index: int, value: np.ndarray):
        self.tape = tape
        self.index = index
        self.value = value

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, Var):
            return mul(self, other)
        return cmul(self, float(other))

    def __rmul__(self, other):
        return cmul(self, float(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Var(shape={self.value.shape}, node={self.index})"


class _Node:
    __slots__ = ("parents", "vjp")

    def __init__(self, parents: tuple[int, ...], vjp: Callable | None):
        self.parents = parents
        self.vjp = vjp


class Tape:
    """Single-owner recording of a computation; reusable for one or more backward sweeps.

    Gradient-requested leaves are held by weak reference, so the tape never
    keeps a Var alive and the Var -> tape edge forms no cycle.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._grad_leaves: list[weakref.ref] = []

    def __len__(self):
        return len(self._nodes)

    def leaf(self, value, requires_grad: bool = False) -> Var:
        """Enter a value as a leaf; gradient is tracked only if requested."""
        v = self._record(tc.as_tensor(value), (), None)
        if requires_grad:
            self._grad_leaves.append(weakref.ref(v))
        return v

    def const(self, value) -> Var:
        return self.leaf(value, requires_grad=False)

    def _record(self, value: np.ndarray, parents: tuple[int, ...], vjp) -> Var:
        self._nodes.append(_Node(parents, vjp))
        return Var(self, len(self._nodes) - 1, value)

    def backward(self, output: Var) -> dict[Var, np.ndarray]:
        """Reverse sweep from a scalar output.

        Returns a map from every gradient-requested leaf still alive to its
        gradient; leaves unreachable from the output get zeros.
        """
        if output.tape is not self:
            raise ContractViolation("backward: output does not live on this tape")
        if output.value.shape != ():
            raise ContractViolation(
                f"backward: output must be scalar, got shape {output.value.shape}"
            )
        adjoints: list[np.ndarray | None] = [None] * len(self._nodes)
        adjoints[output.index] = np.ones(())
        for i in range(output.index, -1, -1):
            g = adjoints[i]
            if g is None:
                continue
            node = self._nodes[i]
            if node.vjp is None:
                continue
            for parent, part in zip(node.parents, node.vjp(g)):
                if part is None:
                    continue
                if adjoints[parent] is None:
                    adjoints[parent] = part
                else:
                    adjoints[parent] = adjoints[parent] + part
        grads: dict[Var, np.ndarray] = {}
        for ref in self._grad_leaves:
            leaf = ref()
            if leaf is None:
                continue
            g = adjoints[leaf.index]
            grads[leaf] = g if g is not None else np.zeros_like(leaf.value)
        return grads


class ForwardTape(Tape):
    """Record-nothing tape for forward-only passes: the ops compute the same
    values, but no node, adjoint closure or value is kept, so each intermediate
    is freed once the next op has consumed it."""

    def __init__(self):
        pass

    def __len__(self):
        return 0

    def leaf(self, value, requires_grad: bool = False) -> Var:
        return Var(self, -1, tc.as_tensor(value))

    def _record(self, value: np.ndarray, parents: tuple[int, ...], vjp) -> Var:
        return Var(self, -1, value)

    def backward(self, output: Var) -> dict[Var, np.ndarray]:
        raise ContractViolation("backward: a forward-only tape records nothing to differentiate")


def _same_tape(*vars_: Var) -> Tape:
    tape = vars_[0].tape
    for v in vars_[1:]:
        if v.tape is not tape:
            raise ContractViolation("operands recorded on different tapes")
    return tape


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# -- arithmetic --------------------------------------------------------------

def add(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    return tape._record(tc.add(a.value, b.value), (a.index, b.index), lambda g: (g, g))


def add_broadcast(a: Var, b: Var) -> Var:
    """a + b where b's shape equals the trailing axes of a's (bias, position table)."""
    tape = _same_tape(a, b)
    if b.value.shape != a.value.shape[a.value.ndim - b.value.ndim:]:
        raise ContractViolation(
            f"add_broadcast: {b.value.shape} is not a trailing-shape of {a.value.shape}"
        )
    bshape = b.value.shape
    return tape._record(
        a.value + b.value, (a.index, b.index), lambda g: (g, _reduce_to(g, bshape))
    )


def sub(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    return tape._record(tc.sub(a.value, b.value), (a.index, b.index), lambda g: (g, -g))


def neg(a: Var) -> Var:
    return a.tape._record(-a.value, (a.index,), lambda g: (-g,))


def mul(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    return tape._record(tc.mul(av, bv), (a.index, b.index), lambda g: (g * bv, g * av))


def cmul(a: Var, c: float) -> Var:
    return a.tape._record(c * a.value, (a.index,), lambda g: (c * g,))


def mul_const(a: Var, arr: np.ndarray) -> Var:
    """Elementwise product with a non-differentiated constant (dropout masks)."""
    if arr.shape != a.value.shape:
        raise ContractViolation(f"mul_const: shape mismatch {a.value.shape} vs {arr.shape}")
    return a.tape._record(a.value * arr, (a.index,), lambda g: (g * arr,))


def matmul(a: Var, b: Var) -> Var:
    """Matrix product; operands of rank >= 2, leading axes broadcast per numpy rules."""
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.ndim < 2 or bv.ndim < 2:
        raise ContractViolation(f"matmul: expected rank >= 2, got {av.shape} and {bv.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise ContractViolation(f"matmul: inner dimensions differ, {av.shape} vs {bv.shape}")
    if av.ndim == 2 and bv.ndim == 2:
        value = tc.matmul(av, bv)
    else:
        value = np.matmul(av, bv)

    def vjp(g):
        ga = _reduce_to(np.matmul(g, bv.swapaxes(-1, -2)), av.shape)
        gb = _reduce_to(np.matmul(av.swapaxes(-1, -2), g), bv.shape)
        return ga, gb

    return tape._record(value, (a.index, b.index), vjp)


def swapaxes(a: Var, ax1: int, ax2: int) -> Var:
    return a.tape._record(
        np.ascontiguousarray(a.value.swapaxes(ax1, ax2)),
        (a.index,),
        lambda g: (g.swapaxes(ax1, ax2),),
    )


def reshape(a: Var, shape) -> Var:
    old = a.value.shape
    return a.tape._record(
        a.value.reshape(shape), (a.index,), lambda g: (g.reshape(old),)
    )


# -- nonlinearities ----------------------------------------------------------

def relu(a: Var) -> Var:
    av = a.value
    return a.tape._record(tc.relu(av), (a.index,), lambda g: (g * (av > 0),))


def tanh(a: Var) -> Var:
    t = tc.tanh(a.value)
    return a.tape._record(t, (a.index,), lambda g: (g * (1.0 - t * t),))


def exp(a: Var) -> Var:
    e = np.exp(a.value)
    return a.tape._record(e, (a.index,), lambda g: (g * e,))


def log(a: Var) -> Var:
    av = a.value
    return a.tape._record(np.log(av), (a.index,), lambda g: (g / av,))


def clip(a: Var, lo: float, hi: float) -> Var:
    """Clamp to [lo, hi]; gradient passes through where the input lies inside the range."""
    av = a.value
    return a.tape._record(np.clip(av, lo, hi), (a.index,),
                          lambda g: (g * ((av >= lo) & (av <= hi)),))


def softmax(a: Var) -> Var:
    """Stable softmax over the last axis."""
    y = tc.softmax_row(a.value)

    def vjp(g):
        return (y * (g - np.sum(g * y, axis=-1, keepdims=True)),)

    return a.tape._record(y, (a.index,), vjp)


def layer_norm(a: Var, gain: Var, bias: Var, eps: float = 1e-5) -> Var:
    """Normalize over the last axis, then scale and shift."""
    tape = _same_tape(a, gain, bias)
    av = a.value
    mu = av.mean(axis=-1, keepdims=True)
    var = ((av - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (av - mu) * inv
    gv = gain.value
    bshape = bias.value.shape

    def vjp(g):
        gx = g * gv
        dx = inv * (
            gx
            - gx.mean(axis=-1, keepdims=True)
            - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        )
        ggain = _reduce_to(g * xhat, gv.shape)
        gbias = _reduce_to(g, bshape)
        return dx, ggain, gbias

    return tape._record(xhat * gv + bias.value, (a.index, gain.index, bias.index), vjp)


# -- reductions and indexing -------------------------------------------------

def sum_all(a: Var) -> Var:
    shape = a.value.shape
    return a.tape._record(
        np.sum(a.value), (a.index,), lambda g: (np.broadcast_to(g, shape).copy(),)
    )


def mean_all(a: Var) -> Var:
    shape = a.value.shape
    n = a.value.size
    return a.tape._record(
        np.mean(a.value), (a.index,), lambda g: (np.broadcast_to(g / n, shape).copy(),)
    )


def mean_axis(a: Var, axis: int) -> Var:
    n = a.value.shape[axis]

    def vjp(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return a.tape._record(a.value.mean(axis=axis), (a.index,), vjp)


def pick(a: Var, idx: np.ndarray) -> Var:
    """Select a[i, idx[i]] from a 2-D tensor; the per-row entry used by cross-entropy."""
    if a.value.ndim != 2:
        raise ContractViolation(f"pick: expected 2-D tensor, got {a.value.shape}")
    rows = np.arange(a.value.shape[0])
    shape = a.value.shape

    def vjp(g):
        out = np.zeros(shape)
        out[rows, idx] = g
        return (out,)

    return a.tape._record(a.value[rows, idx], (a.index,), vjp)


def gather_rows(table: Var, ids: np.ndarray) -> Var:
    """Embedding lookup: output shape ids.shape + (row_dim,); adjoint scatter-adds."""
    tv = table.value
    value = tv[ids]

    def vjp(g):
        out = np.zeros_like(tv)
        np.add.at(out, ids.ravel(), g.reshape(-1, tv.shape[-1]))
        return (out,)

    return table.tape._record(value, (table.index,), vjp)


def stop_gradient(a: Var) -> Var:
    """Same forward value; backward treats it as a constant."""
    return a.tape._record(a.value, (a.index,), lambda g: (None,))
