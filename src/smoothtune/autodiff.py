"""Tape-based reverse-mode automatic differentiation over float64 numpy values.

A Tape records primitive applications in topological order as they are built;
forward values are computed eagerly so intermediate results are immediately
usable. One backward sweep per scalar output yields gradients for every
requested leaf, in a fixed order, so identical tapes produce bitwise identical
gradients. Forward values needed by adjoint rules are captured by the adjoint
closures rather than recomputed.

Nothing a tape holds points back at a Var, so a tape and its intermediates are
freed by reference counting as soon as the last Var or tape reference goes.

A dense layer is one node: `affine` forms x @ w, then adds the bias and
applies the activation in place in the product's buffer. As three ops
(matmul, add_broadcast, activation) a layer would allocate three
activation-sized arrays, and over large batches those cost about as much as
the product itself. The one node does the same float ops in the same order, so
its values and adjoints equal the three-op chain's bit for bit.

So is attention: `attention` splits q, k and v into heads, forms
softmax(q k^T / sqrt(hd)) v per head and joins the heads, as 15 reshape,
swapaxes, matmul, cmul and softmax nodes did. Its heads are the chain's
contiguous copies (k^T made in one copy, not two), so each product is the same
BLAS call, and its adjoint runs the chain's expressions in the chain's order
on the same views: values and adjoints are the chain's, bit for bit.

A tape made with recycle=True and reused for many same-shape passes hands
dense layers the dead output buffers of earlier passes. glibc maps each large
fresh array from the kernel and unmaps it on free, so over the probe's 10k
points page faults, not FLOPs, were what fresh buffers cost. A tape for one
pass does not pool: holding its dead buffers to the end would raise its peak.

Adjoints flow only toward gradient leaves: a node is live when it is a
requires_grad leaf or has a live parent. A dead node (a constant, an ascent
step's weights) keeps no closure, and `affine`, `attention`, `layer_norm` and
`add_broadcast` compute no part for a dead parent; a part that reaches no leaf
changes none that does, so gradients are those of a full sweep, bit for bit.
A forward-only pass is a tape whose leaves want no gradient: every node is
dead, so each intermediate lives only while the next op still needs it.

Ops are rank-generic: a leading stack axis on both operands (S runs trained as
one) gives every slice the values and adjoints of its own unstacked run, bit
for bit. Broadcast operands are reduced one axis at a time, in the order an
unstacked run reduces them.
"""

from __future__ import annotations

import sys
import weakref

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

    def __repr__(self):
        return f"Var(shape={self.value.shape}, node={self.index})"


class Tape:
    """Single-owner recording of a computation; reusable for one or more backward sweeps.

    Gradient-requested leaves are held by weak reference, so the tape never
    keeps a Var alive and the Var -> tape edge forms no cycle.
    """

    def __init__(self, recycle: bool = False):
        self._nodes: list[tuple | None] = []  # (parent indices, adjoint rule), None if dead
        self._grad_leaves: list[weakref.ref] = []
        self._pool: list[np.ndarray] | None = [] if recycle else None

    def __len__(self):
        return len(self._nodes)

    def leaf(self, value, requires_grad: bool = False) -> Var:
        """Enter a value as a leaf; gradient is tracked only if requested."""
        v = self._record(tc.as_tensor(value), (), None)
        if requires_grad:
            self._nodes[v.index] = ((), None)  # live, with no parent to pass to
            self._grad_leaves.append(weakref.ref(v))
        return v

    def const(self, value) -> Var:
        return self.leaf(value, requires_grad=False)

    def _record(self, value: np.ndarray, parents: tuple[int, ...], vjp) -> Var:
        nodes = self._nodes
        # a live node is a non-empty tuple, so truthy
        nodes.append((parents, vjp) if any(map(nodes.__getitem__, parents)) else None)
        return Var(self, len(nodes) - 1, value)

    def needs(self, v: Var) -> bool:
        """Whether v is live: an adjoint of it can reach a requires_grad leaf."""
        return self._nodes[v.index] is not None

    def _buffer(self, shape: tuple[int, ...]) -> np.ndarray:
        """A float64 array of `shape` for an op's output from the pool: one that
        nothing outside the pool holds (never an output the caller keeps, the
        base of a live view or a value an adjoint reads), or a fresh one that
        joins the pool."""
        for buf in self._pool:
            if buf.shape == shape and sys.getrefcount(buf) == _POOL_ONLY_REFS:
                return buf
        buf = np.empty(shape)
        self._pool.append(buf)
        return buf

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
        leaves = [leaf for leaf in (ref() for ref in self._grad_leaves) if leaf is not None]
        keep = {leaf.index for leaf in leaves}
        nodes = self._nodes
        adjoints: list[np.ndarray | None] = [None] * len(nodes)
        adjoints[output.index] = np.ones(())
        for i in range(output.index, -1, -1):
            g = adjoints[i]
            if g is None:
                continue
            if i not in keep:
                adjoints[i] = None  # consumed: its parents get their parts below
            parents, vjp = nodes[i] or ((), None)
            if vjp is None:
                continue
            for parent, part in zip(parents, vjp(g)):
                if part is None or nodes[parent] is None:
                    continue
                if adjoints[parent] is None:
                    adjoints[parent] = part
                else:
                    adjoints[parent] = adjoints[parent] + part
        grads: dict[Var, np.ndarray] = {}
        for leaf in leaves:
            g = adjoints[leaf.index]
            grads[leaf] = g if g is not None else np.zeros_like(leaf.value)
        return grads


def _pool_only_refs() -> int:
    """sys.getrefcount of an array held only by a pool list, read the way
    Tape._buffer reads it (list, loop name, argument)."""
    pool = [np.empty(0)]
    for buf in pool:
        return sys.getrefcount(buf)


_POOL_ONLY_REFS = _pool_only_refs()


def _same_tape(*vars_: Var) -> Tape:
    tape = vars_[0].tape
    for v in vars_[1:]:
        if v.tape is not tape:
            raise ContractViolation("operands recorded on different tapes")
    return tape


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = np.add.reduce(g, axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = np.add.reduce(g, axis=ax, keepdims=True)
    return g


def _check_broadcast(bshape: tuple[int, ...], shape: tuple[int, ...], op: str) -> None:
    """Refuse an operand that does not broadcast to `shape` without growing it."""
    if len(bshape) > len(shape) or any(nb not in (1, n) for nb, n in zip(bshape[::-1], shape[::-1])):
        raise ContractViolation(f"{op}: {bshape} does not broadcast to {shape}")


# -- arithmetic --------------------------------------------------------------

def _require_same_shape(av: np.ndarray, bv: np.ndarray, op: str) -> None:
    if av.shape != bv.shape:
        raise ContractViolation(f"{op}: shape mismatch {av.shape} vs {bv.shape}")


def add(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    _require_same_shape(a.value, b.value, "add")
    return tape._record(a.value + b.value, (a.index, b.index), lambda g: (g, g))


def add_broadcast(a: Var, b: Var) -> Var:
    """a + b where b broadcasts to a's shape (bias, gain, position table)."""
    tape = _same_tape(a, b)
    bshape = b.value.shape
    _check_broadcast(bshape, a.value.shape, "add_broadcast")
    need_b = tape.needs(b)
    return tape._record(a.value + b.value, (a.index, b.index),
                        lambda g: (g, _reduce_to(g, bshape) if need_b else None))


def sub(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    _require_same_shape(a.value, b.value, "sub")
    return tape._record(a.value - b.value, (a.index, b.index), lambda g: (g, -g))


def mul(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    _require_same_shape(av, bv, "mul")
    return tape._record(av * bv, (a.index, b.index), lambda g: (g * bv, g * av))


def cmul(a: Var, c: float) -> Var:
    return a.tape._record(c * a.value, (a.index,), lambda g: (c * g,))


def mul_const(a: Var, arr: np.ndarray) -> Var:
    """Elementwise product with a non-differentiated constant (dropout masks)."""
    _require_same_shape(a.value, arr, "mul_const")
    return a.tape._record(a.value * arr, (a.index,), lambda g: (g * arr,))


def _product(av: np.ndarray, bv: np.ndarray, op: str, tape: Tape) -> np.ndarray:
    """av @ bv for operands of rank >= 2, leading axes broadcast per numpy rules;
    written into a buffer from `tape` when the tape pools its buffers."""
    if av.ndim < 2 or bv.ndim < 2:
        raise ContractViolation(f"{op}: expected rank >= 2, got {av.shape} and {bv.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise ContractViolation(f"{op}: inner dimensions differ, {av.shape} vs {bv.shape}")
    if tape._pool is None:
        return np.matmul(av, bv)
    lead = np.broadcast_shapes(av.shape[:-2], bv.shape[:-2])
    return np.matmul(av, bv, out=tape._buffer(lead + (av.shape[-2], bv.shape[-1])))


def _product_vjp(tape: Tape, a: Var, b: Var):
    """g -> the adjoints of a.value @ b.value toward a and b, None toward a
    dead operand; it keeps only the values its live parts read."""
    ashape, bshape = a.value.shape, b.value.shape
    av, bv = (a.value if tape.needs(b) else None), (b.value if tape.needs(a) else None)
    return lambda g: (
        None if bv is None else _reduce_to(np.matmul(g, bv.swapaxes(-1, -2)), ashape),
        None if av is None else _reduce_to(np.matmul(av.swapaxes(-1, -2), g), bshape))


def affine(x: Var, w: Var, b: Var, act: str | None = None) -> Var:
    """act(x @ w + b) as one node, with act "tanh", "relu" or None; b broadcasts
    to the product's shape.

    Values and adjoints equal those of matmul, add_broadcast and the
    activation recorded one after another. The relu mask is read off the
    output: y > 0 exactly where the input is > 0, NaN included.
    """
    tape = _same_tape(x, w, b)
    y = _product(x.value, w.value, "affine", tape)
    bshape = b.value.shape
    _check_broadcast(bshape, y.shape, "affine")
    y += b.value
    if act == "tanh":
        np.tanh(y, out=y)
    elif act == "relu":
        np.maximum(y, 0.0, out=y)
    elif act is not None:
        raise ContractViolation(f"affine: unknown activation {act!r}")
    out = None if act is None else y  # a plain affine's vjp keeps no output alive
    product_vjp, need_b = _product_vjp(tape, x, w), tape.needs(b)

    def vjp(g):
        if act == "tanh":
            g = g * (1.0 - out * out)
        elif act == "relu":
            g = g * (out > 0)
        return (*product_vjp(g), _reduce_to(g, bshape) if need_b else None)

    return tape._record(y, (x.index, w.index, b.index), vjp)


def attention(q: Var, k: Var, v: Var, heads: int) -> Var:
    """Multi-head scaled dot-product attention over q, k, v of shape [..., seq,
    d], split into `heads` heads of width hd = d / heads (see the module docstring)."""
    tape = _same_tape(q, k, v)
    shape = q.value.shape
    if not k.value.shape == v.value.shape == shape or shape[-1] % heads:
        raise ContractViolation(f"attention: {heads} heads over shapes {shape}, "
                                f"{k.value.shape}, {v.value.shape}")
    split = shape[:-1] + (heads, shape[-1] // heads)  # [..., seq, heads, hd]
    c = 1.0 / np.sqrt(split[-1])
    need_q, need_k, need_v = tape.needs(q), tape.needs(k), tape.needs(v)
    # [..., heads, seq, hd] for q and v; k^T is [..., heads, hd, seq]
    qh = np.ascontiguousarray(q.value.reshape(split).swapaxes(-3, -2))
    kt = np.ascontiguousarray(k.value.reshape(split).swapaxes(-3, -2).swapaxes(-1, -2))
    p = np.matmul(qh, kt)
    # each split copy is dropped once consumed unless an adjoint reads it
    qh, kt = (qh if need_k else None), (kt if need_q else None)
    p *= c
    tc.softmax_row(p, out=p)
    vh = np.ascontiguousarray(v.value.reshape(split).swapaxes(-3, -2))
    ctx = np.matmul(p, vh)
    out = np.ascontiguousarray(ctx.swapaxes(-3, -2)).reshape(shape)
    vh = vh if need_q or need_k else None

    def vjp(g):
        g = g.reshape(split).swapaxes(-3, -2)
        dq = dk = dv = None
        if vh is not None:
            ds = np.matmul(g, vh.swapaxes(-1, -2))
            ds = p * (ds - tc.row_sum(ds * p))
            ds *= c
            if need_q:
                dq = np.matmul(ds, kt.swapaxes(-1, -2)).swapaxes(-3, -2).reshape(shape)
            if need_k:
                dk = np.matmul(qh.swapaxes(-1, -2), ds).swapaxes(-1, -2).swapaxes(-3, -2)\
                    .reshape(shape)
        if need_v:
            dv = np.matmul(p.swapaxes(-1, -2), g).swapaxes(-3, -2).reshape(shape)
        return dq, dk, dv

    return tape._record(out, (q.index, k.index, v.index), vjp)


def reshape(a: Var, shape) -> Var:
    old = a.value.shape
    return a.tape._record(
        a.value.reshape(shape), (a.index,), lambda g: (g.reshape(old),)
    )


# -- nonlinearities ----------------------------------------------------------

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
        return (y * (g - tc.row_sum(g * y)),)

    return a.tape._record(y, (a.index,), vjp)


def layer_norm(a: Var, gain: Var, bias: Var, eps: float = 1e-5) -> Var:
    """Normalize over the last axis, then scale and shift. a - mean is formed
    once and scaled into xhat in place; a mean is np.add.reduce(...) / n, what
    ndarray.mean runs, and d * d is what ** 2 runs: the textbook formula's bits."""
    tape = _same_tape(a, gain, bias)
    av, gv = a.value, gain.value
    n = av.shape[-1]
    xhat = av - np.add.reduce(av, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / n + eps)
    xhat *= inv
    bshape = bias.value.shape
    need_a, need_gain, need_bias = tape.needs(a), tape.needs(gain), tape.needs(bias)
    # without an adjoint that reads xhat, the output is written over it
    y = np.multiply(xhat, gv, out=None if need_a or need_gain else xhat)
    y += bias.value

    def vjp(g):
        dx = None
        if need_a:
            gx = g * gv
            dx = gx - np.add.reduce(gx, axis=-1, keepdims=True) / n
            gx *= xhat
            dx -= xhat * (np.add.reduce(gx, axis=-1, keepdims=True) / n)
            dx *= inv
        return (dx, _reduce_to(g * xhat, gv.shape) if need_gain else None,
                _reduce_to(g, bshape) if need_bias else None)

    return tape._record(y, (a.index, gain.index, bias.index), vjp)


# -- reductions and indexing -------------------------------------------------

def _per_run(a: Var, lead: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """a's value with every axis after the first `lead` flattened into one, and
    the shape an adjoint of the reduced value takes to broadcast back."""
    shape = a.value.shape
    return a.value.reshape(shape[:lead] + (-1,)), shape[:lead] + (1,) * (len(shape) - lead)


def sum_all(a: Var, lead: int = 0) -> Var:
    """Sum over every axis after the first `lead`: all of them by default, or
    each run's own total when `lead` stack axes come first."""
    shape = a.value.shape
    flat, kept = _per_run(a, lead)
    return a.tape._record(
        flat.sum(axis=-1), (a.index,),
        lambda g: (np.broadcast_to(g.reshape(kept), shape).copy(),),
    )


def mean_all(a: Var, lead: int = 0) -> Var:
    """Mean over every axis after the first `lead` (see sum_all)."""
    shape = a.value.shape
    flat, kept = _per_run(a, lead)
    n = flat.shape[-1]
    return a.tape._record(
        flat.mean(axis=-1), (a.index,),
        lambda g: (np.broadcast_to((g / n).reshape(kept), shape).copy(),),
    )


def mean_axis(a: Var, axis: int) -> Var:
    n = a.value.shape[axis]

    def vjp(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return a.tape._record(a.value.mean(axis=axis), (a.index,), vjp)


def pick(a: Var, idx: np.ndarray) -> Var:
    """Select a[..., i, idx[..., i]]: per row, the entry of the last axis that
    cross-entropy uses. `idx` has a's shape without the last axis."""
    if a.value.ndim < 2 or idx.shape != a.value.shape[:-1]:
        raise ContractViolation(
            f"pick: expected rows of shape {idx.shape} + (k,), got {a.value.shape}")
    where = idx[..., None]
    shape = a.value.shape

    def vjp(g):
        out = np.zeros(shape)
        np.put_along_axis(out, where, g[..., None], axis=-1)
        return (out,)

    return a.tape._record(np.take_along_axis(a.value, where, axis=-1)[..., 0], (a.index,), vjp)


def gather_rows(table: Var, ids: np.ndarray) -> Var:
    """Embedding lookup: output shape ids.shape + (row_dim,); adjoint scatter-adds.

    A stacked table (S, rows, dim) takes ids (S, ...) and looks each slice up
    in its own table."""
    tv = table.value
    if tv.ndim == 2:
        where = ids.ravel()
        value = tv[ids]
    else:
        runs = np.arange(tv.shape[0]).reshape((-1,) + (1,) * (ids.ndim - 1))
        where = (np.broadcast_to(runs, ids.shape).ravel(), ids.ravel())
        value = tv[runs, ids]

    def vjp(g):
        out = np.zeros_like(tv)
        np.add.at(out, where, g.reshape(-1, tv.shape[-1]))
        return (out,)

    return table.tape._record(value, (table.index,), vjp)


def stop_gradient(a: Var) -> Var:
    """Same forward value; backward treats it as a constant."""
    return a.tape._record(a.value, (), None)
