"""Dense float64 tensors, a counter-based deterministic RNG, and stable numeric primitives.

Tensors are plain numpy float64 arrays in row-major (C) order; numpy supplies the
arithmetic while this module pins down the contracts (stability, determinism) the
rest of the package relies on.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

Tensor = np.ndarray


def as_tensor(data) -> Tensor:
    """Coerce to a float64 C-order array (0-d stays 0-d)."""
    a = np.asarray(data, dtype=np.float64)
    if a.ndim and not a.flags.c_contiguous:
        a = np.ascontiguousarray(a)
    return a


# numpy sums a last axis narrower than this as one left fold from 0; from this
# width on it sums pairwise, with this many accumulators.
_PAIRWISE_WIDTH = 8


def row_max(x: Tensor) -> Tensor:
    """np.max(x, axis=-1, keepdims=True) as a fold of np.maximum over columns.

    numpy reduces a last axis row by row, which on narrow rows costs far more
    than the comparisons; the fold is one vectorized op per column. Max is
    order-free, so the values are equal; a NaN's sign bit may differ, and from
    9 entries so may the sign of a zero maximum on rows mixing -0.0 and +0.0,
    which softmax does not see (exp(-0.0) == exp(0.0)).
    """
    if x.shape[-1] == 0:
        return np.max(x, axis=-1, keepdims=True)
    m = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j:j + 1], out=m)
    return m


def row_sum(x: Tensor) -> Tensor:
    """np.sum(x, axis=-1, keepdims=True), bit for bit.

    Rows of 1 to 15 entries are summed one vectorized op per step in numpy's
    own order, which on narrow rows costs far less than its row-by-row
    reduction: under 8 entries 0 + x0 + x1 + ...; from 8 the pairwise tree
    ((x0 + x1) + (x2 + x3)) + ((x4 + x5) + (x6 + x7)), then the rest in turn,
    then + 0. Wider rows keep np.add.reduce, whose blocked order takes more
    steps than it saves.
    """
    n = x.shape[-1]
    if not 0 < n < 2 * _PAIRWISE_WIDTH:
        return np.add.reduce(x, axis=-1, keepdims=True)
    if n < _PAIRWISE_WIDTH:
        s, rest = x[..., :1] + 0.0, range(1, n)
    else:
        s = x[..., 0:8:2] + x[..., 1:8:2]
        s = s[..., 0::2] + s[..., 1::2]
        s, rest = s[..., :1] + s[..., 1:], range(8, n)
    for j in rest:
        s += x[..., j:j + 1]
    if n >= _PAIRWISE_WIDTH:
        s += 0.0
    return s


def softmax_row(x: Tensor, out: Tensor | None = None) -> Tensor:
    """Softmax over the last axis, stabilized by subtracting the row maximum;
    the shift, exp and divide run in one buffer (`out`, which may be x)."""
    y = np.subtract(x, row_max(x), out=out)
    np.exp(y, out=y)
    y /= row_sum(y)
    return y


# ---------------------------------------------------------------------------
# Deterministic RNG
# ---------------------------------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_CHILD_SALT = np.uint64(0x632BE59BD9B4E019)
_U53 = float(1 << 53)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 (wrapping arithmetic)."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _draw_grid(rngs, n: int) -> np.ndarray:
    """(S, n) raw draws, row r the next n draws of rngs[r] (each advances by
    n): one _mix64 over the grid gives every stream its own bits."""
    seeds = np.array([r.seed for r in rngs], dtype=np.uint64)[:, None]
    idx = np.array([r.counter for r in rngs], dtype=np.uint64)[:, None]
    for r in rngs:
        r.counter += n
    with np.errstate(over="ignore"):
        return _mix64(seeds + (idx + np.arange(1, n + 1, dtype=np.uint64)) * _GOLDEN)


def uniform_stack(rngs, shape) -> Tensor:
    """Uniforms of shape (len(rngs),) + shape, row r drawn from rngs[r] as
    rngs[r].uniform(shape) would draw it."""
    n = int(np.prod(shape, dtype=np.int64))
    u = (_draw_grid(rngs, n) >> np.uint64(11)).astype(np.float64) / _U53
    return u.reshape((len(rngs),) + tuple(shape))


def gaussian_stack(rngs, shape, sigma: float) -> Tensor:
    """Gaussians of shape (len(rngs),) + shape, row r drawn from rngs[r] as
    rngs[r].gaussian(shape, sigma) would draw it: Box-Muller is elementwise.
    sigma = 0 returns zeros without consuming any draws."""
    if not 0 <= sigma < np.inf:
        raise ContractViolation(f"gaussian: sigma must be finite and >= 0, got {sigma}")
    shape = (len(rngs),) + tuple(shape)
    n = int(np.prod(shape[1:], dtype=np.int64))
    if sigma == 0.0:
        return np.zeros(shape)
    m = (n + 1) // 2
    bits = _draw_grid(rngs, 2 * m) >> np.uint64(11)
    # u1 in (0, 1] so log never sees 0
    u1 = (bits[:, :m].astype(np.float64) + 1.0) / _U53
    u2 = bits[:, m:].astype(np.float64) / _U53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=1)[:, :n]
    return (sigma * z).reshape(shape)


class Rng:
    """Counter-based generator: draw i of stream `seed` is mix64(seed + (i+1)*GOLDEN).

    The mapping from (seed, counter) to output bits, the [0,1) uniform derivation
    (top 53 bits / 2^53), the Box-Muller Gaussian derivation, and the Fisher-Yates
    shuffle below are fixed forever so that checkpoints and experiments replay
    exactly. State is just (seed, counter); both serialize as plain integers.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.counter = int(counter)

    def _next_block(self, n: int) -> np.ndarray:
        return _draw_grid([self], n)[0]

    def uniform(self, shape=()) -> Tensor:
        """i.i.d. uniforms in [0, 1)."""
        return uniform_stack([self], shape)[0]

    def gaussian(self, shape, sigma: float) -> Tensor:
        """i.i.d. N(0, sigma^2) via Box-Muller; sigma = 0 consumes no draws."""
        return gaussian_stack([self], shape, sigma)[0]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n), descending, j = draw mod (i+1)."""
        if n < 2:
            return np.arange(n, dtype=np.int64)
        # draw k picks the swap partner of i = n-1-k from range(i+1)
        js = (self._next_block(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), js):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)

    def child(self, tag: int) -> "Rng":
        """Independently seeded child stream; deterministic in (seed, tag)."""
        with np.errstate(over="ignore"):
            s = _mix64((np.uint64(self.seed) ^ _CHILD_SALT) + np.uint64(tag) * _GOLDEN)
        return Rng(int(s))

    def state(self) -> tuple[int, int]:
        return (self.seed, self.counter)
