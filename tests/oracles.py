"""Independent test oracles: brute-force grid search, central finite
differences, and direct-formula references. Written against the math, not
against the package code paths they check."""

import numpy as np

from smoothtune import autodiff as ad
from smoothtune import model as mdl


def ref_softmax(z):
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ref_sym_kl_rows(p, q, clamp=1e-12):
    lp = np.log(np.clip(p, clamp, 1.0))
    lq = np.log(np.clip(q, clamp, 1.0))
    return np.sum(p * (lp - lq) + q * (lq - lp), axis=-1)


def grid_oracle_max(weights, bias, x, eps, resolution=201):
    """Exhaustive max of the symmetrized divergence over the L-inf eps-ball
    around a 2-d point, for a linear-softmax model."""
    offs = np.linspace(-eps, eps, resolution)
    g0, g1 = np.meshgrid(offs, offs, indexing="ij")
    pts = x[None, :] + np.column_stack([g0.ravel(), g1.ravel()])
    clean = ref_softmax(x @ weights + bias)
    probs = ref_softmax(pts @ weights + bias)
    return float(ref_sym_kl_rows(probs, clean[None, :]).max())


def central_diff(f, arrays, step=1e-5):
    """Central finite differences of scalar f w.r.t. each array, in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat, gflat = arr.ravel(), g.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up = f()
            flat[j] = orig - step
            down = f()
            flat[j] = orig
            gflat[j] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def assert_grads_close(actual, expected, rel=1e-4, floor=1e-8):
    actual = np.asarray(actual).ravel()
    expected = np.asarray(expected).ravel()
    err = np.abs(actual - expected)
    bound = floor + rel * np.abs(expected)
    worst = np.max(err - bound)
    assert np.all(err <= bound), f"gradient mismatch, worst excess {worst:.3e}"


def ref_permutation(rng, n):
    """Fisher-Yates shuffle of range(n) one numpy swap at a time, descending,
    j = draw mod (i+1): the reference Rng.permutation must reproduce."""
    perm = np.arange(n, dtype=np.int64)
    if n < 2:
        return perm
    draws = rng._next_block(n - 1)
    for k, i in enumerate(range(n - 1, 0, -1)):
        j = int(draws[k] % np.uint64(i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def ref_tanh(a):
    """tanh as a tape node of its own, with d tanh = 1 - tanh^2."""
    t = np.tanh(a.value)
    return a.tape._record(t, (a.index,), lambda g: (g * (1.0 - t * t),))


def ref_relu(a):
    """relu as a tape node of its own, masked by the input's sign."""
    av = a.value
    return a.tape._record(np.maximum(av, 0.0), (a.index,), lambda g: (g * (av > 0),))


def ref_matmul(a, b):
    """a @ b as a tape node of its own, broadcast parts summed back down."""
    av, bv = a.value, b.value
    return a.tape._record(np.matmul(av, bv), (a.index, b.index), lambda g: (
        ad._reduce_to(np.matmul(g, bv.swapaxes(-1, -2)), av.shape),
        ad._reduce_to(np.matmul(av.swapaxes(-1, -2), g), bv.shape)))


def ref_sub(a, b):
    """a - b as a tape node of its own."""
    return a.tape._record(a.value - b.value, (a.index, b.index), lambda g: (g, -g))


def ref_mul(a, b):
    """a * b elementwise as a tape node of its own."""
    av, bv = a.value, b.value
    return a.tape._record(av * bv, (a.index, b.index), lambda g: (g * bv, g * av))


def ref_log(a):
    """log as a tape node of its own, with d log = 1 / a."""
    av = a.value
    return a.tape._record(np.log(av), (a.index,), lambda g: (g / av,))


def ref_clip(a, lo, hi):
    """A clamp to [lo, hi] as a tape node; the gradient passes where a lies inside."""
    av = a.value
    return a.tape._record(np.clip(av, lo, hi), (a.index,),
                          lambda g: (g * ((av >= lo) & (av <= hi)),))


def ref_pick(a, idx):
    """a[..., i, idx[..., i]] as a tape node; the adjoint scatters into zeros."""
    where, shape = idx[..., None], a.value.shape

    def vjp(g):
        out = np.zeros(shape)
        np.put_along_axis(out, where, g[..., None], axis=-1)
        return (out,)

    return a.tape._record(np.take_along_axis(a.value, where, axis=-1)[..., 0], (a.index,), vjp)


def ref_sum_all(a, lead=0):
    """Sum over every axis after the first `lead`, flattened into one: each
    run's own total."""
    shape = a.value.shape
    kept = shape[:lead] + (1,) * (len(shape) - lead)
    return a.tape._record(a.value.reshape(shape[:lead] + (-1,)).sum(axis=-1), (a.index,),
                          lambda g: (np.broadcast_to(g.reshape(kept), shape).copy(),))


def ref_mean_all(a, lead=0):
    """Mean over every axis after the first `lead` (see ref_sum_all)."""
    shape = a.value.shape
    flat = a.value.reshape(shape[:lead] + (-1,))
    kept, n = shape[:lead] + (1,) * (len(shape) - lead), flat.shape[-1]
    return a.tape._record(flat.mean(axis=-1), (a.index,),
                          lambda g: (np.broadcast_to((g / n).reshape(kept), shape).copy(),))


def sym_kl_chain(p, q):
    """The batch mean of the symmetrized KL as the 9-node chain the fused
    divergence node must reproduce bit for bit: clip and log each side, then
    (p - q) * (log p - log q), summed per run and scaled by 1 / examples."""
    lp, lq = ref_log(ref_clip(p, 1e-12, 1.0)), ref_log(ref_clip(q, 1e-12, 1.0))
    per_entry = ref_mul(ref_sub(p, q), ref_sub(lp, lq))
    return ad.mul_const(ref_sum_all(per_entry, p.value.ndim - 2), 1.0 / p.value.shape[-2])


def squared_error_chain(p, q):
    """The batch mean of (p - q)^2 as the 3-node chain sub, mul(d, d), mean."""
    d = ref_sub(p, q)
    return ref_mean_all(ref_mul(d, d), p.value.ndim - 1)


def cross_entropy_chain(outputs, labels):
    """The batch mean of -log p[label] as the 5-node chain pick, clip, log,
    mean and a scale by -1."""
    picked = ref_clip(ref_pick(outputs, labels), 1e-12, 1.0)
    return ad.mul_const(ref_mean_all(ref_log(picked), labels.ndim - 1), -1.0)


def ref_swapaxes(a, ax1, ax2):
    """A contiguous copy of a with two axes swapped, as a tape node."""
    return a.tape._record(np.ascontiguousarray(a.value.swapaxes(ax1, ax2)), (a.index,),
                          lambda g: (g.swapaxes(ax1, ax2),))


def unfused_affine(x, w, b, act=None):
    """act(x @ w + b) as three nodes: matmul, then add, then the
    activation, the chain ad.affine must reproduce bit for bit."""
    y = ad.add(ref_matmul(x, w), b)
    if act is None:
        return y
    return {"tanh": ref_tanh, "relu": ref_relu}[act](y)


def ref_uniform(rng, shape):
    """Uniforms in [0, 1) from one stream's next draws, top 53 bits / 2^53."""
    n = int(np.prod(shape, dtype=np.int64))
    return ((rng._next_block(n) >> np.uint64(11)).astype(np.float64) / float(1 << 53)).reshape(shape)


def ref_gaussian(rng, shape, sigma):
    """Box-Muller on one stream, as one run draws it alone: the first half of
    the 2m draws gives u1 in (0, 1], the second half u2; cosines then sines."""
    n = int(np.prod(shape, dtype=np.int64))
    m = (n + 1) // 2
    u1 = ((rng._next_block(m) >> np.uint64(11)).astype(np.float64) + 1.0) / float(1 << 53)
    u2 = (rng._next_block(m) >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    return (sigma * np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]).reshape(shape)


def ref_adam_step(state, params, grads, lr):
    """The out-of-place bias-corrected ADAM step: new m, v and params arrays."""
    t = state["t"] + 1
    c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
    m = state["m"] * 0.9 + (1.0 - 0.9) * grads
    v = state["v"] * 0.999 + (1.0 - 0.999) * (grads * grads)
    return {"m": m, "v": v, "t": t}, params - lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)


def ref_clip_gradients(grads, max_norm):
    """The out-of-place global-norm clip of blocks with a leading run axis:
    new arrays, each run scaled by max_norm / its norm when that is over the
    bound, else by exactly 1.0."""
    total = 0.0
    for g in grads.values():
        total = total + (g * g).reshape(g.shape[:1] + (-1,)).sum(axis=-1)
    norm = np.sqrt(total)
    scale = np.divide(max_norm, norm, out=np.ones_like(norm), where=norm > max_norm)
    return {name: g * scale.reshape(scale.shape + (1,) * (g.ndim - 1))
            for name, g in grads.items()}


def ref_teacher_update(teacher, current, beta):
    """(1 - beta) * current + beta * teacher into a new array."""
    return (1.0 - beta) * current + beta * teacher


def attention_chain(q, k, v, heads):
    """Multi-head attention as the 15-node chain ad.attention must reproduce
    bit for bit: split heads (reshape, swapaxes), q k^T (swapaxes, matmul),
    scale, softmax, times v, and join the heads (swapaxes, reshape)."""
    shape = q.value.shape
    hd = shape[-1] // heads
    split = shape[:-1] + (heads, hd)
    qh, kh, vh = (ref_swapaxes(ad.reshape(t, split), -3, -2) for t in (q, k, v))
    scores = ad.mul_const(ref_matmul(qh, ref_swapaxes(kh, -1, -2)), 1.0 / np.sqrt(hd))
    ctx = ref_matmul(ad.softmax(scores), vh)
    return ad.reshape(ref_swapaxes(ctx, -3, -2), shape)


def ref_layer_norm(a, gain, bias, eps=1e-5):
    """Layer norm over the last axis by the textbook formula (ndarray.mean,
    ** 2), as a tape node."""
    av, gv = a.value, gain.value
    mu = av.mean(axis=-1, keepdims=True)
    var = ((av - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (av - mu) * inv

    def vjp(g):
        gx = g * gv
        dx = inv * (gx - gx.mean(axis=-1, keepdims=True)
                    - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
        return (dx, ad._reduce_to(g * xhat, gv.shape), ad._reduce_to(g, bias.value.shape))

    return a.tape._record(xhat * gv + bias.value, (a.index, gain.index, bias.index), vjp)


def ref_sinusoidal_positions(max_len, dim):
    """sin on even columns, cos on odd ones, of pos / 10000^(2 floor(i/2) / dim)."""
    pos = np.arange(max_len)[:, None].astype(np.float64)
    i = np.arange(dim)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / dim)
    return np.where(i % 2 == 0, np.sin(angle), np.cos(angle))


def one_block_forward(config, params, inputs, embedded=False):
    """The eager forward with no blocks: build_head over the whole batch on a
    Tape whose leaves want no gradient, from raw inputs or token ids, or from
    embeddings."""
    tape = ad.Tape()
    pvars = mdl.leaf_params(tape, params, requires_grad=False)
    emb = tape.const(inputs) if embedded else mdl.build_embed(tape, config, pvars, inputs)
    return mdl.build_head(config, pvars, emb).value
