import numpy as np
import pytest

from smoothtune import autodiff as ad
from smoothtune.autodiff import Tape
from smoothtune.errors import ContractViolation
from smoothtune.losses import task_loss_mean_node
from smoothtune.tensor import Rng, softmax_row

from oracles import (
    assert_grads_close,
    attention_chain,
    central_diff,
    ref_layer_norm,
    ref_log,
    ref_mean_all,
    ref_mul,
    ref_sum_all,
    unfused_affine,
)


def test_recorded_forward_matches_eager_bitwise():
    rng = Rng(0)
    x = rng.gaussian((4, 6), 2.0)
    tape = Tape()
    out = ad.softmax(tape.leaf(x))
    assert np.array_equal(out.value, softmax_row(x))
    a, b = rng.gaussian((3,), 1.0), rng.gaussian((3,), 1.0)
    t2 = Tape()
    assert np.array_equal(ad.add(t2.leaf(a), t2.leaf(b)).value, a + b)


def test_square_value_and_gradient():
    tape = Tape()
    x = tape.leaf(np.array(3.0), requires_grad=True)
    y = ref_mul(x, x)
    assert y.value == 9.0
    grads = tape.backward(y)
    assert grads[x] == 6.0


def test_unreachable_leaf_gets_zero_gradient():
    tape = Tape()
    x = tape.leaf(np.array([1.0, 2.0]), requires_grad=True)
    c = tape.leaf(np.array(5.0), requires_grad=True)
    grads = tape.backward(ref_mul(x, x))
    assert np.array_equal(grads[c], np.zeros(()))
    assert np.array_equal(grads[x], [2.0, 4.0])


def test_softmax_cross_entropy_gradient_closed_form():
    rng = Rng(8)
    logits = rng.gaussian((6, 4), 1.5)
    labels = np.array([0, 1, 2, 3, 1, 0])
    tape = Tape()
    lv = tape.leaf(logits, requires_grad=True)
    probs = ad.softmax(lv)
    g = tape.backward(task_loss_mean_node("classification", probs, labels))[lv]
    expected = probs.value.copy()
    expected[np.arange(6), labels] -= 1.0
    expected /= 6
    assert np.max(np.abs(g - expected)) < 1e-10


def test_finite_difference_agreement_params_and_inputs():
    rng = Rng(21)
    x = rng.gaussian((5, 3), 1.0)
    labels = np.array([0, 1, 1, 0, 1])
    arrays = [rng.gaussian((3, 8), 0.5), rng.gaussian((8,), 0.2),
              rng.gaussian((8, 2), 0.5), rng.gaussian((2,), 0.2)]

    tape = Tape()
    leaves = [tape.leaf(a, requires_grad=True) for a in arrays]
    xleaf = tape.leaf(x, requires_grad=True)
    h = ad.affine(xleaf, leaves[0], leaves[1], "tanh")
    logits = ad.affine(h, leaves[2], leaves[3])
    loss = task_loss_mean_node("classification", ad.softmax(logits), labels)
    grads = tape.backward(loss)

    def value():
        t = Tape()
        ls = [t.leaf(a) for a in arrays]
        xl = t.leaf(x)
        hh = ad.affine(xl, ls[0], ls[1], "tanh")
        lg = ad.affine(hh, ls[2], ls[3])
        out = task_loss_mean_node("classification", ad.softmax(lg), labels)
        return float(out.value)

    fd = central_diff(value, arrays + [x])
    for leaf, g_fd in zip(leaves + [xleaf], fd):
        assert_grads_close(grads[leaf], g_fd)


def test_stop_gradient():
    tape = Tape()
    x = tape.leaf(np.array(3.0), requires_grad=True)
    y = ad.stop_gradient(x)
    assert np.array_equal(y.value, x.value)
    grads = tape.backward(y)
    assert grads[x] == 0.0

    # product with one frozen factor: d/dx (x * sg(x)) = x
    t2 = Tape()
    x2 = t2.leaf(np.array(3.0), requires_grad=True)
    z = ref_mul(x2, ad.stop_gradient(x2))
    assert t2.backward(z)[x2] == 3.0


def test_backward_linearity():
    rng = Rng(4)
    x = rng.gaussian((6,), 1.0)
    w, bias = rng.gaussian((3, 3), 1.0), rng.gaussian((3,), 0.5)
    a, b = 2.5, -1.25

    def grad_of(fa, fb):
        tape = Tape()
        leaf = tape.leaf(x, requires_grad=True)
        f = ref_sum_all(ref_mul(leaf, leaf))
        g = ref_sum_all(ad.affine(ad.reshape(leaf, (2, 3)), tape.const(w), tape.const(bias),
                                   "tanh"))
        out = ad.add(ad.mul_const(f, fa), ad.mul_const(g, fb))
        return tape.backward(out)[leaf]

    combined = grad_of(a, b)
    separate = a * grad_of(1.0, 0.0) + b * grad_of(0.0, 1.0)
    assert np.max(np.abs(combined - separate)) < 1e-10


def test_backward_determinism_bitwise():
    rng = Rng(9)
    x = rng.gaussian((4, 4), 1.0)

    def run():
        tape = Tape()
        leaf = tape.leaf(x, requires_grad=True)
        out = ref_mean_all(ad.softmax(ad.affine(leaf, leaf, tape.const(np.zeros(4)), "tanh")))
        return tape.backward(out)[leaf]

    assert np.array_equal(run(), run())


def test_cross_tape_operands_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.ones(2))
    b = t2.leaf(np.ones(2))
    with pytest.raises(ContractViolation):
        ad.add(a, b)


def test_backward_on_a_stacked_loss_gives_each_run_its_own_gradient_bitwise():
    """Backward from a stack's (S,) losses gives every slice the bits of
    backward from that run's own stack of one."""
    rng = Rng(15)
    arrays = [rng.gaussian((3, 6, 4), 1.0), rng.gaussian((3, 4, 5), 0.7),
              rng.gaussian((3, 1, 5), 0.5), rng.gaussian((3, 5, 2), 0.7),
              rng.gaussian((3, 1, 2), 0.5)]
    labels = np.array([[0, 1, 1, 0, 1, 0], [1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 0]])

    def grads_of(run):
        tape = Tape()
        leaves = [tape.leaf(a[run], requires_grad=True) for a in arrays]
        x, w, b, v, c = leaves
        logits = ad.affine(ad.affine(x, w, b, "tanh"), v, c)
        loss = task_loss_mean_node("classification", ad.softmax(logits), labels[run])
        assert loss.value.shape == labels[run].shape[:1]
        grads = tape.backward(loss)
        return [grads[leaf] for leaf in leaves]

    stacked = grads_of(slice(None))
    for s in range(3):
        for g_stacked, g_solo in zip(stacked, grads_of(slice(s, s + 1))):
            assert np.array_equal(g_stacked[s:s + 1].view(np.uint64), g_solo.view(np.uint64))


def test_assorted_primitive_gradients_match_finite_differences():
    rng = Rng(14)
    a = rng.gaussian((3, 4), 1.0)
    gain = 1.0 + rng.gaussian((4,), 0.1)
    bias = rng.gaussian((4,), 0.1)
    table = rng.gaussian((5, 3), 1.0)
    w, b = rng.gaussian((3, 3), 1.0), rng.gaussian((3,), 0.5)
    ids = np.array([[0, 4], [2, 2]])
    arrays = [a, gain, bias, table, w, b]

    def build(tape, leaves):
        av, gv, bv, tv, wv, bb = leaves
        ln = ad.layer_norm(av, gv, bv)
        e = ad.gather_rows(tv, ids)
        pooled = ad.mean_axis(e, 1)
        mixed = ad.softmax(ad.attention(ln, ln, ad.reshape(ln, (3, 4)), 2))
        return ad.add(ref_mean_all(ref_mul(mixed, ref_log(mixed))),
                      ref_mean_all(ad.affine(pooled, wv, bb, "relu")))

    tape = Tape()
    leaves = [tape.leaf(arr, requires_grad=True) for arr in arrays]
    grads = tape.backward(build(tape, leaves))

    def value():
        t = Tape()
        ls = [t.leaf(arr) for arr in arrays]
        return float(build(t, ls).value)

    fd = central_diff(value, arrays)
    for leaf, g_fd in zip(leaves, fd):
        assert_grads_close(grads[leaf], g_fd)


# (x, w, b) shapes: a solo layer, an MLP layer of a stack of 3 runs, and a
# transformer projection of a stack of 2 runs
AFFINE_SHAPES = {
    "solo": ((7, 5), (5, 4), (4,)),
    "mlp_stacked": ((3, 7, 5), (3, 5, 4), (3, 1, 4)),
    "transformer_stacked": ((2, 3, 6, 4), (2, 1, 4, 4), (2, 1, 1, 4)),
}


def _affine_values_and_grads(layer, arrays, act, shared_weight=False):
    """Value and gradients of sum(c * layer(x, w, b)); with shared_weight, one
    weight leaf feeds two layers on the same tape, the second fed by the first."""
    xv, wv, bv, cv = arrays
    tape = Tape()
    x, w, b = (tape.leaf(a, requires_grad=True) for a in (xv, wv, bv))
    out = layer(x, w, b, act)
    if shared_weight:
        out = layer(out, w, b, act)
    grads = tape.backward(ad.mul_const(out, cv))
    return out.value, [grads[v] for v in (x, w, b)]


@pytest.mark.parametrize("shared_weight", [False, True], ids=["one_node", "shared_weight"])
@pytest.mark.parametrize("shapes", list(AFFINE_SHAPES.values()), ids=list(AFFINE_SHAPES))
@pytest.mark.parametrize("act", ["tanh", "relu", None], ids=["tanh", "relu", "none"])
def test_affine_matches_unfused_chain_bitwise(act, shapes, shared_weight):
    rng = Rng(31)
    xs, ws, bs = shapes
    if shared_weight:  # a square weight, so the first layer's output can feed the second
        ws, bs = ws[:-1] + ws[-2:-1], bs[:-1] + ws[-2:-1]
    out_shape = np.matmul(np.zeros(xs), np.zeros(ws)).shape
    arrays = [rng.gaussian(xs, 1.0), rng.gaussian(ws, 0.7), rng.gaussian(bs, 0.5),
              rng.gaussian(out_shape, 1.0)]
    fused, fused_grads = _affine_values_and_grads(ad.affine, arrays, act, shared_weight)
    chain, chain_grads = _affine_values_and_grads(unfused_affine, arrays, act, shared_weight)
    assert np.array_equal(fused, chain)
    for g_fused, g_chain in zip(fused_grads, chain_grads):
        assert np.array_equal(g_fused, g_chain)


def test_affine_relu_masks_nan_like_the_unfused_chain():
    rng = Rng(32)
    xv = rng.gaussian((4, 3), 1.0)
    xv[1, 2] = np.nan
    arrays = [xv, rng.gaussian((3, 5), 1.0), rng.gaussian((5,), 0.5), rng.gaussian((4, 5), 1.0)]
    fused, fused_grads = _affine_values_and_grads(ad.affine, arrays, "relu")
    chain, chain_grads = _affine_values_and_grads(unfused_affine, arrays, "relu")
    assert np.isnan(fused[1]).all()
    assert np.array_equal(fused, chain, equal_nan=True)
    for g_fused, g_chain in zip(fused_grads, chain_grads):
        assert np.array_equal(g_fused, g_chain, equal_nan=True)


@pytest.mark.parametrize("act", ["tanh", "relu", None], ids=["tanh", "relu", "none"])
def test_affine_gradients_match_finite_differences(act):
    rng = Rng(33)
    arrays = [rng.gaussian((2, 4, 3), 1.0), rng.gaussian((2, 3, 5), 0.7),
              rng.gaussian((2, 1, 5), 0.5)]
    c = rng.gaussian((2, 4, 5), 1.0)

    def build(tape, leaves):
        return ref_sum_all(ad.mul_const(ad.affine(*leaves, act), c))

    tape = Tape()
    leaves = [tape.leaf(a, requires_grad=True) for a in arrays]
    grads = tape.backward(build(tape, leaves))

    def value():
        t = Tape()
        return float(build(t, [t.leaf(a) for a in arrays]).value)

    for leaf, g_fd in zip(leaves, central_diff(value, arrays)):
        assert_grads_close(grads[leaf], g_fd)


def test_affine_refuses_bad_shapes_and_activations():
    tape = Tape()
    x, w = tape.leaf(np.ones((3, 2))), tape.leaf(np.ones((2, 4)))
    with pytest.raises(ContractViolation, match="inner dimensions"):
        ad.affine(x, tape.leaf(np.ones((3, 4))), tape.leaf(np.ones(4)))
    with pytest.raises(ContractViolation, match="does not broadcast"):
        ad.affine(x, w, tape.leaf(np.ones((3, 1, 4))))
    with pytest.raises(ContractViolation, match="unknown activation"):
        ad.affine(x, w, tape.leaf(np.ones(4)), "sigmoid")


# (q/k/v shape, heads): a solo batch [n, seq, d], and a stack of 3 runs
ATTENTION_SHAPES = {"solo": ((5, 6, 8), 2), "stacked": ((3, 5, 6, 8), 4)}


def _attention_values_and_grads(attend, arrays, heads, live):
    """Value and the gradients of sum(c * attend(q, k, v)) toward the inputs
    named in `live`; the others enter as constants."""
    qv, kv, vv, cv = arrays
    tape = Tape()
    q, k, v = (tape.leaf(a, requires_grad=name in live) for name, a in zip("qkv", (qv, kv, vv)))
    out = attend(q, k, v, heads)
    grads = tape.backward(ad.mul_const(out, cv))
    return out.value, [grads.get(var) for var in (q, k, v)]


@pytest.mark.parametrize("live", ["qkv", "q", "k", "v", "qk"])
@pytest.mark.parametrize("case", sorted(ATTENTION_SHAPES))
def test_attention_matches_the_node_chain_bitwise(case, live):
    shape, heads = ATTENTION_SHAPES[case]
    rng = Rng(41)
    arrays = [rng.gaussian(shape, 1.0) for _ in range(4)]
    fused, fused_grads = _attention_values_and_grads(ad.attention, arrays, heads, live)
    chain, chain_grads = _attention_values_and_grads(attention_chain, arrays, heads, live)
    assert np.array_equal(fused, chain)
    for g_fused, g_chain in zip(fused_grads, chain_grads):
        assert (g_fused is None) == (g_chain is None)
        assert g_fused is None or np.array_equal(g_fused, g_chain)
    eager = Tape()
    assert np.array_equal(ad.attention(*(eager.const(a) for a in arrays[:3]), heads).value, chain)


def test_attention_gradients_match_finite_differences():
    rng = Rng(42)
    arrays = [rng.gaussian((2, 3, 4), 1.0) for _ in range(3)]
    c = rng.gaussian((2, 3, 4), 1.0)

    def build(tape, leaves):
        return ref_sum_all(ad.mul_const(ad.attention(*leaves, 2), c))

    tape = Tape()
    leaves = [tape.leaf(a, requires_grad=True) for a in arrays]
    grads = tape.backward(build(tape, leaves))

    def value():
        t = Tape()
        return float(build(t, [t.leaf(a) for a in arrays]).value)

    for leaf, g_fd in zip(leaves, central_diff(value, arrays)):
        assert_grads_close(grads[leaf], g_fd)


def test_attention_refuses_mismatched_shapes_and_heads():
    tape = Tape()
    q = tape.leaf(np.ones((2, 3, 4)))
    with pytest.raises(ContractViolation, match="attention"):
        ad.attention(q, q, tape.leaf(np.ones((2, 3, 5))), 1)
    with pytest.raises(ContractViolation, match="attention"):
        ad.attention(q, q, q, 3)


# (input, gain, bias) shapes: a solo [n, seq, d], a stacked [S, n, seq, d], and
# a width whose reciprocal is inexact, so that / n and * (1 / n) differ
LAYER_NORM_SHAPES = {"solo": ((4, 6, 16), (16,), (16,)),
                     "stacked": ((3, 4, 6, 16), (3, 1, 1, 16), (3, 1, 1, 16)),
                     "width_12": ((5, 3, 12), (12,), (12,))}


@pytest.mark.parametrize("eager", [False, True], ids=["recording", "forward_only"])
@pytest.mark.parametrize("case", sorted(LAYER_NORM_SHAPES))
def test_layer_norm_matches_the_textbook_formula_bitwise(case, eager):
    rng = Rng(43)
    shapes = LAYER_NORM_SHAPES[case]
    arrays = [rng.gaussian(shapes[0], 2.0) + 0.5, 1.0 + rng.gaussian(shapes[1], 0.1),
              rng.gaussian(shapes[2], 0.1)]
    c = rng.gaussian(shapes[0], 1.0)
    results = []
    for norm in (ad.layer_norm, ref_layer_norm):
        tape = Tape()
        # leaves that want no gradient run layer_norm's in-place forward-only path
        leaves = [tape.leaf(a, requires_grad=not eager) for a in arrays]
        out = norm(*leaves)
        grads = {} if eager else tape.backward(ad.mul_const(out, c))
        results.append((out.value, [grads.get(leaf) for leaf in leaves]))
    (fused, fused_grads), (ref, ref_grads) = results
    assert np.array_equal(fused, ref)
    for g_fused, g_ref in zip(fused_grads, ref_grads):
        assert (g_fused is None) == eager
        assert eager or np.array_equal(g_fused, g_ref)
