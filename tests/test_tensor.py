import numpy as np
import pytest

from smoothtune import autodiff as ad
from smoothtune.adversarial import rows_norm
from smoothtune.autodiff import Tape
from smoothtune.errors import ContractViolation
from smoothtune.tensor import Rng, gaussian_stack, row_max, row_sum, softmax_row, uniform_stack

from oracles import ref_gaussian, ref_permutation, ref_uniform


def on_tape(op, a, b):
    tape = Tape()
    return op(tape.const(a), tape.const(b)).value


def matmul(a, b):
    """a @ b through the package's product: an affine node with a zero bias."""
    return on_tape(lambda x, w: ad.affine(x, w, x.tape.const(np.zeros(w.value.shape[-1]))), a, b)


def test_add_componentwise():
    assert np.array_equal(on_tape(ad.add, np.array([1.0, 2.0]), np.array([3.0, 4.0])),
                          [4.0, 6.0])


def test_matmul_identity():
    m = np.array([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(matmul(np.eye(2), m), m)


def test_matmul_hand_contraction():
    out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
    assert out.shape == (1, 1) and out[0, 0] == 11.0


def test_shape_mismatch_names_both_shapes():
    with pytest.raises(ContractViolation, match=r"\(3,\) does not broadcast to \(2,\)"):
        on_tape(ad.add, np.zeros(2), np.zeros(3))
    with pytest.raises(ContractViolation, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ContractViolation, match=r"\(2, 1\) does not broadcast to \(1, 2\)"):
        on_tape(ad.add, np.zeros((1, 2)), np.zeros((2, 1)))
    with pytest.raises(ContractViolation, match=r"\(3,\) does not broadcast to \(2,\)"):
        on_tape(lambda a, c: ad.mul_const(a, c.value), np.zeros(2), np.zeros(3))


def test_softmax_symmetry_and_known_value():
    assert np.allclose(softmax_row(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)
    # e/(e+1) evaluated at high precision
    out = softmax_row(np.array([1.0, 0.0]))
    assert abs(out[0] - 0.7310585786300049) < 1e-12
    assert abs(out[1] - 0.2689414213699951) < 1e-12


@pytest.mark.parametrize("c", [-7.0, 0.0, 3.5, 1e6])
def test_softmax_constant_rows(c):
    out = softmax_row(np.full((2, 3), c))
    assert np.allclose(out, 1.0 / 3.0, atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariance():
    rng = Rng(11)
    x = rng.gaussian((50, 7), 3.0)
    p = softmax_row(x)
    assert np.all(p >= 0) and np.all(p <= 1)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    for c in (0.5, -12.0, 300.0):
        assert np.allclose(softmax_row(x + c), p, atol=1e-12)


def _rows_with_special_values(width):
    """Random rows of one width plus rows mixing +-0, +-inf and NaN, stacked (2, n, width)."""
    rng = Rng(width)
    scaled = rng.gaussian((40, width), 1.0) * np.exp(rng.gaussian((40, width), 4.0))
    special = np.array([-0.0, 0.0, -np.inf, np.inf, np.nan, 1.0, -1.0])
    picks = (rng.uniform((40, width)) * len(special)).astype(np.int64)
    zeros = np.where(rng.uniform((4, width)) < 0.5, -0.0, 0.0)
    rows = np.concatenate([scaled, special[picks], zeros, -np.abs(zeros)])
    return rows.reshape(2, -1, width)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8, 13])
def test_row_folds_equal_numpy_reductions(width):
    x = _rows_with_special_values(width)
    with np.errstate(invalid="ignore"):
        want_max, want_sum = np.max(x, axis=-1, keepdims=True), np.sum(x, axis=-1, keepdims=True)
        got_max, got_sum = row_max(x), row_sum(x)
    # max agrees in value and in the sign of zero; a NaN's sign bit may differ
    assert np.array_equal(got_max, want_max, equal_nan=True)
    assert np.array_equal(np.signbit(got_max[~np.isnan(got_max)]),
                          np.signbit(want_max[~np.isnan(want_max)]))
    # the sum is numpy's own, bit for bit
    assert np.array_equal(got_sum.view(np.uint64), want_sum.view(np.uint64))


@pytest.mark.parametrize("width", range(1, 18))
def test_softmax_row_is_numpys_softmax_on_rows_mixing_signed_zeros(width):
    """From 9 entries row_max may keep the other zero than np.max on such rows;
    the softmax bits are numpy's all the same."""
    rng = Rng(200 + width)
    x = np.where(rng.uniform((300, width)) < 0.5, -0.0, 0.0)
    x = np.where(rng.uniform((300, width)) < 0.3, -rng.uniform((300, width)), x)
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    want = e / np.sum(e, axis=-1, keepdims=True)
    assert np.array_equal(softmax_row(x).view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("width", [9, 12, 15, 16, 17])
def test_row_sum_keeps_numpy_pairwise_order(width):
    """From 8 entries numpy sums a row pairwise; row_sum's tree of column
    adds, up to 15 entries, and np.add.reduce beyond, give its bits."""
    x = _rows_with_special_values(width)
    with np.errstate(invalid="ignore"):
        want, got = np.sum(x, axis=-1, keepdims=True), row_sum(x)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_gaussian_zero_sigma_is_exact_zeros():
    assert np.array_equal(Rng(3).gaussian((3,), 0.0), np.zeros(3))


def test_gaussian_determinism_and_negative_sigma():
    a = Rng(42).gaussian((4, 5), 2.0)
    b = Rng(42).gaussian((4, 5), 2.0)
    assert np.array_equal(a, b)
    with pytest.raises(ContractViolation):
        Rng(1).gaussian((2,), -0.5)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_gaussian_rejects_non_finite_sigma(sigma):
    with pytest.raises(ContractViolation, match="finite and >= 0"):
        Rng(1).gaussian((2,), sigma)


def test_gaussian_statistics():
    z = Rng(99).gaussian((100000,), 1.0)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.05


def test_norms():
    assert rows_norm(np.array([[-3.0, 2.0]]), "inf", 1) == 3.0
    assert rows_norm(np.array([[3.0, 4.0]]), "two", 1) == 5.0
    assert rows_norm(np.zeros((1, 5)), "inf", 1) == 0.0
    x = Rng(5).gaussian((20, 6), 1.0)
    assert np.all(rows_norm(x, "inf", 1) > 0)  # nonzero iff some entry nonzero
    assert np.all(rows_norm(np.zeros((3, 3)), "inf", 1) == 0.0)


def _mix64_py(z):
    mask = (1 << 64) - 1
    z &= mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def test_rng_matches_scalar_reference_bitwise():
    seed = 987654321
    golden = 0x9E3779B97F4A7C15
    block = Rng(seed)._next_block(8)
    expected = [_mix64_py(seed + (i + 1) * golden) for i in range(8)]
    assert [int(v) for v in block] == expected


def test_rng_stream_determinism_and_state_round_trip():
    r = Rng(7)
    r.uniform((10,))
    state = r.state()
    a = r.uniform((5,))
    b = Rng(*state).uniform((5,))
    assert np.array_equal(a, b)
    assert np.array_equal(Rng(7).uniform((100,)), Rng(7).uniform((100,)))


def test_rng_children_independent_and_deterministic():
    base = Rng(123)
    c1, c2 = base.child(1), base.child(2)
    assert c1.seed != c2.seed
    assert not np.array_equal(c1.uniform((8,)), c2.uniform((8,)))
    assert Rng(123).child(1).seed == c1.seed


def test_permutation_is_a_permutation_and_deterministic():
    p1 = Rng(31).permutation(40)
    p2 = Rng(31).permutation(40)
    assert np.array_equal(p1, p2)
    assert sorted(p1.tolist()) == list(range(40))
    assert not np.array_equal(p1, np.arange(40))


@pytest.mark.parametrize("seed,counter", [(0, 0), (31, 0), (7, 5), (2**63 + 11, 123456)])
def test_permutation_matches_reference_shuffle(seed, counter):
    for n in (0, 1, 2, 3, 100, 5000, 10000):
        fast, ref = Rng(seed, counter), Rng(seed, counter)
        p = fast.permutation(n)
        assert p.dtype == np.int64
        assert np.array_equal(p, ref_permutation(ref, n))
        assert fast.state() == ref.state()


def _streams(size):
    """Streams with unrelated seeds, and counters both even and odd."""
    return [Rng(1000003 * i + 7, 3 * i) for i in range(size)]


@pytest.mark.parametrize("size", [1, 9, 30])
@pytest.mark.parametrize("shape", [(16, 2), (5, 3), (1,), ()])
def test_grid_draws_equal_each_runs_own_stream(size, shape):
    runs, refs = _streams(size), _streams(size)
    got_u = uniform_stack(runs, shape)
    got_z = gaussian_stack(runs, shape, 0.01)
    want_u = np.stack([ref_uniform(r, shape) for r in refs])
    want_z = np.stack([ref_gaussian(r, shape, 0.01) for r in refs])
    assert got_u.shape == got_z.shape == (size,) + shape
    assert np.array_equal(got_u.view(np.uint64), want_u.view(np.uint64))
    assert np.array_equal(got_z.view(np.uint64), want_z.view(np.uint64))
    assert [r.state() for r in runs] == [r.state() for r in refs]
    # the per-run methods are the same draw
    assert np.array_equal(np.stack([r.gaussian(shape, 0.01) for r in _streams(size)]),
                          gaussian_stack(_streams(size), shape, 0.01))
    assert np.array_equal(np.stack([r.uniform(shape) for r in _streams(size)]),
                          uniform_stack(_streams(size), shape))


def test_grid_gaussian_with_zero_sigma_consumes_nothing():
    runs = _streams(9)
    before = [r.state() for r in runs]
    z = gaussian_stack(runs, (16, 2), 0.0)
    assert z.shape == (9, 16, 2) and not z.any()
    assert [r.state() for r in runs] == before
    with pytest.raises(ContractViolation, match="finite and >= 0"):
        gaussian_stack(runs, (2,), float("nan"))


def test_grid_rows_match_scalar_reference_bitwise():
    golden = 0x9E3779B97F4A7C15
    runs = [Rng(2**64 - 5, 0), Rng(987654321, 17), Rng(3, 2**40)]
    starts = [r.counter for r in runs]
    rows = gaussian_stack(runs, (3,), 1.0)  # 4 draws per stream
    assert rows.shape == (3, 3)
    for r, c in zip(runs, starts):
        assert r.counter == c + 4
        block = Rng(r.seed, c)._next_block(4)
        assert [int(v) for v in block] == [_mix64_py(r.seed + (c + i + 1) * golden)
                                           for i in range(4)]
