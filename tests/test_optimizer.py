import copy

import numpy as np
import pytest

from smoothtune.adversarial import PassCounters
from smoothtune.errors import ContractViolation
from smoothtune.model import ModelConfig, flat_views, flatten_params, init_params, stack_params
from smoothtune.optimizer import (
    ProxConfig,
    adam_step,
    beta_at,
    clip_gradients,
    global_grad_norm,
    init_adam,
    lr_at,
    teacher_update,
)
from smoothtune.tensor import Rng
from smoothtune.trainer import TrainConfig, build_iteration_objective

from oracles import ref_adam_step, ref_clip_gradients, ref_teacher_update

SYM_KL_HALF_91 = 0.8788898309344878


def _clipped(blocks, max_norm):
    """Copies of stacked blocks, clipped in place by the trainer's two calls."""
    out = [g.copy() for g in blocks]
    clip_gradients(out, max_norm, global_grad_norm(out))
    return out


def test_clip_inside_bound_unchanged():
    w = np.array([[0.3, 0.4]])  # one run, norm 0.5
    (out,) = _clipped([w], 1.0)
    assert np.array_equal(out, w)


def test_clip_hand_computation():
    (out,) = _clipped([np.array([[3.0, 4.0]])], 1.0)
    assert np.allclose(out[0], [0.6, 0.8], atol=1e-15)


def test_clip_zero_gradients():
    out, _ = _clipped([np.zeros((1, 3)), np.zeros((1, 2))], 1.0)
    assert np.array_equal(out[0], np.zeros(3))


def test_clip_preserves_direction_and_respects_bound():
    rng = Rng(1)
    grads = [rng.gaussian((4, 3), 2.0)[None], rng.gaussian((5,), 2.0)[None]]
    (norm,) = global_grad_norm(grads)
    clipped = _clipped(grads, 1.0)
    assert global_grad_norm(clipped)[0] <= 1.0 + 1e-12
    scale = 1.0 / norm
    for c, g in zip(clipped, grads):
        assert np.allclose(c, g * scale, rtol=1e-14)


def test_lr_schedule():
    assert lr_at(0, 100, 1e-3, 0.1) == 0.0
    assert abs(lr_at(5, 100, 1e-3, 0.1) - 5e-4) < 1e-18
    assert lr_at(100, 100, 1e-3, 0.1) == 0.0
    assert abs(lr_at(10, 100, 1e-3, 0.1) - 1e-3) < 1e-18
    # linear decay midpoint
    assert abs(lr_at(55, 100, 1e-3, 0.1) - 0.5e-3) < 1e-18
    with pytest.raises(ContractViolation):
        lr_at(101, 100, 1e-3, 0.1)
    with pytest.raises(ContractViolation):
        lr_at(5, 100, 1e-3, 1.0)


def test_adam_zero_gradient_from_zero_state():
    params = np.array([1.5])
    state = init_adam(params)
    adam_step(state, params, np.zeros(1), 0.01)
    assert np.array_equal(params, [1.5])
    assert np.array_equal(state.m, np.zeros(1))
    assert np.array_equal(state.v, np.zeros(1))


def test_adam_first_step_closed_form():
    params = np.zeros(1)
    state = init_adam(params)
    g = 0.5
    adam_step(state, params, np.array([g]), 0.01)
    expected_delta = -0.01 * g / (abs(g) + 1e-8)
    assert abs(params[0] - expected_delta) < 1e-12


def test_adam_determinism_bitwise():
    p1 = Rng(2).gaussian((9,), 1.0)
    p2 = p1.copy()
    grads = Rng(3).gaussian((9,), 1.0)
    s1, s2 = init_adam(p1), init_adam(p2)
    adam_step(s1, p1, grads, 1e-3)
    adam_step(s2, p2, grads, 1e-3)
    assert np.array_equal(p1, p2)
    assert np.array_equal(s1.m, s2.m)


def test_adam_lr_zero_updates_moments_only():
    params = np.array([2.0])
    state = init_adam(params)
    adam_step(state, params, np.array([0.7]), 0.0)
    assert np.array_equal(params, [2.0])
    assert state.t == 1
    assert state.m[0] != 0.0


def test_adam_shape_mismatch():
    params = np.zeros(3)
    state = init_adam(params)
    with pytest.raises(ContractViolation, match="shape|grads"):
        adam_step(state, params, np.zeros(2), 1e-3)
    with pytest.raises(ContractViolation):
        adam_step(state, np.zeros(2), np.zeros(2), 1e-3)
    assert state.t == 0


def _flat_mlp(seed):
    cfg = ModelConfig(arch="mlp", input_dim=2, hidden=(4,), dropout=0.0)
    return flatten_params(init_params(cfg, Rng(seed)))[0]


def test_teacher_update_rules():
    current = _flat_mlp(4)
    teacher = _flat_mlp(5)
    teacher_update(teacher, current, 0.0)
    assert np.array_equal(teacher, current)
    fixed = current.copy()
    teacher_update(fixed, current, 0.37)
    assert np.allclose(fixed, current, rtol=1e-15, atol=1e-18)
    ones = np.ones_like(current)
    teacher_update(ones, np.zeros_like(current), 0.99)
    assert np.allclose(ones, 0.99, atol=1e-18)


def test_teacher_geometric_contraction():
    current = _flat_mlp(6)
    teacher = _flat_mlp(7)
    beta = 0.9
    start_gap = np.max(np.abs(teacher - current))
    for k in range(1, 8):
        teacher_update(teacher, current, beta)
        gap = np.max(np.abs(teacher - current))
        assert abs(gap - beta ** k * start_gap) < 1e-10


def test_beta_schedule_boundary():
    cfg = ProxConfig(prox_weight=1.0, mode="mbpp", ema_early=0.99, ema_late=0.999,
                     ema_switch=0.1)
    assert beta_at(10, 100, cfg) == 0.99
    assert beta_at(11, 100, cfg) == 0.999
    assert beta_at(1, 100, cfg) == 0.99
    assert beta_at(100, 100, cfg) == 0.999
    vbpp = ProxConfig(prox_weight=1.0, mode="vbpp")
    assert beta_at(50, 100, vbpp) == 0.0
    with pytest.raises(ContractViolation):
        beta_at(0, 100, cfg)


def _trust_region_term(cfg, live, teacher, x):
    """The training objective's trust-region term: the mean output divergence
    between the live and the teacher params on the same clean inputs."""
    train = TrainConfig(reg_weight=0.0, prox=ProxConfig(prox_weight=1.0))
    obj = build_iteration_objective(cfg, train, live, teacher, x,
                                    np.zeros(len(x), dtype=np.int64), smart=True,
                                    noise_rng=[Rng(0)], counters=PassCounters())
    return float(obj.breg.value)


def test_bregman_zero_when_teacher_equals_live():
    cfg = ModelConfig(task="classification", classes=3, arch="mlp", input_dim=2,
                      hidden=(6,), dropout=0.1)  # no masks, no dropout
    params = init_params(cfg, Rng(8))
    x = Rng(9).gaussian((10, 2), 1.0)
    d = _trust_region_term(cfg, params, copy.deepcopy(params), x)
    assert d <= 1e-9


def test_bregman_nonnegative_random_pairs():
    cfg = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                      hidden=(6,), dropout=0.0)
    x = Rng(10).gaussian((12, 2), 1.0)
    for seed in range(4):
        live = init_params(cfg, Rng(20 + seed))
        ref = init_params(cfg, Rng(30 + seed))
        assert _trust_region_term(cfg, live, ref, x) >= 0.0


def test_bregman_single_example_matches_sym_kl_fixture():
    # live outputs [0.5, 0.5], teacher outputs [0.9, 0.1] on x = [1]
    cfg = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=1,
                      hidden=(), dropout=0.0)
    live = {"layer0.weight": np.zeros((1, 2)), "layer0.bias": np.zeros(2)}
    teacher = {"layer0.weight": np.array([[np.log(0.9), np.log(0.1)]]),
               "layer0.bias": np.zeros(2)}
    d = _trust_region_term(cfg, live, teacher, np.array([[1.0]]))
    assert abs(d - SYM_KL_HALF_91) < 1e-6


def _bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _stacked_mlp(seed, runs=9):
    cfg = ModelConfig(arch="mlp", input_dim=2, hidden=(64, 64), dropout=0.0)
    return stack_params(cfg, [init_params(cfg, Rng(seed + i)) for i in range(runs)])


@pytest.mark.parametrize("into_params", [False, True])
def test_adam_in_place_equals_the_out_of_place_formula_over_400_steps(into_params):
    """into_params: the update goes into the stack's flat buffer, whose block
    views see every step; otherwise into a free-standing copy of it."""
    flat, views = flatten_params(_stacked_mlp(20))
    start = flat.copy()
    params = flat if into_params else flat.copy()
    state = init_adam(params)
    ref = {"m": state.m.copy(), "v": state.v.copy(), "t": 0}
    ref_params = params.copy()
    rng = Rng(21)
    for step in range(400):
        grads = rng.gaussian(params.shape, 0.5)
        kept = grads.copy()
        lr = 1e-3 * (1 + step % 7)
        adam_step(state, params, grads, lr)
        ref, ref_params = ref_adam_step(ref, ref_params, grads, lr)
        assert _bits_equal(params, ref_params)
        assert _bits_equal(state.m, ref["m"])
        assert _bits_equal(state.v, ref["v"])
        assert _bits_equal(grads, kept)  # gradients are never written
        if into_params:
            ref_views = flat_views(ref_params, {name: v.shape for name, v in views.items()})
            for name, view in views.items():
                assert _bits_equal(view, ref_views[name])
        else:  # the stack's buffer is not written through a copy
            assert _bits_equal(flat, start)
    assert state.t == ref["t"] == 400


def test_teacher_update_in_place_equals_the_out_of_place_formula_over_400_steps():
    teacher = flatten_params(_stacked_mlp(30))[0]
    ref = teacher.copy()
    rng = Rng(31)
    for step in range(400):
        current = rng.gaussian(ref.shape, 1.0)
        kept = current.copy()
        beta = (0.0, 0.37, 0.99, 0.999)[step % 4]
        teacher_update(teacher, current, beta)
        ref = ref_teacher_update(ref, current, beta)
        assert _bits_equal(teacher, ref)
        assert _bits_equal(current, kept)


def test_flat_buffers_update_like_per_block_state_over_400_steps():
    """ADAM and the EMA once over flat buffers (the trainer's layout), with
    the gradients gathered into their flat buffer and clipped per run in place,
    equal the out-of-place formulas taken block by block."""
    blocks = _stacked_mlp(40)
    ref = {name: ({"m": np.zeros_like(p), "v": np.zeros_like(p), "t": 0}, p.copy(), p.copy())
           for name, p in blocks.items()}
    flat_params, views = flatten_params(blocks)
    flat_teacher, teacher_views = flatten_params(blocks)
    adam = init_adam(flat_params)
    flat_grads, grad_views = flatten_params(blocks)
    grad_blocks = list(grad_views.values())
    rng = Rng(41)
    for step in range(400):
        grads = {name: rng.gaussian(p.shape, 0.05 * (1 + step % 5)) for name, p in blocks.items()}
        np.concatenate([g.ravel() for g in grads.values()], out=flat_grads)
        clip_gradients(grad_blocks, 1.0, global_grad_norm(grad_blocks))
        clipped = ref_clip_gradients(grads, 1.0)
        lr, beta = 1e-3 * (1 + step % 7), (0.0, 0.9, 0.99)[step % 3]
        adam_step(adam, flat_params, flat_grads, lr)
        teacher_update(flat_teacher, flat_params, beta)
        for name, (moments, params, teacher) in ref.items():
            moments, params = ref_adam_step(moments, params, clipped[name], lr)
            ref[name] = moments, params, ref_teacher_update(teacher, params, beta)
            assert _bits_equal(views[name], params)
            assert _bits_equal(teacher_views[name], ref[name][2])
    m, v = (flatten_params({name: r[0][key] for name, r in ref.items()})[0] for key in "mv")
    assert _bits_equal(adam.m, m) and _bits_equal(adam.v, v)
    assert adam.t == 400


def test_teacher_update_blends_into_the_flat_teacher():
    x = flatten_params(init_params(ModelConfig(arch="mlp", input_dim=2, hidden=(8, 8)),
                                   Rng(18)))[0]
    copied = np.zeros_like(x)
    teacher_update(copied, x, 0.0)
    assert np.array_equal(copied, x)
    # a teacher that is the current array itself still blends to it
    original = x.copy()
    teacher_update(x, x, 0.5)
    assert np.allclose(x, original, atol=1e-15)
    blend = np.zeros_like(x)
    teacher_update(blend, np.ones_like(x), 0.99)
    assert np.allclose(blend, 0.01, atol=1e-18)
    with pytest.raises(ContractViolation, match="shape"):
        teacher_update(np.zeros(len(x) - 1), x, 0.5)
    with pytest.raises(ContractViolation, match="beta"):
        teacher_update(blend, x, 1.0)


def test_clip_with_the_norm_already_known_is_the_same_clip():
    grads = {"w": Rng(40).gaussian((3, 4, 5), 2.0), "b": Rng(41).gaussian((3, 1, 5), 0.1)}
    norms = global_grad_norm(grads.values())
    assert norms.min() < 8.5 < norms.max()
    for bound in (1.0, 8.5, 100.0):  # every run clipped, some of them, none
        fresh = ref_clip_gradients(grads, bound)
        given = {name: g.copy() for name, g in grads.items()}
        clip_gradients(list(given.values()), bound, norms)
        for name in grads:
            assert _bits_equal(fresh[name], given[name])


def test_in_place_clip_of_the_flat_buffer_gives_the_out_of_place_bits():
    """A stack of three runs, one over the bound, one under it and one all
    zero, clipped through the block views of its flat buffer."""
    blocks = {"w": Rng(42).gaussian((3, 4, 5), 1.0), "b": Rng(43).gaussian((3, 1, 5), 0.1)}
    for g in blocks.values():
        g[1] *= 0.05
        g[2] = 0.0
    flat, views = flatten_params(blocks)
    norms = global_grad_norm(views.values())
    assert norms[0] > 1.0 > norms[1] > norms[2] == 0.0
    clip_gradients(list(views.values()), 1.0, norms)
    ref = ref_clip_gradients(blocks, 1.0)
    assert _bits_equal(flat, np.concatenate([g.ravel() for g in ref.values()]))
    assert _bits_equal(views["w"][1:], blocks["w"][1:])


def test_a_stack_inside_the_bound_leaves_the_buffer_unwritten():
    flat, views = flatten_params({"w": Rng(44).gaussian((4, 3, 2), 0.1),
                                  "b": Rng(45).gaussian((4, 1, 2), 0.1)})
    kept = flat.copy()
    for g in views.values():
        g.flags.writeable = False  # a write into a block would raise
    norms = global_grad_norm(views.values())
    assert norms.max() < 1.0
    clip_gradients(list(views.values()), 1.0, norms)
    assert _bits_equal(flat, kept)
