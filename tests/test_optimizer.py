import copy

import numpy as np
import pytest

from smoothtune.errors import ContractViolation
from smoothtune.model import ModelConfig, flatten_params, init_params, stack_params
from smoothtune.optimizer import (
    ProxConfig,
    TeacherState,
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

from oracles import ref_adam_step, ref_teacher_update

SYM_KL_HALF_91 = 0.8788898309344878


def test_clip_inside_bound_unchanged():
    grads = {"w": np.array([0.3, 0.4])}  # norm 0.5
    out = clip_gradients(grads, 1.0)
    assert np.array_equal(out["w"], grads["w"])


def test_clip_hand_computation():
    out = clip_gradients({"w": np.array([3.0, 4.0])}, 1.0)
    assert np.allclose(out["w"], [0.6, 0.8], atol=1e-15)


def test_clip_zero_gradients():
    out = clip_gradients({"w": np.zeros(3), "b": np.zeros(2)}, 1.0)
    assert np.array_equal(out["w"], np.zeros(3))


def test_clip_preserves_direction_and_respects_bound():
    rng = Rng(1)
    grads = {"a": rng.gaussian((4, 3), 2.0), "b": rng.gaussian((5,), 2.0)}
    norm = global_grad_norm(grads)
    clipped = clip_gradients(grads, 1.0)
    assert global_grad_norm(clipped) <= 1.0 + 1e-12
    scale = 1.0 / norm
    for name in grads:
        assert np.allclose(clipped[name], grads[name] * scale, rtol=1e-14)


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


def _single_block_params(value):
    return {"w": np.array([value])}


def test_adam_zero_gradient_from_zero_state():
    params = _single_block_params(1.5)
    state = init_adam(params)
    out = adam_step(state, params, {"w": np.zeros(1)}, 0.01)
    assert np.array_equal(out["w"], params["w"])
    assert np.array_equal(state.m["w"], np.zeros(1))
    assert np.array_equal(state.v["w"], np.zeros(1))


def test_adam_first_step_closed_form():
    params = _single_block_params(0.0)
    state = init_adam(params)
    g = 0.5
    out = adam_step(state, params, {"w": np.array([g])}, 0.01)
    expected_delta = -0.01 * g / (abs(g) + 1e-8)
    assert abs(out["w"][0] - expected_delta) < 1e-12


def test_adam_determinism_bitwise():
    params = {"w": Rng(2).gaussian((3, 3), 1.0)}
    grads = {"w": Rng(3).gaussian((3, 3), 1.0)}
    s1, s2 = init_adam(params), init_adam(params)
    o1 = adam_step(s1, params, grads, 1e-3)
    o2 = adam_step(s2, params, grads, 1e-3)
    assert np.array_equal(o1["w"], o2["w"])
    assert np.array_equal(s1.m["w"], s2.m["w"])


def test_adam_lr_zero_updates_moments_only():
    params = _single_block_params(2.0)
    state = init_adam(params)
    out = adam_step(state, params, {"w": np.array([0.7])}, 0.0)
    assert np.array_equal(out["w"], params["w"])
    assert state.t == 1
    assert state.m["w"][0] != 0.0


def test_adam_structure_mismatch():
    params = _single_block_params(0.0)
    state = init_adam(params)
    with pytest.raises(ContractViolation):
        adam_step(state, params, {"other": np.zeros(1)}, 1e-3)


def test_teacher_update_rules():
    cfg = ModelConfig(arch="mlp", input_dim=2, hidden=(4,), dropout=0.0)
    current = init_params(cfg, Rng(4))
    teacher = TeacherState(init_params(cfg, Rng(5)))
    moved = teacher_update(teacher, current, 0.0)
    for name in current:
        assert np.array_equal(moved.params[name], current[name])
    fixed = teacher_update(TeacherState(copy.deepcopy(current)), current, 0.37)
    for name in current:
        assert np.allclose(fixed.params[name], current[name], rtol=1e-15, atol=1e-18)
    ones = {name: np.ones_like(b) for name, b in current.items()}
    zeros = {name: np.zeros_like(b) for name, b in current.items()}
    blended = teacher_update(TeacherState(ones), zeros, 0.99)
    for name in ones:
        assert np.allclose(blended.params[name], 0.99, atol=1e-18)


def test_teacher_geometric_contraction():
    cfg = ModelConfig(arch="mlp", input_dim=2, hidden=(4,), dropout=0.0)
    current = init_params(cfg, Rng(6))
    teacher = TeacherState(init_params(cfg, Rng(7)))
    beta = 0.9
    start_gap = max(np.max(np.abs(teacher.params[n] - current[n])) for n in current)
    state = teacher
    for k in range(1, 8):
        state = teacher_update(state, current, beta)
        gap = max(np.max(np.abs(state.params[n] - current[n])) for n in current)
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
                                    np.zeros(len(x), dtype=np.int64), smart=True)
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
    params = _stacked_mlp(20)
    state = init_adam(params)
    ref = {"m": copy.deepcopy(state.m), "v": copy.deepcopy(state.v), "t": 0}
    ref_params = copy.deepcopy(params)
    rng = Rng(21)
    for step in range(400):
        grads = {name: rng.gaussian(p.shape, 0.5) for name, p in params.items()}
        kept = copy.deepcopy(grads)
        lr = 1e-3 * (1 + step % 7)
        before = copy.deepcopy(params)
        out = adam_step(state, params, grads, lr, out=params if into_params else None)
        ref, ref_params = ref_adam_step(ref, ref_params, grads, lr)
        for name in params:
            assert _bits_equal(out[name], ref_params[name])
            assert _bits_equal(state.m[name], ref["m"][name])
            assert _bits_equal(state.v[name], ref["v"][name])
            assert _bits_equal(grads[name], kept[name])  # gradients are never written
        if into_params:
            assert out is params
        else:
            for name in params:  # nor are the params without out=
                assert _bits_equal(params[name], before[name])
            params = out
    assert state.t == ref["t"] == 400


def test_teacher_update_in_place_equals_the_out_of_place_formula_over_400_steps():
    teacher = TeacherState(_stacked_mlp(30))
    held = teacher.params
    ref = copy.deepcopy(teacher.params)
    rng = Rng(31)
    for step in range(400):
        current = {name: rng.gaussian(p.shape, 1.0) for name, p in ref.items()}
        kept = copy.deepcopy(current)
        beta = (0.0, 0.37, 0.99, 0.999)[step % 4]
        assert teacher_update(teacher, current, beta) is teacher
        ref = ref_teacher_update(ref, current, beta)
        for name in ref:
            assert teacher.params[name] is held[name]  # written into the teacher's own arrays
            assert _bits_equal(teacher.params[name], ref[name])
            assert _bits_equal(current[name], kept[name])


def test_flat_buffers_update_like_per_block_state_over_400_steps():
    """ADAM and the EMA once over flat buffers (the trainer's layout), with
    clipping per run before the gradients are gathered, equal the same steps
    taken block by block."""
    blocks = _stacked_mlp(40)
    teacher = TeacherState(copy.deepcopy(blocks))
    adam = init_adam(blocks)
    flat_params, views = flatten_params(blocks)
    flat_teacher, teacher_views = flatten_params(teacher.params)
    flat_adam = init_adam({"flat": flat_params})
    flat_grads = np.empty_like(flat_params)
    rng = Rng(41)
    for step in range(400):
        grads = {name: rng.gaussian(p.shape, 0.05 * (1 + step % 5)) for name, p in blocks.items()}
        clipped = clip_gradients(grads, 1.0, 1, global_grad_norm(grads, 1))
        np.concatenate([g.ravel() for g in clipped.values()], out=flat_grads)
        lr, beta = 1e-3 * (1 + step % 7), (0.0, 0.9, 0.99)[step % 3]
        adam_step(adam, blocks, clipped, lr, out=blocks)
        adam_step(flat_adam, {"flat": flat_params}, {"flat": flat_grads}, lr,
                  out={"flat": flat_params})
        teacher_update(teacher, blocks, beta)
        teacher_update(TeacherState({"flat": flat_teacher}), {"flat": flat_params}, beta)
        for name in blocks:
            assert _bits_equal(views[name], blocks[name])
            assert _bits_equal(teacher_views[name], teacher.params[name])
    m, v = (flatten_params(moments)[0] for moments in (adam.m, adam.v))
    assert _bits_equal(flat_adam.m["flat"], m) and _bits_equal(flat_adam.v["flat"], v)
    assert flat_adam.t == adam.t == 400


def test_teacher_update_blends_blockwise():
    x = init_params(ModelConfig(arch="mlp", input_dim=2, hidden=(8, 8)), Rng(18))
    zeros = {name: np.zeros_like(block) for name, block in x.items()}
    copied = teacher_update(TeacherState(copy.deepcopy(zeros)), x, 0.0)
    for name in x:
        assert np.array_equal(copied.params[name], x[name])
    # a teacher holding the current arrays themselves still blends to them
    original = copy.deepcopy(x)
    halves = teacher_update(TeacherState(x), x, 0.5)
    for name in x:
        assert np.allclose(halves.params[name], original[name], atol=1e-15)
    ones = {name: np.ones_like(block) for name, block in x.items()}
    blend = teacher_update(TeacherState(copy.deepcopy(zeros)), ones, 0.99)
    for name in x:
        assert np.allclose(blend.params[name], 0.01, atol=1e-18)
    bad = dict(zeros)
    bad.pop("layer0.bias")
    with pytest.raises(ContractViolation, match="structure"):
        teacher_update(TeacherState(bad), ones, 0.5)
    wrong = dict(zeros, **{"layer0.bias": np.zeros(3)})
    with pytest.raises(ContractViolation, match="layer0.bias shape"):
        teacher_update(TeacherState(wrong), ones, 0.5)


def test_clip_with_the_norm_already_known_is_the_same_clip():
    grads = {"w": Rng(40).gaussian((3, 4, 5), 2.0), "b": Rng(41).gaussian((3, 1, 5), 0.1)}
    norms = global_grad_norm(grads, 1)
    assert norms.min() < 8.5 < norms.max()
    for bound in (1.0, 8.5, 100.0):  # every run clipped, some of them, none
        fresh = clip_gradients(grads, bound, 1)
        given = clip_gradients(grads, bound, 1, norms)
        for name in grads:
            assert _bits_equal(fresh[name], given[name])
