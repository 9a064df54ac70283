import dataclasses

import numpy as np
import pytest

from smoothtune import trainer as tr
from smoothtune.adversarial import AdvConfig, PassCounters
from smoothtune.data import Dataset, gen_token_sequences, gen_two_moons
from smoothtune.errors import CheckpointError, ContractViolation
from smoothtune.evaluate import accuracy
from smoothtune import model as mdl
from smoothtune.model import ModelConfig, draw_dropout_masks, init_params
from smoothtune.optimizer import ProxConfig
from smoothtune.tensor import Rng
from smoothtune.trainer import (
    TrainConfig,
    build_iteration_objective,
    continue_training,
    expected_pass_counts,
    init_train_state,
    records_csv_lines,
    resume_from_checkpoint,
    resume_training,
    save_train_checkpoint,
    smooth_finetune,
    vanilla_finetune,
)

from oracles import assert_grads_close, central_diff

MLP = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                  hidden=(8,), dropout=0.1)


def _moons(n=30, seed=0):
    return gen_two_moons(n, 0.2, seed)


def _cfg(**kw):
    base = dict(
        reg_weight=2.0,
        adv=AdvConfig(eps=0.1, noise_std=0.01, step_size=0.02, steps=1),
        prox=ProxConfig(prox_weight=1.0, mode="mbpp"),
        outer_steps=20, batch_size=10, peak_lr=0.01, seed=3,
    )
    base.update(kw)
    return TrainConfig(**base)


def _objective(model, cfg, params, teacher, xs, ys, rng, masks=None):
    return build_iteration_objective(model, cfg, params, teacher, xs, ys, smart=True,
                                     masks=masks, noise_rng=[rng], counters=PassCounters())


def _params_equal(a, b):
    return all(np.array_equal(a[k], b[k]) for k in a)


def test_reduction_is_bitwise():
    ds = _moons()
    init = init_params(MLP, Rng(1))
    cfg = _cfg(reg_weight=0.0, prox=ProxConfig(prox_weight=0.0, mode="mbpp"))
    [a] = smooth_finetune(MLP, [cfg], [ds], [init])
    [b] = vanilla_finetune(MLP, [cfg], [ds], [init])
    assert _params_equal(a.params, b.params)
    assert a.records == b.records
    assert records_csv_lines(a.records) == records_csv_lines(b.records)


def test_single_step_with_zero_lr_leaves_params():
    ds = _moons()
    init = init_params(MLP, Rng(2))
    cfg = _cfg(outer_steps=1)  # T*S = 1 puts the only step at the decay end, lr = 0
    [res] = smooth_finetune(MLP, [cfg], [ds], [init])
    assert res.records[0].lr == 0.0
    assert _params_equal(res.params, init)


def test_full_run_determinism():
    ds = _moons()
    init = init_params(MLP, Rng(4))
    cfg = _cfg()
    [a] = smooth_finetune(MLP, [cfg], [ds], [init])
    [b] = smooth_finetune(MLP, [cfg], [ds], [init])
    assert a.records == b.records
    assert _params_equal(a.params, b.params)


def test_objective_skip_rule_bitwise():
    ds = _moons()
    init = init_params(MLP, Rng(5))
    cfg = _cfg(reg_weight=0.0, prox=ProxConfig(prox_weight=0.0, mode="mbpp"))
    xs, ys = ds.inputs[:6], ds.labels[:6]
    obj = _objective(MLP, cfg, init, None, xs, ys, Rng(0))
    assert obj.reg is None and obj.breg is None and obj.adversarial is None
    assert obj.total is obj.task


def test_objective_zero_radius_collapse():
    ds = _moons()
    init = init_params(MLP, Rng(6))
    nodrop = dataclasses.replace(MLP, dropout=0.0)
    cfg = _cfg(adv=AdvConfig(eps=0.0, noise_std=0.0, step_size=0.02, steps=1))
    xs, ys = ds.inputs[:6], ds.labels[:6]
    obj = _objective(nodrop, cfg, init, init, xs, ys, Rng(7))
    assert float(obj.reg.value) == 0.0
    # teacher equals live params under deterministic forwards
    assert float(obj.breg.value) == 0.0
    assert float(obj.total.value) == float(obj.task.value)


def test_objective_components_nonnegative_training_run():
    ds = _moons()
    init = init_params(MLP, Rng(8))
    [res] = smooth_finetune(MLP, [_cfg()], [ds], [init])
    for r in res.records:
        assert r.task_loss >= 0.0
        assert r.reg_loss >= 0.0
        assert r.breg_loss >= 0.0
        assert r.total >= 0.0
        assert r.grad_norm >= 0.0


def test_search_points_stay_in_ball_and_internal_audit(monkeypatch):
    ds = _moons()
    init = init_params(MLP, Rng(9))
    real = tr.find_adversarial
    searches = []

    def watched(model_cfg, params, emb, clean, cfg, *rest):
        found = real(model_cfg, params, emb, clean, cfg, *rest)
        searches.append((emb, found, cfg.eps))
        return found

    monkeypatch.setattr(tr, "find_adversarial", watched)
    smooth_finetune(MLP, [_cfg(outer_steps=10)], [ds], [init])
    assert len(searches) == 10
    for emb, found, eps in searches:
        assert np.abs(found - emb).max() <= eps + 1e-12

    # an out-of-ball perturbation must be rejected by the audit
    def broken(model_cfg, params, emb, clean, cfg, rngs, masks, counters):
        out = real(model_cfg, params, emb, clean, cfg, rngs, masks, counters)
        return out + 10 * cfg.eps

    monkeypatch.setattr(tr, "find_adversarial", broken)
    with pytest.raises(ContractViolation, match="ball"):
        smooth_finetune(MLP, [_cfg(outer_steps=2)], [ds], [init])


def test_trivially_separable_data_reaches_full_accuracy():
    xs = np.array([[-1.0, 0.0], [1.0, 0.0]])
    ys = np.array([0, 1])
    ds = Dataset(task="classification", input_kind="vector", inputs=xs, labels=ys)
    cfg = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                      hidden=(4,), dropout=0.0)
    init = init_params(cfg, Rng(10))
    [res] = vanilla_finetune(cfg, [_cfg(outer_steps=200, batch_size=2, peak_lr=0.05)], [ds],
                             [init])
    assert accuracy(cfg, res.params, ds) == 1.0


def test_pass_counters_match_analytic_counts():
    ds = _moons()
    init = init_params(MLP, Rng(11))
    cfg = _cfg(outer_steps=15)
    [smart] = smooth_finetune(MLP, [cfg], [ds], [init])
    f, b = expected_pass_counts(cfg, True)
    assert (f, b) == (4, 2)
    assert smart.state.counters.forwards == 15 * f
    assert smart.state.counters.backwards == 15 * b
    [plain] = vanilla_finetune(MLP, [cfg], [ds], [init])
    fv, bv = expected_pass_counts(cfg, False)
    assert (fv, bv) == (1, 1)
    assert plain.state.counters.forwards == 15
    assert plain.state.counters.backwards == 15
    multi = _cfg(adv=AdvConfig(eps=0.1, noise_std=0.01, step_size=0.02, steps=3),
                 outer_steps=4)
    [res3] = smooth_finetune(MLP, [multi], [ds], [init])
    f3, b3 = expected_pass_counts(multi, True)
    assert (f3, b3) == (6, 4)
    assert res3.state.counters.forwards == 4 * f3
    assert res3.state.counters.backwards == 4 * b3


def test_assembled_objective_gradient_matches_finite_differences(monkeypatch):
    ds = _moons(n=8, seed=12)
    nodrop = dataclasses.replace(MLP, dropout=0.0)
    params = init_params(nodrop, Rng(13))
    teacher = init_params(nodrop, Rng(14))
    cfg = _cfg()
    xs, ys = ds.inputs, ds.labels
    x_adv = _objective(nodrop, cfg, params, teacher, xs, ys, Rng(15)).adversarial
    monkeypatch.setattr(tr, "find_adversarial", lambda *args: x_adv)  # pins the points

    def objective(p):
        return _objective(nodrop, cfg, p, teacher, xs, ys, Rng(15))

    obj = objective(params)
    grads = obj.tape.backward(obj.total)

    arrays = list(params.values())

    def value():
        return float(objective(params).total.value)

    fd = central_diff(value, arrays)
    for (name, leaf), g_fd in zip(obj.pvars.items(), fd):
        assert_grads_close(grads[leaf], g_fd)


def test_records_csv_schema():
    ds = _moons()
    init = init_params(MLP, Rng(16))
    [smart] = smooth_finetune(MLP, [_cfg(outer_steps=3)], [ds], [init])
    lines = records_csv_lines(smart.records)
    assert lines[0] == "step,lr,beta,task_loss,reg_loss,breg_loss,total,grad_norm"
    [plain] = vanilla_finetune(MLP, [_cfg(outer_steps=3)], [ds], [init])
    vlines = records_csv_lines(plain.records)
    assert vlines[0] == "step,lr,beta,task_loss,total,grad_norm"


def test_checkpoint_resume_reproduces_trajectory(tmp_path):
    ds = _moons()
    init = init_params(MLP, Rng(17))
    cfg = _cfg(outer_steps=18)
    [full] = smooth_finetune(MLP, [cfg], [ds], [init])

    state = init_train_state(MLP, [cfg], [init], smart=True)
    [head] = continue_training(state, [ds], stop_after=7)
    path = str(tmp_path / "ckpt.json")
    save_train_checkpoint(path, state)
    [tail] = resume_training(path, [ds])

    assert _params_equal(tail.params, full.params)
    assert head.records + tail.records == full.records
    assert tail.state.counters.forwards == full.state.counters.forwards


def test_checkpoint_round_trip_without_steps(tmp_path):
    ds = _moons()
    init = init_params(MLP, Rng(18))
    cfg = _cfg(outer_steps=9)
    state = init_train_state(MLP, [cfg], [init], smart=True)
    path = str(tmp_path / "fresh.json")
    save_train_checkpoint(path, state)
    loaded = resume_from_checkpoint(path)
    assert loaded.outer_t == 0 and loaded.global_step == 0
    assert _params_equal(loaded.params, state.params)
    [run_a] = continue_training(loaded, [ds])
    [run_b] = smooth_finetune(MLP, [cfg], [ds], [init])
    assert _params_equal(run_a.params, run_b.params)


def test_checkpoint_load_errors(tmp_path):
    ds = _moons()
    init = init_params(MLP, Rng(19))
    state = init_train_state(MLP, [_cfg()], [init], smart=True)
    path = str(tmp_path / "ok.json")
    save_train_checkpoint(path, state)
    text = open(path).read()
    trunc = str(tmp_path / "trunc.json")
    with open(trunc, "w") as fh:
        fh.write(text[: len(text) * 2 // 3])
    with pytest.raises(CheckpointError):
        resume_from_checkpoint(trunc)
    badv = str(tmp_path / "badv.json")
    with open(badv, "w") as fh:
        fh.write(text.replace('"version": 1', '"version": 7', 1))
    with pytest.raises(CheckpointError, match="version"):
        resume_from_checkpoint(badv)


def test_transformer_training_and_reduction():
    ds = gen_token_sequences(24, vocab=5, length=4, rule="majority", seed=20)
    cfg_model = ModelConfig(task="classification", classes=5, arch="transformer",
                            embed_dim=8, heads=2, layers=1, max_len=4, vocab_size=5,
                            dropout=0.1)
    init = init_params(cfg_model, Rng(21))
    cfg = _cfg(outer_steps=6, batch_size=8)
    [res] = smooth_finetune(cfg_model, [cfg], [ds], [init])
    assert len(res.records) == 6
    reduced = _cfg(outer_steps=6, batch_size=8, reg_weight=0.0,
                   prox=ProxConfig(prox_weight=0.0, mode="mbpp"))
    [a] = smooth_finetune(cfg_model, [reduced], [ds], [init])
    [b] = vanilla_finetune(cfg_model, [reduced], [ds], [init])
    assert _params_equal(a.params, b.params)
    assert a.records == b.records


def test_default_hyperparameters():
    cfg = TrainConfig()
    assert cfg.adv.eps == 1e-5
    assert cfg.adv.noise_std == 1e-5
    assert cfg.adv.step_size == 1e-3
    assert cfg.adv.steps == 1
    assert cfg.prox.prox_weight == 1.0
    assert (cfg.prox.ema_early, cfg.prox.ema_late, cfg.prox.ema_switch) \
        == (0.99, 0.999, 0.1)
    assert cfg.inner_steps == 1
    assert cfg.clip_norm == 1.0
    assert cfg.warmup_frac == 0.1
    assert cfg.reg_weight in (1.0, 3.0, 5.0)


def test_detach_clean_ablation_changes_gradient_not_value(monkeypatch):
    ds = _moons(n=10, seed=24)
    nodrop = dataclasses.replace(MLP, dropout=0.0)
    params = init_params(nodrop, Rng(25))
    xs, ys = ds.inputs, ds.labels
    base = _cfg(prox=ProxConfig(prox_weight=0.0, mode="mbpp"))
    both = _objective(nodrop, base, params, None, xs, ys, Rng(26))
    detached_cfg = dataclasses.replace(base, reg_detach_clean=True)
    monkeypatch.setattr(tr, "find_adversarial", lambda *args: both.adversarial)
    frozen = _objective(nodrop, detached_cfg, params, None, xs, ys, Rng(26))
    assert float(frozen.total.value) == float(both.total.value)
    g_both = both.tape.backward(both.total)
    g_frozen = frozen.tape.backward(frozen.total)
    diffs = [np.max(np.abs(g_both[both.pvars[n]] - g_frozen[frozen.pvars[n]]))
             for n in params]
    assert max(diffs) > 0.0


def test_regression_training_runs():
    rng = Rng(22)
    xs = rng.gaussian((16, 2), 1.0)
    ys = xs[:, 0] * 0.5 - xs[:, 1] * 0.25
    ds = Dataset(task="regression", input_kind="vector", inputs=xs, labels=ys)
    cfg_model = ModelConfig(task="regression", arch="mlp", input_dim=2, hidden=(6,),
                            dropout=0.0)
    init = init_params(cfg_model, Rng(23))
    [res] = smooth_finetune(cfg_model, [_cfg(outer_steps=12, batch_size=8)], [ds], [init])
    assert all(np.isfinite(r.total) for r in res.records)
    assert res.records[-1].reg_loss >= 0.0


TEACHER_CASES = {  # (model, whether the teacher forward starts from the clean features)
    "transformer_dropout": (ModelConfig(task="classification", classes=6, arch="transformer",
                                        embed_dim=8, heads=2, layers=1, max_len=5, vocab_size=6,
                                        dropout=0.2), True),
    "mlp_one_hidden_dropout": (MLP, True),
    "mlp_two_hidden_dropout": (dataclasses.replace(MLP, hidden=(6, 5)), False),
    "mlp_linear": (dataclasses.replace(MLP, hidden=(), dropout=0.0), True),
}


@pytest.mark.parametrize("case", sorted(TEACHER_CASES))
def test_current_teacher_equals_a_teacher_copy_bitwise(case, monkeypatch):
    """A teacher passed as the params themselves, whose forward starts from
    the clean forward's output-layer input when no earlier dropout site shaped
    it, gives the objective and gradients that a bitwise copy gives."""
    model, reused = TEACHER_CASES[case]
    if model.arch == "mlp":
        ds = _moons(12, seed=4)
    else:
        ds = gen_token_sequences(12, 6, 5, "majority", 4)
    params = init_params(model, Rng(9))
    masks = draw_dropout_masks(model, len(ds), [Rng(10)])
    masks = None if masks is None else [m[0] for m in masks]  # a stack of one's slice
    given = []

    def forward(*args, _inner=mdl.forward, **kwargs):
        given.append(args[3] is not None)
        return _inner(*args, **kwargs)

    monkeypatch.setattr(mdl, "forward", forward)
    results = []
    for teacher in (params, {name: block.copy() for name, block in params.items()}):
        obj = _objective(model, _cfg(), params, teacher, ds.inputs, ds.labels, Rng(11), masks)
        grads = obj.tape.backward(obj.total)
        results.append((obj.breg.value, obj.total.value,
                        [grads[var] for var in obj.pvars.values()]))
    assert given == [reused, False]
    (breg, total, grads), (breg_copy, total_copy, grads_copy) = results
    assert breg == breg_copy and total == total_copy
    assert all(np.array_equal(a, b) for a, b in zip(grads, grads_copy))


def test_vbpp_teacher_is_the_current_iterate_at_every_update(monkeypatch):
    """vbpp pins the teacher to the previous iterate, which with one inner
    step is the params each update starts from, bit for bit; mbpp's teacher
    is the params only before the first update."""
    model = TEACHER_CASES["transformer_dropout"][0]
    ds = gen_token_sequences(20, 6, 5, "majority", 5)
    given = []

    def forward(*args, _inner=mdl.forward, **kwargs):
        given.append(args[3] is not None)
        return _inner(*args, **kwargs)

    monkeypatch.setattr(mdl, "forward", forward)
    for mode, want in (("vbpp", [True] * 6), ("mbpp", [True] + [False] * 5)):
        given.clear()
        smooth_finetune(model, [_cfg(prox=ProxConfig(mode=mode), outer_steps=6)], [ds],
                        [init_params(model, Rng(12))])
        assert given == want, mode
