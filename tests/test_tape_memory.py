"""Tapes are freed by reference counting alone, and forward-only passes keep
only dead nodes: each test that checks freeing runs with the cyclic collector off."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from smoothtune import adversarial
from smoothtune import autodiff as ad
from smoothtune import model as mdl
from smoothtune.adversarial import AdvConfig, PassCounters, find_adversarial
from smoothtune.autodiff import Tape
from smoothtune.data import gen_token_sequences, gen_two_moons
from smoothtune.errors import ContractViolation
from smoothtune.losses import smooth_loss_mean_node
from smoothtune.model import ModelConfig
from smoothtune.optimizer import ProxConfig
from smoothtune.tensor import Rng
from smoothtune.trainer import TrainConfig, build_iteration_objective

from oracles import ref_clip, ref_log, ref_mul, ref_sum_all

MLP = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2,
                  hidden=(8, 8), dropout=0.1)
TF = ModelConfig(task="classification", classes=4, arch="transformer", embed_dim=8,
                 heads=2, layers=2, max_len=6, vocab_size=4, dropout=0.1,
                 activation="relu")
CFG = TrainConfig(reg_weight=2.0,
                  adv=AdvConfig(eps=0.1, noise_std=0.01, step_size=0.02, steps=3),
                  prox=ProxConfig(prox_weight=1.0, mode="mbpp"),
                  outer_steps=10, batch_size=10, peak_lr=0.01, seed=3)


def _eager_head(config, params, emb, masks):
    """build_head from an embedded batch on a tape whose leaves want no
    gradient, dropout masks included."""
    tape = Tape()
    pvars = mdl.leaf_params(tape, params, requires_grad=False)
    return mdl.build_head(config, pvars, tape.const(emb), masks).value


def _solo_masks(config, n):
    """One run's dropout masks: the slice of a stack of one."""
    return [m[0] for m in mdl.draw_dropout_masks(config, n, [Rng(4)])]


def _batch(config):
    if config.arch == "mlp":
        ds = gen_two_moons(10, 0.2, 0)
    else:
        ds = gen_token_sequences(10, vocab=4, length=6, seed=0)
    return ds.inputs, ds.labels


@pytest.fixture()
def no_cyclic_gc():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _spy_tapes(monkeypatch, module, name):
    """Replace module.<name> with a subclass that keeps a weakref per instance."""
    made = []
    base = getattr(module, name)

    class Spy(base):
        def __init__(self):
            super().__init__()
            made.append(weakref.ref(self))

    monkeypatch.setattr(module, name, Spy)
    return made


@pytest.mark.parametrize("config", [MLP, TF], ids=["mlp", "transformer"])
def test_objective_tape_freed_when_dropped(config, no_cyclic_gc):
    params = mdl.init_params(config, Rng(1))
    teacher = mdl.init_params(config, Rng(2))
    xs, ys = _batch(config)
    obj = build_iteration_objective(config, CFG, params, teacher, xs, ys, smart=True,
                                    masks=_solo_masks(config, len(xs)), noise_rng=[Rng(5)],
                                    counters=PassCounters())
    grad_map = obj.tape.backward(obj.total)
    grads = {name: grad_map[var] for name, var in obj.pvars.items()}
    assert len(grads) == len(params)
    tape = weakref.ref(obj.tape)
    del obj, grad_map
    assert tape() is None


@pytest.mark.parametrize("config", [MLP, TF], ids=["mlp", "transformer"])
def test_ascent_tapes_freed_on_return(config, no_cyclic_gc, monkeypatch):
    made = _spy_tapes(monkeypatch, adversarial, "Tape")
    params = mdl.init_params(config, Rng(1))
    xs, _ = _batch(config)
    masks = _solo_masks(config, len(xs))
    emb = mdl.embed(config, params, xs)
    clean = _eager_head(config, params, emb, masks)
    find_adversarial(config, params, emb, clean, CFG.adv, [Rng(5)], masks, PassCounters())
    assert len(made) == CFG.adv.steps
    assert all(ref() is None for ref in made)


def test_transformer_forward_keeps_no_tape(no_cyclic_gc, monkeypatch):
    made = _spy_tapes(monkeypatch, mdl, "Tape")
    params = mdl.init_params(TF, Rng(1))
    xs, _ = _batch(TF)
    out = mdl.forward(TF, params, xs)
    assert out.shape == (len(xs), TF.classes)
    assert len(made) == 1 and made[0]() is None


@pytest.mark.parametrize("config", [MLP, TF], ids=["mlp", "transformer"])
def test_an_eager_forward_keeps_dead_nodes_and_frees_its_intermediates(
        config, no_cyclic_gc, monkeypatch):
    tapes, layers = [], []

    class Kept(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)  # held, so only the nodes could keep an intermediate

    def affine(*args, **kwargs):
        y = real_affine(*args, **kwargs)
        layers.append(weakref.ref(y.value))
        return y

    real_affine = ad.affine
    monkeypatch.setattr(mdl, "Tape", Kept)
    monkeypatch.setattr(ad, "affine", affine)
    params = mdl.init_params(config, Rng(1))
    xs, _ = _batch(config)
    assert mdl.forward(config, params, xs).shape == (len(xs), config.classes)
    (tape,) = tapes
    assert len(tape) > len(params) and all(node is None for node in tape._nodes)
    assert layers and all(ref() is None for ref in layers)


@pytest.mark.usefixtures("no_cyclic_gc")
def test_a_sweep_frees_what_only_adjoint_closures_held_and_is_not_repeated():
    rng = Rng(6)
    tape = Tape()
    x = tape.leaf(rng.gaussian((2, 5, 4), 1.0), requires_grad=True)
    gain = tape.leaf(rng.gaussian((4,), 1.0), requires_grad=True)
    bias = tape.leaf(rng.gaussian((4,), 1.0), requires_grad=True)
    normed = ad.layer_norm(x, gain, bias)
    out = ad.attention(normed, normed, normed, heads=2)
    loss = ref_sum_all(out)
    held = {id(v.value) for v in (x, gain, bias, normed, out, loss)}
    # layer_norm's xhat and inv, attention's softmax and its q, k^T and v head copies
    closed = [weakref.ref(cell.cell_contents) for v in (normed, out)
              for cell in tape._nodes[v.index][1].__closure__
              if isinstance(cell.cell_contents, np.ndarray) and id(cell.cell_contents) not in held]
    assert len(closed) == 6 and all(ref() is not None for ref in closed)
    grads = tape.backward(loss)
    assert list(grads) == [x, gain, bias] and len(tape) == 6
    assert all(ref() is None for ref in closed)
    assert tape.needs(normed) and tape.needs(x)
    with pytest.raises(ContractViolation, match="swept already"):
        tape.backward(loss)


def test_backward_skips_dropped_leaves():
    tape = Tape()
    x = tape.leaf(np.array(2.0), requires_grad=True)
    dropped = tape.leaf(np.array(3.0), requires_grad=True)
    y = ref_mul(x, dropped)
    del dropped
    grads = tape.backward(y)
    assert list(grads) == [x]
    assert grads[x] == 3.0


@pytest.mark.parametrize("config", [MLP, dataclasses.replace(MLP, activation="relu"), TF],
                         ids=["mlp_tanh", "mlp_relu", "transformer"])
def test_eager_forwards_equal_recording_tape(config):
    params = mdl.init_params(config, Rng(1))
    xs, _ = _batch(config)
    for m in (None, _solo_masks(config, len(xs))):
        tape = Tape()
        pvars = mdl.leaf_params(tape, params)
        emb = mdl.build_embed(tape, config, pvars, xs)
        recorded = mdl.build_head(config, pvars, emb, m).value
        assert np.array_equal(mdl.embed(config, params, xs), emb.value)
        assert np.array_equal(_eager_head(config, params, emb.value, m), recorded)
        if m is None:
            assert np.array_equal(mdl.forward(config, params, xs), recorded)
            assert np.array_equal(mdl.forward_from_embedding(config, params, emb.value), recorded)


@pytest.mark.parametrize("act", [None, "tanh"], ids=["none", "tanh"])
def test_plain_affine_node_keeps_no_reference_to_its_output(act, no_cyclic_gc):
    rng = Rng(6)
    tape = Tape()
    x = tape.leaf(rng.gaussian((5, 3), 1.0), requires_grad=True)
    w = tape.leaf(rng.gaussian((3, 4), 1.0), requires_grad=True)
    b = tape.leaf(rng.gaussian((4,), 1.0), requires_grad=True)
    y = ad.affine(x, w, b, act)
    out = weakref.ref(y.value)
    flat = ad.reshape(y, (20,))  # a view: its Var keeps the output's buffer alive
    loss = ref_sum_all(flat)
    del y
    assert out() is not None
    del flat
    # tanh's adjoint needs the output, so only the plain node lets it go
    assert (out() is None) == (act is None)
    assert list(tape.backward(loss)) == [x, w, b]


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_eager_forward_equals_recording_tape_for_a_stack_at_probe_scale(activation):
    config = dataclasses.replace(MLP, hidden=(64, 64), activation=activation, dropout=0.0)
    runs = [mdl.init_params(config, Rng(seed)) for seed in range(3)]
    params = mdl.stack_params(config, runs)
    xs = Rng(7).gaussian((3, 4096, 2), 1.5)
    tape = Tape()
    pvars = mdl.leaf_params(tape, params)
    recorded = mdl.build_head(config, pvars, mdl.build_embed(tape, config, pvars, xs))
    assert len(tape) == len(params) + 1 + 3 + 1  # leaves, input, one node per layer, softmax
    assert np.array_equal(mdl.forward(config, params, xs), recorded.value)


@pytest.mark.parametrize("config", [MLP, TF], ids=["mlp", "transformer"])
def test_input_adjoint_is_the_same_whether_params_need_gradients(config):
    """An ascent step's adjoint toward its points, with the params as leaves
    that want gradients and as leaves that do not (the pruned sweep)."""
    xs, _ = _batch(config)
    stacked = mdl.stack_params(config, [mdl.init_params(config, Rng(s)) for s in (5, 6, 7)])
    emb = np.stack([mdl.embed(config, mdl.unstack_params(config, stacked)[i], xs)
                    for i in range(3)])
    masks = mdl.draw_dropout_masks(config, len(xs), [Rng(8), Rng(9), Rng(10)])
    clean = _eager_head(config, stacked, emb, masks)
    point = emb + np.stack([Rng(11 + i).gaussian(emb.shape[1:], 0.05) for i in range(3)])
    grads = []
    for requires_grad in (True, False):
        tape = Tape()
        pvars = mdl.leaf_params(tape, stacked, requires_grad=requires_grad)
        x_var = tape.leaf(point, requires_grad=True)
        out = mdl.build_head(config, pvars, x_var, masks)
        loss = smooth_loss_mean_node("classification", out, tape.const(clean))
        assert all(tape.needs(v) == requires_grad for v in pvars.values())
        grads.append(tape.backward(loss)[x_var])
    assert np.array_equal(grads[0].view(np.uint64), grads[1].view(np.uint64))
    assert np.abs(grads[0]).max() > 0


@pytest.mark.usefixtures("no_cyclic_gc")
@pytest.mark.parametrize("requires_grad", [False, True])
def test_a_node_with_no_gradient_path_keeps_no_closure(requires_grad):
    tape = Tape()
    arr = np.linspace(0.1, 1.0, 6)
    ref = weakref.ref(arr)
    x = tape.leaf(arr, requires_grad=requires_grad)
    y = ref_log(ref_clip(x, 1e-12, 1.0))  # clip's adjoint would capture arr
    del x, arr
    assert tape.needs(y) == requires_grad
    # only a node on a gradient path keeps its closure, and with it the array
    assert (tape._nodes[y.index] is None) == (not requires_grad)
    assert (ref() is None) == (not requires_grad)
    assert not tape.needs(tape.const(np.ones(2)))
    # stop_gradient starts a constant branch
    z = ad.stop_gradient(tape.leaf(np.ones(2), requires_grad=True))
    assert not tape.needs(z)
