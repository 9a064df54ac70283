import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import smoothtune
from smoothtune import autodiff as ad
from smoothtune.autodiff import Tape
from smoothtune.data import Dataset
from smoothtune.errors import ContractViolation, InputError
from smoothtune.evaluate import task_metric
from smoothtune.losses import smooth_loss_mean_node, smooth_loss_rows, task_loss_mean_node
from smoothtune.model import ModelConfig, forward, init_params
from smoothtune.tensor import Rng, softmax_row

from oracles import (
    assert_grads_close,
    central_diff,
    cross_entropy_chain,
    ref_sum_all,
    ref_sym_kl_rows,
    squared_error_chain,
    sym_kl_chain,
)

# frozen 40-digit oracle evaluations
KL_HALF_VS_91 = 0.5108256237659907     # 0.5*ln(5/9) + 0.5*ln(5)
KL_91_VS_HALF = 0.3680642071684971     # 0.9*ln(1.8) + 0.1*ln(0.2)
SYM_KL_HALF_91 = 0.8788898309344878
# 6*ln(10): KL([1, 0] || [0.5, 0.5]) = ln 2 plus the reverse KL with log(0)
# clamped to log(1e-12)
SYM_KL_ONE_HOT_VS_HALF = 13.815510557964274
LN4 = 1.3862943611198906


def _sym_kl(p, q):
    return smooth_loss_rows("classification", np.array(p, dtype=float), np.array(q, dtype=float))


def _task_loss(task, outputs, labels):
    tape = Tape()
    return float(task_loss_mean_node(task, tape.const(np.array(outputs, dtype=float)),
                                     np.array(labels)).value)


def test_kl_identical_is_zero():
    assert _sym_kl([[0.3, 0.7]], [[0.3, 0.7]])[0] == 0.0


def test_kl_fixtures():
    rows = _sym_kl([[1.0, 0.0], [0.5, 0.5], [0.9, 0.1]], [[0.5, 0.5], [0.9, 0.1], [0.5, 0.5]])
    assert abs(rows[0] - SYM_KL_ONE_HOT_VS_HALF) < 1e-12
    assert abs(rows[1] - (KL_HALF_VS_91 + KL_91_VS_HALF)) < 1e-12
    assert abs(rows[2] - (KL_91_VS_HALF + KL_HALF_VS_91)) < 1e-12


def test_sym_kl_fixture_and_symmetry():
    assert _sym_kl([[0.1, 0.9]], [[0.1, 0.9]])[0] == 0.0
    assert abs(_sym_kl([[0.5, 0.5]], [[0.9, 0.1]])[0] - SYM_KL_HALF_91) < 1e-12
    rng = Rng(3)
    p = softmax_row(rng.gaussian((10, 4), 1.0))
    q = softmax_row(rng.gaussian((10, 4), 1.0))
    assert np.all(np.abs(_sym_kl(p, q) - _sym_kl(q, p)) < 1e-15)
    assert np.all(_sym_kl(p, q) >= 0.0)


def test_identity_of_indiscernibles():
    rng = Rng(4)
    p = softmax_row(rng.gaussian((5,), 1.0))
    q = p + 1e-13  # max deviation well under 1e-12
    q = q / q.sum()
    assert _sym_kl(p[None], q[None])[0] <= 1e-9


def test_squared_smooth():
    rows = smooth_loss_rows("regression", np.array([3.0, 2.0, -1.0]), np.array([3.0, 0.0, 1.0]))
    assert rows.tolist() == [0.0, 4.0, 4.0]


def test_task_loss_fixtures():
    uniform = np.full(4, 0.25)
    assert abs(_task_loss("classification", [uniform], [2]) - LN4) < 1e-12
    assert _task_loss("classification", [[1.0, 0.0, 0.0]], [0]) == 0.0
    assert _task_loss("regression", [0.5], [0.5]) == 0.0
    with pytest.raises(InputError):
        _task_loss("classification", [uniform], [4])


def test_batch_task_loss_is_mean():
    outputs = np.array([[0.25, 0.75], [0.5, 0.5]])
    labels = np.array([1, 0])
    expected = (-np.log(0.75) - np.log(0.5)) / 2
    assert abs(_task_loss("classification", outputs, labels) - expected) < 1e-15
    preds = np.array([1.0, 2.0])
    targets = np.array([0.0, 4.0])
    assert _task_loss("regression", preds, targets) == 2.5


def test_smooth_loss_rows_matches_scalar_functions():
    rng = Rng(6)
    p = softmax_row(rng.gaussian((6, 3), 1.0))
    q = softmax_row(rng.gaussian((6, 3), 1.0))
    assert np.all(np.abs(smooth_loss_rows("classification", p, q) - ref_sym_kl_rows(p, q))
                  < 1e-12)
    a, b = rng.gaussian((4,), 1.0), rng.gaussian((4,), 1.0)
    assert np.allclose(smooth_loss_rows("regression", a, b), (a - b) ** 2, atol=1e-15)


def test_sym_kl_gradient_through_logits_matches_finite_differences():
    rng = Rng(7)
    za = rng.gaussian((3, 4), 1.0)
    zb = rng.gaussian((3, 4), 1.0)

    def build(tape, la, lb):
        return smooth_loss_mean_node("classification", ad.softmax(la), ad.softmax(lb))

    tape = Tape()
    la = tape.leaf(za, requires_grad=True)
    lb = tape.leaf(zb, requires_grad=True)
    grads = tape.backward(build(tape, la, lb))

    def value():
        t = Tape()
        return float(build(t, t.leaf(za), t.leaf(zb)).value)

    fd = central_diff(value, [za, zb])
    assert_grads_close(grads[la], fd[0])
    assert_grads_close(grads[lb], fd[1])


TASKS = {f.name: f for f in dataclasses.fields(ModelConfig)}["task"].metadata["rule"]
# the loss names that once stood beside the task names
RETIRED_KINDS = ("cross_entropy", "squared_error", "symmetrized_kl", "squared")


def _rules(task):
    """Each rule of `task`, as a call on a model and a dataset of that task."""
    cfg = ModelConfig(hidden=(4,))
    object.__setattr__(cfg, "task", task)  # ModelConfig itself refuses a task it lacks
    params = init_params(cfg, Rng(3))
    x = Rng(2).gaussian((6, 2), 1.0)
    ds = Dataset(x, np.arange(6) % 2 if task == "classification" else x[:, 0])
    out = forward(cfg, params, x)
    tape = Tape()
    return {
        "smooth_loss_rows": lambda: smooth_loss_rows(task, out, out),
        "smooth_loss_mean_node": lambda: smooth_loss_mean_node(task, tape.const(out),
                                                               tape.const(out)),
        "task_loss_mean_node": lambda: task_loss_mean_node(task, tape.const(out), ds.labels),
        "task_metric": lambda: task_metric(cfg, params, ds),
    }


@pytest.mark.parametrize("task", TASKS)
def test_every_task_of_the_model_config_has_each_rule(task):
    for rule in _rules(task).values():
        rule()


@pytest.mark.parametrize("task", ["ranking", *RETIRED_KINDS])
def test_no_other_task_has_a_rule(task):
    for name, rule in _rules(task).items():
        with pytest.raises(ContractViolation, match=f"^unknown task '{task}'$"):
            rule()
            pytest.fail(f"{name} took the task {task!r}")


def test_no_string_constant_in_the_package_is_a_retired_loss_name():
    found = [f"{path.name}:{node.lineno} {node.value!r}"
             for path in sorted(Path(smoothtune.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and node.value in RETIRED_KINDS]
    assert found == []


# a batch of 5 rows of 4 classes, alone and in a stack of 3 runs
BATCH_SHAPES = {"unstacked": (5, 4), "stacked": (3, 5, 4)}


def _probability_rows(seed, shape):
    """Softmax rows whose first rows hold exact 0s and 1s, the clamp's bounds."""
    p = softmax_row(Rng(seed).gaussian(shape, 2.0))
    p[..., 0, :] = np.eye(shape[-1])[seed % shape[-1]]
    p[..., 1, 1] = 0.0
    return p


def _bits(value):
    return np.asarray(value).view(np.uint64)


def _loss_and_grads(build, arrays, live, other_use):
    """A loss's value and the gradients of sum(w * loss) toward its leaves
    named in `live` (the others enter as constants). With `other_use`, the
    first leaf also feeds sum(c * leaf), recorded before or after the loss,
    so that parts reach it in the order a tape adds them."""
    tape = Tape()
    leaves = [tape.leaf(a, requires_grad=name in live) for name, a in zip("pq", arrays)]
    rng = Rng(5)
    c = rng.gaussian(arrays[0].shape, 1.0)
    other = ad.mul_const(leaves[0], c) if other_use == "before" else None
    loss = build(*leaves)
    total = ref_sum_all(ad.mul_const(loss, 0.5 + rng.uniform(np.shape(loss.value))))
    if other_use == "after":
        other = ad.mul_const(leaves[0], c)
    if other is not None:
        total = ad.add(total, ref_sum_all(other))
    grads = tape.backward(total)
    return loss.value, [grads.get(leaf) for leaf in leaves]


def _assert_same_bits(fused, chain):
    (value, grads), (chain_value, chain_grads) = fused, chain
    assert np.array_equal(_bits(value), _bits(chain_value))
    for g, g_chain in zip(grads, chain_grads):
        assert (g is None) == (g_chain is None)
        assert g is None or np.array_equal(_bits(g), _bits(g_chain))


@pytest.mark.parametrize("other_use", [None, "before", "after"])
@pytest.mark.parametrize("live", ["pq", "p", "q"])
@pytest.mark.parametrize("case", sorted(BATCH_SHAPES))
def test_divergence_node_matches_the_chain_bitwise(case, live, other_use):
    """q live as on the smoothness tape, or a dead constant as on the ascent
    and teacher tapes; the node's parts reach p and q as the chain's did."""
    shape = BATCH_SHAPES[case]
    arrays = [_probability_rows(1, shape), _probability_rows(2, shape)]
    fused = _loss_and_grads(lambda p, q: smooth_loss_mean_node("classification", p, q),
                            arrays, live, other_use)
    _assert_same_bits(fused, _loss_and_grads(sym_kl_chain, arrays, live, other_use))
    assert np.all(fused[0] > 0) and any(g is not None and g.any() for g in fused[1])


@pytest.mark.parametrize("other_use", [None, "before", "after"])
@pytest.mark.parametrize("case", sorted(BATCH_SHAPES))
def test_cross_entropy_node_matches_the_chain_bitwise(case, other_use):
    shape = BATCH_SHAPES[case]
    outputs = _probability_rows(3, shape)
    labels = (np.arange(int(np.prod(shape[:-1]))) % shape[-1]).reshape(shape[:-1])
    labels[..., :2] = [3, 1]  # the first row picks an exact 1, the second an exact 0
    fused = _loss_and_grads(lambda o: task_loss_mean_node("classification", o, labels),
                            [outputs], "p", other_use)
    _assert_same_bits(fused, _loss_and_grads(lambda o: cross_entropy_chain(o, labels),
                                             [outputs], "p", other_use))
    assert fused[1][0].any()


@pytest.mark.parametrize("other_use", [None, "before", "after"])
@pytest.mark.parametrize("live", ["pq", "p", "q"])
@pytest.mark.parametrize("case", sorted(BATCH_SHAPES))
def test_squared_error_node_matches_the_chain_bitwise(case, live, other_use):
    """Regression's divergence and task loss, for which no golden run exists."""
    shape = BATCH_SHAPES[case][:-1]
    rng = Rng(4)
    arrays = [rng.gaussian(shape, 1.0), rng.gaussian(shape, 1.0)]
    fused = _loss_and_grads(lambda p, q: smooth_loss_mean_node("regression", p, q),
                            arrays, live, other_use)
    _assert_same_bits(fused, _loss_and_grads(squared_error_chain, arrays, live, other_use))
    if live == "p":  # the task loss: labels enter as a constant
        task = _loss_and_grads(lambda p: task_loss_mean_node("regression", p, arrays[1]),
                               arrays[:1], live, other_use)
        _assert_same_bits(task, (fused[0], fused[1][:1]))


@pytest.mark.parametrize("task", TASKS)
def test_each_loss_builder_records_one_node(task):
    shape = (3, 5, 4) if task == "classification" else (3, 5)
    tape = Tape()
    p = tape.leaf(np.full(shape, 0.25), requires_grad=True)
    q = tape.leaf(np.full(shape, 0.5), requires_grad=True)
    labels = np.zeros(shape[:2], dtype=np.int64) if task == "classification" else np.ones(shape)
    before = len(tape)
    smooth_loss_mean_node(task, p, q)
    assert len(tape) == before + 1
    task_loss_mean_node(task, p, labels)
    # a regression task loss also enters its labels as a constant leaf
    assert len(tape) == before + (2 if task == "classification" else 3)


def test_loss_nodes_keep_the_chain_refusals():
    tape = Tape()
    p = tape.leaf(np.full((4, 3), 1.0 / 3.0), requires_grad=True)
    for task in TASKS:
        with pytest.raises(ContractViolation, match=r"shape mismatch \(4, 3\) vs \(3, 3\)"):
            smooth_loss_mean_node(task, p, tape.const(np.full((3, 3), 1.0 / 3.0)))
    with pytest.raises(ContractViolation, match="different tapes"):
        smooth_loss_mean_node("classification", p, Tape().const(p.value))
    with pytest.raises(ContractViolation, match=r"rows of shape \(3,\)"):
        task_loss_mean_node("classification", p, np.zeros(3, dtype=np.int64))
    with pytest.raises(InputError, match="out of range"):
        task_loss_mean_node("classification", p, np.full(4, 3))
    with pytest.raises(InputError, match="must be integers"):
        task_loss_mean_node("classification", p, np.zeros(4))
