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

from oracles import assert_grads_close, central_diff, ref_sym_kl_rows

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
