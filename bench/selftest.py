"""Self-test of the span tracer in bench/spans.py.

    python3 -m pytest -q bench/selftest.py

Every wrapped function must fire where the program looks it up, and traced
counts must agree with the program's own counters, so a wrapper that
silently stops firing fails here instead of reporting zero in a benchmark.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
from smoothtune import autodiff, cli, optimizer, trainer  # noqa: E402

MOONS = str(BENCH.parent / "configs" / "two_moons_smooth.ini")
SWEEP = str(BENCH.parent / "configs" / "cluster_sweep.ini")


def run(argv: list[str]) -> None:
    assert cli.main(argv) == 0, argv


@pytest.fixture
def data(tmp_path):
    paths = {name: str(tmp_path / f"{name}.jsonl") for name in ("moons", "cluster")}
    run(["gen-data", "--generator", "two-moons", "--n", "30", "--noise", "0.25",
         "--seed", "1", "--out", paths["moons"]])
    run(["gen-data", "--generator", "cluster", "--n", "200", "--seed", "2",
         "--out", paths["cluster"]])
    return tmp_path, paths


def train_argv(paths, out, *extra):
    return ["train", "--config", MOONS, "--out", str(out),
            "--set", f"data.train={paths['moons']}", "--set", f"data.test={paths['moons']}",
            "--set", "smart.outer_steps=10", *extra]


def traced(tracer, fn):
    tracer.install()
    try:
        tracer.run_root(fn)
    finally:
        tracer.uninstall()


def test_every_wrapper_fires(data):
    tmp, paths = data
    tracer = spans.Tracer()

    def operations():
        run(train_argv(paths, tmp / "a", "--set", "run.eval_every=5",
                       "--set", "run.checkpoint_every=5"))
        run(train_argv(paths, tmp / "b", "--resume", str(tmp / "a" / "checkpoint.json")))
        run(["eval", "--checkpoint", str(tmp / "a" / "checkpoint_final.json"),
             "--data", paths["moons"], "--out", str(tmp / "eval.json")])
        run(["sweep", "--config", SWEEP, "--out", str(tmp / "sweep"),
             "--set", f"data.train={paths['cluster']}", "--set", f"data.test={paths['cluster']}",
             "--set", "sweep.reg_weights=3", "--set", "sweep.fractions=0.5",
             "--set", "sweep.seeds=0", "--set", "smart.outer_steps=5",
             "--set", "run.probe_samples=2"])

    traced(tracer, operations)
    assert tracer.missing == []
    silent = sorted({name for _, _, name, _ in spans.TARGETS
                     if name is not None and tracer.spans[name].calls == 0})
    assert silent == []
    assert all(value > 0 for value in tracer.counts.values())
    assert set(tracer.counts) == {
        "autodiff.tape_nodes", "model.forward.rows", "model.forward_from_embedding.rows",
        "tensor.Rng.permutation.elements", "adversarial.ascent_steps", "data.bytes_read",
        "checkpoint.bytes_read", "checkpoint.bytes_written"}
    assert len(tracer.states) == 4  # segmented train, resume, two sweep cells
    assert tracer.smooth_vanilla_cost_ratio() > 0


def test_counts_match_program_counters(data):
    tmp, paths = data
    tracer = spans.Tracer()
    traced(tracer, lambda: run(train_argv(paths, tmp / "run")))
    metrics = json.loads((tmp / "run" / "metrics.json").read_text())
    s = tracer.spans
    assert s["autodiff.Tape.backward"].calls == metrics["backward_passes"]
    assert s["trainer.build_iteration_objective"].calls == metrics["steps"]
    assert tracer.pass_deltas() == (metrics["forward_passes"], metrics["backward_passes"])
    # tape builds plus teacher forwards, leaving out the forwards accuracy made
    teacher = s["model.forward"].calls - s["evaluate.accuracy"].calls
    assert s["model.build_head"].calls + teacher == metrics["forward_passes"]
    assert tracer.updates == {"smooth": metrics["steps"], "vanilla": 0}


def test_tracing_leaves_outputs_and_functions_unchanged(data):
    tmp, paths = data
    run(train_argv(paths, tmp / "plain"))
    traced(spans.Tracer(), lambda: run(train_argv(paths, tmp / "traced")))
    for name in ("records.csv", "metrics.json", "checkpoint_final.json"):
        assert (tmp / "plain" / name).read_bytes() == (tmp / "traced" / name).read_bytes()
    assert trainer.adam_step is optimizer.adam_step
    assert not hasattr(optimizer.adam_step, "__wrapped__")
    assert not hasattr(autodiff.Tape.backward, "__wrapped__")
