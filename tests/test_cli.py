import dataclasses
import hashlib
import json
import os
import warnings

import numpy as np
import pytest

from smoothtune import cli
from smoothtune import model as mdl
from smoothtune import trainer as tr
from smoothtune.checkpoint import load_params
from smoothtune.cli import main
from smoothtune.data import Dataset, read_dataset, subsample_splits
from smoothtune.evaluate import (accuracy, agreement_cross_entropy, local_smoothness_probe,
                                 task_metric)
from smoothtune.model import ModelConfig, init_params
from smoothtune.runconfig import parse_config
from smoothtune.tensor import Rng
from smoothtune.trainer import smooth_finetune, vanilla_finetune


def _write_config(path, train, test, out, extra=""):
    path.write_text(f"""
[model]
task = classification
classes = 2
arch = mlp
input_dim = 2
hidden = 8
dropout = 0.1

[smart]
method = smooth
reg_weight = 2.0
eps = 0.1
noise_std = 0.01
step_size = 0.02
adv_steps = 1
prox_mode = mbpp
prox_weight = 1.0
outer_steps = 12
batch_size = 10
peak_lr = 0.01

[data]
train = {train}
test = {test}

[run]
seed = 5
out = {out}
{extra}
""")
    return str(path)


@pytest.fixture()
def workspace(tmp_path):
    train = tmp_path / "train.jsonl"
    test = tmp_path / "test.jsonl"
    assert main(["gen-data", "--generator", "two-moons", "--n", "40",
                 "--noise", "0.25", "--seed", "7", "--out", str(train)]) == 0
    assert main(["gen-data", "--generator", "two-moons", "--n", "60",
                 "--noise", "0.25", "--seed", "8", "--out", str(test)]) == 0
    cfg = _write_config(tmp_path / "run.ini", train, test, tmp_path / "out")
    return tmp_path, cfg, str(train), str(test)


def test_gen_data_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        assert main(["gen-data", "--generator", "cluster", "--n", "50",
                     "--classes", "2", "--dim", "2", "--separation", "2",
                     "--noise", "1.0", "--seed", "3", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_outputs_and_rerun_byte_identical(workspace):
    tmp, cfg, train, test = workspace
    out1, out2 = str(tmp / "r1"), str(tmp / "r2")
    assert main(["train", "--config", cfg, "--out", out1]) == 0
    assert main(["train", "--config", cfg, "--out", out2]) == 0
    for name in ("records.csv", "metrics.json", "checkpoint_final.json"):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2, name
    metrics = json.load(open(os.path.join(out1, "metrics.json")))
    assert 0.0 <= metrics["final_train_metric"] <= 1.0
    assert metrics["steps"] == 12
    assert not os.path.exists(os.path.join(out1, "FAILED"))
    assert os.path.exists(os.path.join(out1, "config.ini"))


def test_records_columns_absent_versus_present(workspace):
    tmp, cfg, train, test = workspace
    vout, sout = str(tmp / "v"), str(tmp / "s")
    assert main(["train", "--config", cfg, "--out", vout,
                 "--set", "smart.method=vanilla"]) == 0
    assert main(["train", "--config", cfg, "--out", sout]) == 0
    vhead = open(os.path.join(vout, "records.csv")).readline().strip()
    shead = open(os.path.join(sout, "records.csv")).readline().strip()
    assert vhead == "step,lr,beta,task_loss,total,grad_norm"
    assert shead == "step,lr,beta,task_loss,reg_loss,breg_loss,total,grad_norm"
    # reduced smooth run drops the penalty columns and matches vanilla exactly
    rout = str(tmp / "r")
    assert main(["train", "--config", cfg, "--out", rout,
                 "--set", "smart.reg_weight=0", "--set", "smart.prox_weight=0"]) == 0
    assert (open(os.path.join(rout, "records.csv"), "rb").read()
            == open(os.path.join(vout, "records.csv"), "rb").read())


def test_eval_deterministic_and_correct(workspace):
    tmp, cfg, train, test = workspace
    out = str(tmp / "e")
    assert main(["train", "--config", cfg, "--out", out]) == 0
    ckpt = os.path.join(out, "checkpoint_final.json")
    m1, m2 = str(tmp / "m1.json"), str(tmp / "m2.json")
    assert main(["eval", "--checkpoint", ckpt, "--data", test, "--out", m1]) == 0
    assert main(["eval", "--checkpoint", ckpt, "--data", test, "--out", m2]) == 0
    assert open(m1, "rb").read() == open(m2, "rb").read()
    metrics = json.load(open(m1))
    model_cfg, params = load_params(ckpt)
    assert metrics["accuracy"] == accuracy(model_cfg, params, read_dataset(test))


def test_probe_and_boundary_outputs(workspace):
    tmp, cfg, train, test = workspace
    out = str(tmp / "p")
    assert main(["train", "--config", cfg, "--out", out]) == 0
    ckpt = os.path.join(out, "checkpoint_final.json")
    probe_path = str(tmp / "probe.json")
    assert main(["probe", "--checkpoint", ckpt, "--data", train, "--eps", "0.1",
                 "--samples", "16", "--seed", "3", "--out", probe_path]) == 0
    report = json.load(open(probe_path))
    model_cfg, params = load_params(ckpt)
    expect = local_smoothness_probe(model_cfg, params, read_dataset(train), 0.1, 16, 3)
    assert report["smoothness_probe"] == expect
    grid_path = str(tmp / "grid.csv")
    assert main(["boundary", "--checkpoint", ckpt, "--bounds=-1.5,2.5,-1.0,1.5",
                 "--resolution", "4", "--out", grid_path]) == 0
    lines = open(grid_path).read().strip().split("\n")
    assert lines[0] == "x0,x1,p1"
    assert len(lines) == 17
    p1 = float(lines[1].split(",")[2])
    assert 0.0 <= p1 <= 1.0


def test_train_resume_matches_straight_run(workspace):
    tmp, cfg, train, test = workspace
    full, part = str(tmp / "full"), str(tmp / "part")
    assert main(["train", "--config", cfg, "--out", full]) == 0
    # periodic checkpoint mid-run (12 steps, cadence 5 -> last snapshot at 10)
    assert main(["train", "--config", cfg, "--out", part,
                 "--set", "run.checkpoint_every=5"]) == 0
    resumed = str(tmp / "resumed")
    assert main(["train", "--config", cfg, "--out", resumed,
                 "--resume", os.path.join(part, "checkpoint.json")]) == 0
    _, pf = load_params(os.path.join(full, "checkpoint_final.json"))
    _, pr = load_params(os.path.join(resumed, "checkpoint_final.json"))
    for name in pf:
        assert np.array_equal(pf[name], pr[name])


def test_resume_refuses_a_config_that_differs_from_the_checkpoint(workspace, capsys):
    tmp, cfg, train, test = workspace
    part = str(tmp / "part")
    assert main(["train", "--config", cfg, "--out", part,
                 "--set", "run.checkpoint_every=5"]) == 0
    capsys.readouterr()
    resumed = tmp / "resumed"
    code = main(["train", "--config", cfg, "--out", str(resumed),
                 "--resume", os.path.join(part, "checkpoint.json"),
                 "--set", "smart.outer_steps=30", "--set", "smart.reg_weight=9"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("smoothtune: error: config: config differs from checkpoint")
    assert "[smart].reg_weight is 9.0, the checkpoint has 2.0" in err
    assert "[smart].outer_steps is 30, the checkpoint has 12" in err
    assert err.count("[") == 2
    assert (resumed / "FAILED").exists()
    assert not (resumed / "records.csv").exists()


def test_resume_accepts_equal_values_written_as_ints(workspace):
    # a library run may hold 2 where the config file says 2.0
    tmp, cfg, train, test = workspace
    run_cfg = parse_config(cfg)
    ckpt = str(tmp / "lib.json")
    state = tr.init_train_state(run_cfg.model, [dataclasses.replace(run_cfg.train, reg_weight=2)],
                                [init_params(run_cfg.model, Rng(5).child(0))], smart=True)
    tr.continue_training(state, [read_dataset(str(train))], stop_after=10)
    tr.save_train_checkpoint(ckpt, state)
    assert main(["train", "--config", cfg, "--out", str(tmp / "resumed"),
                 "--resume", ckpt]) == 0


@pytest.mark.parametrize("argv", [
    ["--generator", "two-moons", "--n", "4", "--noise", "nan"],
    ["--generator", "two-moons", "--n", "4", "--noise", "inf"],
    ["--generator", "two-moons", "--n", "4", "--noise", "-0.1"],
    ["--generator", "cluster", "--n", "4", "--noise", "inf"],
    ["--generator", "cluster", "--n", "4", "--separation", "nan"],
    ["--generator", "cluster", "--n", "4", "--separation", "-1"],
])
def test_gen_data_refuses_bad_scales(tmp_path, capsys, argv):
    out = tmp_path / "d.jsonl"
    assert main(["gen-data", *argv, "--seed", "1", "--out", str(out)]) == 1
    assert "must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, field", [
    (["--generator", "cluster", "--n", "6", "--noise", "1e-200"], "p"),
    (["--generator", "two-moons", "--n", "1000", "--noise", "1e308"], "x"),
], ids=["nan_posteriors", "infinite_points"])
def test_gen_data_refuses_a_non_finite_dataset_before_writing(tmp_path, capsys, argv, field):
    """A generated value the reader would refuse is refused with one line and
    no numpy warning, and neither the file nor its sidecar is written."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gen-data", *argv, "--seed", "1", "--out", str(tmp_path / "d.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("smoothtune: error: input:") and err.count("\n") == 1, err
    assert f"non-finite value in '{field}'" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n, seed, digest", [
    (400, 1001, "c7b8e18a88be5dc042a4a955a8682db0947b5ed2a74bacf3b6d3a1dbce5b8477"),
    (1000, 1002, "e9cf1afa3618417bd74e1595f2de16aafe9f3040e0feb0ea6365aaece2761280"),
])
def test_gen_data_tokens_keeps_the_benchmark_files_bytes(tmp_path, n, seed, digest):
    """The benchmark's token files, with labels from each row's own token
    counts, are the bytes that counts over the whole vocabulary gave."""
    out = tmp_path / "tokens.jsonl"
    assert main(["gen-data", "--generator", "tokens", "--n", str(n), "--vocab", "8",
                 "--length", "8", "--seed", str(seed), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_gen_data_tokens_refuses_a_vocab_past_int64(tmp_path, capsys):
    big, edge = tmp_path / "big.jsonl", tmp_path / "edge.jsonl"
    argv = ["gen-data", "--generator", "tokens", "--n", "5", "--seed", "1"]
    assert main([*argv, "--vocab", str(2**63), "--out", str(big)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("smoothtune: error: input:") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []
    assert main([*argv, "--vocab", str(2**63 - 1), "--out", str(edge)]) == 0
    assert len(read_dataset(str(edge))) == 5


@pytest.mark.parametrize("seed", [str(2**64), str(2**64 + 5), "-1"])
@pytest.mark.parametrize("command", ["gen-data", "probe"])
def test_a_seed_an_rng_cannot_keep_is_refused_before_any_file_is_written(
        tmp_path, capsys, command, seed):
    """An Rng keeps a seed's low 64 bits, so --seed takes run.seed's range."""
    data, ckpt, out = tmp_path / "d.jsonl", tmp_path / "c.json", tmp_path / "out.json"
    assert main(["gen-data", "--generator", "two-moons", "--n", "10", "--seed", str(2**64 - 1),
                 "--out", str(data)]) == 0
    model = ModelConfig(task="classification", classes=2, arch="mlp", input_dim=2, hidden=(4,))
    tr.save_train_checkpoint(str(ckpt), tr.init_train_state(
        model, [tr.TrainConfig()], [init_params(model, Rng(0))], smart=False))
    argv = {"gen-data": ["gen-data", "--generator", "two-moons", "--n", "10"],
            "probe": ["probe", "--checkpoint", str(ckpt), "--data", str(data), "--eps", "0.1"]}
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main([*argv[command], "--seed", seed, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("smoothtune: error: input: --seed must be in "
                                       f"[0, 18446744073709551616), got {seed}\n")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("setting", [
    *(f"smart.{key}=nan" for key in (
        "reg_weight", "eps", "noise_std", "step_size", "prox_weight", "ema_early",
        "ema_late", "ema_switch", "peak_lr", "warmup_frac", "clip_norm")),
    "smart.eps=inf", "smart.ema_early=1.0", "smart.ema_late=-0.5",
    "run.probe_eps=nan", "run.probe_eps=inf", "run.probe_eps=-1", "run.probe_samples=0",
    "run.checkpoint_every=-1", "run.eval_every=-2",
    "model.hidden=-3", "model.hidden=8,0", "model.layers=-1", "model.embed_dim=0",
    "model.input_dim=0", "model.max_len=0", "model.vocab_size=0",
    f"run.seed={2**64}", f"run.seed={-2**64}", "run.seed=-1",
])
def test_train_refuses_non_finite_and_out_of_range_hyperparameters(workspace, capsys, setting):
    tmp, cfg, _, _ = workspace
    out = tmp / "refused"
    assert main(["train", "--config", cfg, "--out", str(out), "--set", setting]) == 2
    err = capsys.readouterr().err
    assert err.startswith("smoothtune: error: config:") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("setting", [
    "sweep.methods=bogus,smooth", "sweep.reg_weights=nan", "sweep.reg_weights=inf",
    "sweep.prox_weights=-1", "sweep.fractions=1.5", "sweep.fractions=0",
    "sweep.seeds=", "sweep.methods=", f"sweep.seeds=0,{2**64}",
])
def test_sweep_refuses_unknown_methods_and_out_of_range_values(workspace, capsys, setting):
    tmp, cfg, _, _ = workspace
    out = tmp / "refused"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--set", "sweep.seeds=0",
                 "--set", setting]) == 2
    key, value = setting.split(".")[1].split("=")
    wanted = "every entry must be" if value else "must list at least one value"
    assert f"[sweep].{key}: {wanted}" in capsys.readouterr().err
    assert not out.exists()


def test_config_error_lists_every_offending_key(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("""
[model]
classes = many
dropout = 2

[smart]
method = smooth
adv_steps = -1
prox_mode = bogus

[data]
notakey = 1

[run]
seed = 5
eval_every = -1

[sweep]
fractions = 0
""")
    preset = os.path.join(os.path.dirname(__file__), "..", "configs", "two_moons_smooth.ini")
    for argv, fragments in (
        (["--config", str(cfg)],
         ("[model].classes", "[data].notakey", "[smart].outer_steps",
          "[data].train", "[run].out", "[model].dropout: must be in [0, 1), got 2.0",
          "[smart].adv_steps: must be >= 0, got -1",
          "[smart].prox_mode: must be 'mbpp' or 'vbpp', got 'bogus'",
          "[run].eval_every: must be >= 0, got -1",
          "[sweep].fractions: every entry must be in (0, 1], got 0.0")),
        # two rules across fields, reported together
        (["--config", preset, "--set", "model.classes=1", "--set", "model.arch=transformer",
          "--set", "model.heads=3"],
         ("[model].classes: must be >= 2 for classification, got 1",
          "[model].heads: must divide embed_dim 8, got 3")),
    ):
        code = main(["train", *argv])
        assert code == 2
        err = capsys.readouterr().err
        assert "smoothtune: error: config:" in err
        assert err.count("\n") == 1  # one machine-parsable line
        for fragment in fragments:
            assert fragment in err


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("setting, message", [
    ("DEFAULT.seed=3", "[DEFAULT]: unknown section"),  # a name configparser reserves
    (".seed=3", "[]: unknown section"),  # configparser would give seed to every section
    ("run.seed=", "[run].seed: cannot parse ''"),  # and not missing as well
])
def test_a_bad_section_or_value_is_refused_once(workspace, capsys, command, setting, message):
    tmp, cfg, _, _ = workspace
    out = tmp / "refused"
    assert main([command, "--config", cfg, "--out", str(out), "--set", "sweep.seeds=0",
                 "--set", setting]) == 2
    assert capsys.readouterr().err == f"smoothtune: error: config: {message}\n"
    assert not out.exists()


def test_a_default_section_in_the_file_is_refused_as_unknown(workspace, capsys):
    tmp, cfg, _, _ = workspace
    with_default = tmp / "default.ini"
    with_default.write_text("[DEFAULT]\nseed = 3\n" + (tmp / "run.ini").read_text())
    out = tmp / "refused"
    assert main(["train", "--config", str(with_default), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "smoothtune: error: config: [DEFAULT]: unknown section\n"
    assert not out.exists()


def test_a_percent_sign_in_a_value_is_kept_literally(workspace):
    tmp, cfg, _, _ = workspace
    out = tmp / "a%b"
    assert main(["train", "--config", cfg, "--out", str(out), "--set", "smart.outer_steps=1"]) == 0
    assert f"out = {out}\n" in (out / "config.ini").read_text()
    in_file = tmp / "percent.ini"
    in_file.write_text((tmp / "run.ini").read_text().replace(f"out = {tmp / 'out'}", "out = c%(d)s%"))
    assert parse_config(str(in_file)).out_dir == "c%(d)s%"


@pytest.mark.parametrize("content, reason", [
    (b"[model]\ndropout = 0.1\xff\n", "'utf-8' codec can't decode byte 0xff"),
    (b"[model\nclasses = 2\n", "File contains no section headers."),
    (b"classes = 2\n[model]\n", "File contains no section headers."),
    (b"[model]\nclasses\n[run]\nseed = 1\nnot a key\n", "Source contains parsing errors"),
], ids=["not_utf8", "broken_header", "no_header", "lines_without_a_value"])
def test_an_unreadable_config_file_is_refused_in_one_line(tmp_path, capsys, content, reason):
    path = tmp_path / "bad.ini"
    path.write_bytes(content)
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"smoothtune: error: config: cannot read config {path}: {reason}")
    assert err.count("\n") == 1, err
    assert not out.exists()


def test_failed_run_leaves_sentinel(tmp_path, capsys):
    cfg = _write_config(tmp_path / "r.ini", tmp_path / "missing.jsonl",
                        tmp_path / "missing.jsonl", tmp_path / "out")
    code = main(["train", "--config", cfg])
    assert code == 1
    assert (tmp_path / "out" / "FAILED").exists()
    assert "smoothtune: error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_an_interrupted_run_leaves_a_failed_sentinel(workspace, monkeypatch, command):
    """A KeyboardInterrupt is no Exception: it used to leave only config.ini."""
    tmp, cfg, _, _ = workspace
    out = tmp / f"interrupted_{command}"

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(tr, "continue_training", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main([command, "--config", cfg, "--out", str(out),
              *(["--set", "sweep.methods=vanilla", "--set", "sweep.seeds=0"]
                if command == "sweep" else [])])
    assert sorted(os.listdir(out)) == ["FAILED", "config.ini"]
    assert (out / "FAILED").read_text() == "KeyboardInterrupt: \n"


@pytest.mark.parametrize("fraction, code", [("0.01", 1), ("1.0", 0)],
                         ids=["failing", "after-a-failure"])
def test_sweep_leaves_a_failed_sentinel_and_clears_a_stale_one(workspace, capsys, fraction, code):
    tmp, cfg, _, _ = workspace
    out = tmp / "sweep"
    out.mkdir()
    (out / "FAILED").write_text("stale\n")
    assert main(["sweep", "--config", cfg, "--out", str(out), "--set", "sweep.methods=vanilla",
                 "--set", "sweep.seeds=0", "--set", f"sweep.fractions={fraction}"]) == code
    if code:
        assert "selects no examples" in capsys.readouterr().err
        assert "selects no examples" in (out / "FAILED").read_text()
        assert sorted(os.listdir(out)) == ["FAILED", "config.ini"]
    else:
        assert sorted(os.listdir(out)) == ["config.ini", "sweep.csv"]


def test_eval_history_cadence(workspace):
    # 12 steps: evals at 4, 8, 12 and checkpoints at 5, 10 share no pause
    tmp, cfg, train, test = workspace
    runs = {"hist": ["--set", "run.eval_every=4", "--set", "run.checkpoint_every=5"],
            "ckpt": ["--set", "run.checkpoint_every=5"], "plain": []}
    for name, extra in runs.items():
        assert main(["train", "--config", cfg, "--out", str(tmp / name), *extra]) == 0
    hist, plain = tmp / "hist", tmp / "plain"
    lines = (hist / "eval_history.csv").read_text().strip().split("\n")
    assert lines[0] == "step,train_metric,test_metric"
    assert [line.split(",")[0] for line in lines[1:]] == ["4", "8", "12"]
    # the last checkpoint stop before step 12 is 10, whatever the eval cadence
    stored = hist / "checkpoint.json"
    assert stored.read_bytes() == (tmp / "ckpt" / "checkpoint.json").read_bytes()
    assert json.loads(stored.read_text())["train_state"]["outer_t"] == 10
    # paused training must match the unpaused trajectory, and the final
    # metrics come from the last eval row, equal to the plain run's
    for name in ("checkpoint_final.json", "records.csv", "metrics.json"):
        assert (hist / name).read_bytes() == (plain / name).read_bytes(), name
    assert not (plain / "eval_history.csv").exists()


def test_resume_from_the_final_checkpoint_rewrites_the_same_outputs(workspace):
    tmp, cfg, train, test = workspace
    full, again = tmp / "full", tmp / "again"
    assert main(["train", "--config", cfg, "--out", str(full), "--set", "run.eval_every=5"]) == 0
    assert main(["train", "--config", cfg, "--out", str(again), "--set", "run.eval_every=5",
                 "--resume", str(full / "checkpoint_final.json")]) == 0
    for name in ("checkpoint_final.json", "metrics.json"):
        assert (full / name).read_bytes() == (again / name).read_bytes(), name
    # no update is left to log or evaluate
    assert (again / "records.csv").read_text() == "step,lr,beta,task_loss,total,grad_norm\n"
    assert sorted(os.listdir(again)) == ["checkpoint_final.json", "config.ini", "metrics.json",
                                        "records.csv"]


def test_a_rerun_into_the_same_directory_leaves_no_stale_outputs(workspace):
    tmp, cfg, train, test = workspace
    out, fresh = tmp / "out", tmp / "fresh"
    assert main(["train", "--config", cfg, "--out", str(out), "--set", "run.checkpoint_every=5",
                 "--set", "run.eval_every=5"]) == 0
    assert (out / "checkpoint.json").exists() and (out / "eval_history.csv").exists()
    # the second run has neither cadence: nothing of the first may be left beside it
    for where in (out, fresh):
        assert main(["train", "--config", cfg, "--out", str(where),
                     "--set", "smart.reg_weight=9"]) == 0
    assert sorted(os.listdir(out)) == ["checkpoint_final.json", "config.ini", "metrics.json",
                                      "records.csv"]
    for name in ("checkpoint_final.json", "metrics.json", "records.csv"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


def test_a_resume_from_inside_the_output_directory_keeps_its_checkpoint(workspace):
    tmp, cfg, train, test = workspace
    out, full = tmp / "out", tmp / "full"
    assert main(["train", "--config", cfg, "--out", str(full)]) == 0
    assert main(["train", "--config", cfg, "--out", str(out),
                 "--set", "run.checkpoint_every=5"]) == 0
    ckpt = out / "checkpoint.json"
    stored = ckpt.read_bytes()
    for path in (str(ckpt), os.path.relpath(ckpt)):
        assert main(["train", "--config", cfg, "--out", str(out), "--resume", path]) == 0
        assert ckpt.read_bytes() == stored
        assert (out / "checkpoint_final.json").read_bytes() == \
            (full / "checkpoint_final.json").read_bytes()


def test_a_sweep_removes_a_stale_sweep_csv(workspace, capsys):
    tmp, cfg, _, _ = workspace
    out = tmp / "sweep"
    out.mkdir()
    (out / "sweep.csv").write_text("stale\n")
    assert main(["sweep", "--config", cfg, "--out", str(out), "--set", "sweep.methods=vanilla",
                 "--set", "sweep.seeds=0", "--set", "sweep.fractions=0.01"]) == 1
    assert sorted(os.listdir(out)) == ["FAILED", "config.ini"]


def _count_forward_rows(monkeypatch):
    """The row count of every eager forward from now on."""
    rows = []
    for name in ("forward", "forward_from_embedding"):
        def counted(*args, _inner=getattr(mdl, name), **kwargs):
            rows.append(len(args[2]))
            return _inner(*args, **kwargs)
        monkeypatch.setattr(mdl, name, counted)
    return rows


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_score_runs_one_clean_forward_of_the_train_split(workspace, monkeypatch, task):
    """The train metric is read off the probe's clean forward: the train split
    runs 1 + probe_samples forwards and the test split one, and the metrics
    equal accuracy's / mse's."""
    tmp, cfg_path, train_path, test_path = workspace
    cfg = parse_config(cfg_path, ["run.probe_samples=3", "run.probe_eps=0.1"])
    train_ds, test_ds = read_dataset(train_path), read_dataset(test_path)
    metric = accuracy
    if task == "regression":
        cfg = dataclasses.replace(cfg, model=ModelConfig(task="regression", hidden=(8,)))
        train_ds, test_ds = (Dataset(ds.inputs, ds.labels * 0.5 - 0.1)
                             for ds in (train_ds, test_ds))
        metric = task_metric
    params = init_params(cfg.model, Rng(3))
    rows = _count_forward_rows(monkeypatch)
    train_metric, test_metric, probe = cli._score(cfg, params, train_ds, test_ds, 4)
    assert rows.count(len(train_ds)) == 1 + 3
    assert rows.count(len(test_ds)) == 1
    monkeypatch.undo()
    assert train_metric == metric(cfg.model, params, train_ds)
    assert test_metric == metric(cfg.model, params, test_ds)
    assert probe == local_smoothness_probe(cfg.model, params, train_ds, 0.1, 3, 4)


def test_the_last_eval_row_is_the_final_score(workspace, monkeypatch):
    """`train` with eval rows (12 steps: rows at 5, 10 and 12) runs one forward
    of each split per row before the last, and the last row is the final
    score's, so the test split runs one forward per row in all."""
    tmp, cfg, train, test = workspace
    train_n, test_n = len(read_dataset(train)), len(read_dataset(test))
    rows = _count_forward_rows(monkeypatch)
    assert main(["train", "--config", cfg, "--out", str(tmp / "out"),
                 "--set", "run.eval_every=5", "--set", "run.probe_samples=3"]) == 0
    assert rows.count(test_n) == 3
    assert rows.count(train_n) == 2 + 1 + 3
    lines = (tmp / "out" / "eval_history.csv").read_text().strip().split("\n")
    assert [line.split(",")[0] for line in lines[1:]] == ["5", "10", "12"]
    metrics = json.loads((tmp / "out" / "metrics.json").read_text())
    assert lines[-1] == f"12,{metrics['final_train_metric']!r},{metrics['final_test_metric']!r}"


def test_train_refuses_a_non_finite_update(tmp_path, capsys):
    data = tmp_path / "moons.jsonl"
    assert main(["gen-data", "--generator", "two-moons", "--n", "40", "--seed", "1",
                 "--out", str(data)]) == 0
    out = tmp_path / "out"
    preset = os.path.join(os.path.dirname(__file__), "..", "configs", "two_moons_smooth.ini")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--config", preset, "--out", str(out),
                     "--set", f"data.train={data}", "--set", f"data.test={data}",
                     "--set", "model.activation=relu", "--set", "smart.peak_lr=1e300",
                     "--set", "smart.outer_steps=20"])
    assert code == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # one machine-parsable line
    assert "smoothtune: error: contract: non-finite loss at step 2 in run 0 (seed 0)" in err
    assert "non-finite loss at step 2" in (out / "FAILED").read_text()
    assert sorted(os.listdir(out)) == ["FAILED", "config.ini"]


@pytest.mark.parametrize("bounds", ["nan,1,0,1", "0,1,-inf,1", "0,inf,0,1", "1,0,0,1",
                                    "0,1,0.5,0.5"])
def test_boundary_refuses_non_finite_or_empty_bounds(workspace, capsys, bounds):
    tmp, cfg, train, test = workspace
    assert main(["train", "--config", cfg, "--out", str(tmp / "b")]) == 0
    grid = tmp / "grid.csv"
    assert main(["boundary", "--checkpoint", str(tmp / "b" / "checkpoint_final.json"),
                 f"--bounds={bounds}", "--resolution", "3", "--out", str(grid)]) == 1
    assert "finite with each min below its max" in capsys.readouterr().err
    assert not grid.exists()


def test_sweep_summary_and_cell_reproducibility(tmp_path):
    train = tmp_path / "train.jsonl"
    test = tmp_path / "test.jsonl"
    assert main(["gen-data", "--generator", "cluster", "--n", "120", "--classes", "2",
                 "--dim", "2", "--separation", "2", "--noise", "0.8",
                 "--seed", "11", "--out", str(train)]) == 0
    assert main(["gen-data", "--generator", "cluster", "--n", "60", "--classes", "2",
                 "--dim", "2", "--separation", "2", "--noise", "0.8",
                 "--seed", "12", "--out", str(test)]) == 0
    out = tmp_path / "sweepout"
    cfg = _write_config(tmp_path / "s.ini", train, test, out, extra="""
[sweep]
methods = vanilla,smooth
reg_weights = 2
prox_weights = 1
fractions = 0.5,1.0
seeds = 0,1
""")
    assert main(["sweep", "--config", cfg]) == 0
    lines = open(out / "sweep.csv").read().strip().split("\n")
    header = lines[0]
    assert header == "method,reg_weight,prox_weight,fraction,seed,train_metric,test_metric,probe"
    cells = [ln for ln in lines[1:] if ",median," not in ln]
    medians = [ln for ln in lines[1:] if ",median," in ln]
    assert len(cells) == 2 * 2 * 2  # methods x fractions x seeds
    assert len(medians) == 2 * 2    # methods x fractions

    # a vanilla cell re-run in isolation reproduces the recorded row
    target = next(ln for ln in cells if ln.startswith("vanilla,") and ",0.5," in ln
                  and ln.split(",")[4] == "1")
    run_cfg = parse_config(cfg)
    base = read_dataset(str(train))
    split = subsample_splits(base, [0.5], seed=1)[0]
    import dataclasses as dc
    cell_train = dc.replace(run_cfg.train, reg_weight=0.0,
                            prox=dc.replace(run_cfg.train.prox, prox_weight=0.0),
                            seed=1)
    init = init_params(run_cfg.model, Rng(1).child(0))
    [result] = vanilla_finetune(run_cfg.model, [cell_train], [split], [init])
    test_metric = accuracy(run_cfg.model, result.params, read_dataset(str(test)))
    assert float(target.split(",")[6]) == test_metric


def test_sweep_splits_a_cell_by_batch_size_and_matches_solo_runs(tmp_path, monkeypatch):
    train = tmp_path / "t.jsonl"
    test = tmp_path / "e.jsonl"
    assert main(["gen-data", "--generator", "two-moons", "--n", "40",
                 "--noise", "0.25", "--seed", "4", "--out", str(train)]) == 0
    assert main(["gen-data", "--generator", "two-moons", "--n", "20",
                 "--noise", "0.25", "--seed", "5", "--out", str(test)]) == 0
    out = tmp_path / "so"
    # fraction 0.2 keeps 8 examples, below batch_size 10, so it trains apart
    cfg = _write_config(tmp_path / "s.ini", train, test, out, extra="""
probe_samples = 3
[sweep]
methods = vanilla,smooth
reg_weights = 2
prox_weights = 1
fractions = 0.2,0.5,1.0
seeds = 0,1
""")
    stacks = []
    real_init = tr.init_train_state

    def init(model_cfg, cfgs, initial, smart):
        stacks.append((smart, [c.seed for c in cfgs]))
        return real_init(model_cfg, cfgs, initial, smart)

    monkeypatch.setattr(tr, "init_train_state", init)
    assert main(["sweep", "--config", cfg]) == 0
    assert stacks == [(False, [0, 1]), (False, [0, 1, 0, 1]),
                      (True, [0, 1]), (True, [0, 1, 0, 1])]
    monkeypatch.undo()

    run_cfg = parse_config(cfg)
    base, test_ds = read_dataset(str(train)), read_dataset(str(test))
    rows = open(out / "sweep.csv").read().strip().split("\n")[1:]
    runs = [row for row in rows if row.split(",")[4] != "median"]
    assert len(runs) == 2 * 3 * 2
    for row in runs:
        method, rw, pw, frac, seed = row.split(",")[:5]
        fi = [0.2, 0.5, 1.0].index(float(frac))
        split = subsample_splits(base, [0.2, 0.5, 1.0], seed=int(seed))[fi]
        cell = dataclasses.replace(
            run_cfg.train, reg_weight=float(rw), seed=int(seed),
            prox=dataclasses.replace(run_cfg.train.prox, prox_weight=float(pw)))
        [solo] = (smooth_finetune if method == "smooth" else vanilla_finetune)(
            run_cfg.model, [cell], [split], [init_params(run_cfg.model, Rng(int(seed)).child(0))])
        probe = local_smoothness_probe(run_cfg.model, solo.params, split,
                                       run_cfg.train.adv.eps, 3, int(seed))
        assert row.split(",")[5:] == [repr(accuracy(run_cfg.model, solo.params, split)),
                                      repr(accuracy(run_cfg.model, solo.params, test_ds)),
                                      repr(probe)]


def test_median_rows_match_recomputation(tmp_path):
    # medians over the recorded per-seed rows
    train = tmp_path / "t.jsonl"
    assert main(["gen-data", "--generator", "two-moons", "--n", "30",
                 "--noise", "0.2", "--seed", "4", "--out", str(train)]) == 0
    out = tmp_path / "so"
    cfg = _write_config(tmp_path / "s2.ini", train, train, out, extra="""
[sweep]
methods = smooth
reg_weights = 2
prox_weights = 1
fractions = 1.0
seeds = 0,1,2
""")
    assert main(["sweep", "--config", cfg]) == 0
    lines = open(out / "sweep.csv").read().strip().split("\n")[1:]
    cells = [ln.split(",") for ln in lines if ln.split(",")[4] != "median"]
    med = next(ln.split(",") for ln in lines if ln.split(",")[4] == "median")
    tests = sorted(float(c[6]) for c in cells)
    assert float(med[6]) == tests[1]


def _token_file(path, seed, vocab_past_in_row=None):
    """A 40-line token file of vocabulary 8, with the id 8 (one past the
    vocabulary) at the start of row `vocab_past_in_row` when given."""
    assert main(["gen-data", "--generator", "tokens", "--n", "40", "--seed", str(seed),
                 "--out", str(path)]) == 0
    if vocab_past_in_row is not None:
        lines = path.read_text().splitlines()
        rec = json.loads(lines[vocab_past_in_row])
        rec["tokens"][0] = 8
        lines[vocab_past_in_row] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("split", ["test_of_vectors", "test_past_the_vocabulary",
                                   "train_past_the_vocabulary_in_its_last_row",
                                   "test_past_the_classes", "train_past_the_classes"])
def test_every_split_is_checked_against_the_model_before_the_first_update(
        tmp_path, capsys, monkeypatch, command, split):
    """A bad test split used to be refused only after training (every cell of
    a sweep), and a bad last train row only once it was batched, after
    checkpoint.json was written. A test label past the classes was scored
    against, and a train one refused only once its row was batched, or never."""
    moons = tmp_path / "moons.jsonl"
    assert main(["gen-data", "--generator", "two-moons", "--n", "40", "--seed", "1",
                 "--out", str(moons)]) == 0
    train = _token_file(tmp_path / "train.jsonl", 2,
                        39 if split.startswith("train_past_the_vocabulary") else None)
    test = {"test_of_vectors": str(moons),
            "test_past_the_vocabulary": _token_file(tmp_path / "test.jsonl", 3, 5),
            "test_past_the_classes": _relabelled(tmp_path / "test_y8.jsonl", train, 5, 8),
            }.get(split, train)
    if split == "train_past_the_classes":
        train = _relabelled(tmp_path / "train_y8.jsonl", train, 30, 8)
    out = tmp_path / "out"
    preset = os.path.join(os.path.dirname(__file__), "..", "bench", "tokens_transformer.ini")
    capsys.readouterr()

    def no_update(*args, **kwargs):
        raise AssertionError("a stack trained before its splits were checked")

    monkeypatch.setattr(tr, "continue_training", no_update)
    code = main([command, "--config", preset, "--out", str(out),
                 "--set", f"data.train={train}", "--set", f"data.test={test}",
                 "--set", "smart.outer_steps=8", "--set", "smart.batch_size=4",
                 "--set", "run.checkpoint_every=1", "--set", "run.probe_samples=2",
                 *(["--set", "sweep.seeds=0,1"] if command == "sweep" else [])])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("smoothtune: error:") and err.count("\n") == 1, err
    reason = ("needs 'tokens' inputs" if split == "test_of_vectors"
              else "input: class label out of range [0, 8)" if split.endswith("classes")
              else "token id out of range")
    assert reason in err
    assert sorted(os.listdir(out)) == ["FAILED", "config.ini"]


def _relabelled(path, source, row, label):
    """A copy of the dataset file `source` whose row `row` has class label `label`."""
    lines = open(source).read().splitlines()
    rec = json.loads(lines[row])
    rec["y"] = label
    lines[row] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("label", [5, 2, -1])
def test_eval_refuses_a_class_label_outside_the_classes(workspace, capsys, label):
    tmp, cfg, _, test = workspace
    assert main(["train", "--config", cfg, "--out", str(tmp / "run"),
                 "--set", "smart.outer_steps=1"]) == 0
    bad = _relabelled(tmp / "relabelled.jsonl", test, 7, label)
    out = tmp / "metrics.json"
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(tmp / "run" / "checkpoint_final.json"),
                 "--data", bad, "--out", str(out)]) == 1
    low, high = min(label, 0), max(label, 1)
    assert capsys.readouterr().err == (
        f"smoothtune: error: input: class label out of range [0, 2): min {low}, max {high}\n")
    assert not out.exists()


def test_probe_refuses_a_dataset_the_model_cannot_take(workspace, capsys):
    # token ids of length 2 have the shape of the model's raw 2-d vectors
    tmp, cfg, _, _ = workspace
    assert main(["train", "--config", cfg, "--out", str(tmp / "run"),
                 "--set", "smart.outer_steps=1"]) == 0
    tokens = str(tmp / "tokens.jsonl")
    assert main(["gen-data", "--generator", "tokens", "--n", "20", "--length", "2",
                 "--seed", "3", "--out", tokens]) == 0
    out = tmp / "probe.json"
    capsys.readouterr()
    assert main(["probe", "--checkpoint", str(tmp / "run" / "checkpoint_final.json"),
                 "--data", tokens, "--eps", "0.1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("smoothtune: error: contract: model arch 'mlp' needs "
                                       "'vector' inputs, dataset has 'tokens'\n")
    assert not out.exists()


def _regression_copy(path, source, inputs=None):
    """A regression dataset file: the vectors of the dataset file `source`, or
    `inputs`, each with a float target."""
    xs = inputs if inputs is not None else [json.loads(line)["x"] for line in open(source)]
    path.write_text("".join(json.dumps({"x": x, "y": 0.5 * x[0] - x[1]}) + "\n" for x in xs))
    return str(path)


def test_eval_of_soft_labelled_data_adds_the_agreement_cross_entropy(workspace):
    tmp, cfg, _, _ = workspace
    data = str(tmp / "cluster.jsonl")
    assert main(["gen-data", "--generator", "cluster", "--n", "40", "--seed", "3",
                 "--out", data]) == 0
    assert main(["train", "--config", cfg, "--out", str(tmp / "run"), "--set", "smart.outer_steps=2",
                 "--set", f"data.train={data}", "--set", f"data.test={data}"]) == 0
    ckpt, out = str(tmp / "run" / "checkpoint_final.json"), tmp / "eval.json"
    assert main(["eval", "--checkpoint", ckpt, "--data", data, "--out", str(out)]) == 0
    model_cfg, params = load_params(ckpt)
    ds = read_dataset(data)
    assert ds.soft_labels is not None
    metrics = json.loads(out.read_text())
    assert list(metrics) == ["n", "accuracy", "agreement_cross_entropy"]
    assert metrics == {"n": 40, "accuracy": accuracy(model_cfg, params, ds),
                       "agreement_cross_entropy": agreement_cross_entropy(model_cfg, params, ds)}


def test_eval_of_a_regression_checkpoint_writes_the_mean_squared_error(workspace):
    tmp, cfg, train, _ = workspace
    data = _regression_copy(tmp / "regression.jsonl", train)
    assert main(["train", "--config", cfg, "--out", str(tmp / "run"), "--set", "smart.outer_steps=2",
                 "--set", "model.task=regression",
                 "--set", f"data.train={data}", "--set", f"data.test={data}"]) == 0
    ckpt, out = str(tmp / "run" / "checkpoint_final.json"), tmp / "eval.json"
    assert main(["eval", "--checkpoint", ckpt, "--data", data, "--out", str(out)]) == 0
    model_cfg, params = load_params(ckpt)
    ds = read_dataset(data)
    assert ds.task == "regression"
    metrics = json.loads(out.read_text())
    assert list(metrics) == ["n", "mse"]
    assert metrics == {"n": 40, "mse": float(np.mean(
        (mdl.forward(model_cfg, params, ds.inputs) - ds.labels) ** 2))}


def test_runs_without_a_test_split_leave_its_metric_empty(workspace):
    tmp, cfg, _, _ = workspace
    no_test = tmp / "no_test.ini"
    no_test.write_text("".join(line for line in open(cfg).readlines()
                               if not line.startswith("test =")))
    assert main(["train", "--config", str(no_test), "--out", str(tmp / "train"),
                 "--set", "run.eval_every=5", "--set", "run.probe_samples=2"]) == 0
    assert json.loads((tmp / "train" / "metrics.json").read_text())["final_test_metric"] is None
    rows = [line.split(",")
            for line in (tmp / "train" / "eval_history.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["5", "10", "12"]
    assert all(float(row[1]) >= 0 and row[2] == "" for row in rows)
    assert main(["sweep", "--config", str(no_test), "--out", str(tmp / "sweep"),
                 "--set", "sweep.methods=vanilla", "--set", "sweep.seeds=0,1",
                 "--set", "sweep.fractions=1.0", "--set", "run.probe_samples=2"]) == 0
    rows = [line.split(",") for line in (tmp / "sweep" / "sweep.csv").read_text().splitlines()[1:]]
    assert [row[4] for row in rows] == ["0", "1", "median"]
    assert all(float(row[5]) >= 0 and row[6] == "" and float(row[7]) >= 0 for row in rows)


def _far_regression_run(workspace, command, *extra):
    """`command`'s argv for a relu regression run on the two-moons vectors;
    a later `data.test` in `extra` replaces its test split."""
    tmp, cfg, train, _ = workspace
    data = _regression_copy(tmp / "regression.jsonl", train)
    return [command, "--config", cfg, "--out", str(tmp / command), "--set", "smart.outer_steps=5",
            "--set", "model.task=regression", "--set", "model.activation=relu",
            "--set", f"data.train={data}", "--set", f"data.test={data}",
            "--set", "run.probe_samples=2", *extra]


def _refused_without_warnings(capsys, argv) -> str:
    """The stderr of a command that exits 1 without a numpy warning."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    return capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_a_run_refuses_a_non_finite_test_metric(workspace, capsys, command):
    """A test split at x = [1e200, -1e200] overflows a regression model's mean
    squared error; train used to write it to metrics.json as Infinity."""
    tmp = workspace[0]
    far = _regression_copy(tmp / "far.jsonl", None, [[1e200, -1e200]] * 10)
    extra = (["--set", "run.eval_every=2"] if command == "train"
             else ["--set", "sweep.methods=vanilla", "--set", "sweep.seeds=0"])
    err = _refused_without_warnings(capsys, _far_regression_run(
        workspace, command, "--set", f"data.test={far}", *extra))
    assert err == "smoothtune: error: contract: non-finite task metric: inf\n"
    assert sorted(os.listdir(tmp / command)) == ["FAILED", "config.ini"]
    assert "non-finite task metric" in (tmp / command / "FAILED").read_text()


@pytest.mark.parametrize("command, value", [("eval", "task metric"),
                                            ("probe", "smoothness probe")])
def test_reading_commands_refuse_a_non_finite_value(workspace, capsys, command, value):
    """A finite last weight block of 1e200 overflows a regression model's
    mean squared error and its probe; both used to be written as Infinity."""
    tmp = workspace[0]
    argv = _far_regression_run(workspace, "train", "--set", "smart.outer_steps=1")
    assert main(argv) == 0
    document = json.loads((tmp / "train" / "checkpoint_final.json").read_text())
    block = document["tensors"]["layer1.weight"]
    block["data"] = [1e200] * len(block["data"])
    ckpt = tmp / "far.json"
    ckpt.write_text(json.dumps(document))
    out = tmp / f"{command}.json"
    err = _refused_without_warnings(capsys, [
        command, "--checkpoint", str(ckpt), "--data", str(tmp / "regression.jsonl"),
        "--out", str(out), *(["--eps", "0.1", "--samples", "2"] if command == "probe" else [])])
    assert err == f"smoothtune: error: contract: non-finite {value}: inf\n"
    assert not out.exists()


def _preset_run(workspace, out, *extra):
    """`train`'s argv for a short run of the two-moons preset on the workspace splits."""
    tmp, _, train, test = workspace
    preset = os.path.join(os.path.dirname(__file__), "..", "configs", "two_moons_smooth.ini")
    return ["train", "--config", preset, "--out", str(tmp / out),
            "--set", f"data.train={train}", "--set", f"data.test={test}",
            "--set", "smart.outer_steps=6", "--set", "run.probe_samples=2", *extra]


def test_the_seed_flag_is_the_run_seed_setting(workspace):
    tmp = workspace[0]
    assert main(_preset_run(workspace, "flag", "--seed", "5")) == 0
    assert main(_preset_run(workspace, "set", "--set", "run.seed=5")) == 0
    assert main(_preset_run(workspace, "default")) == 0
    records = {name: (tmp / name / "records.csv").read_bytes()
               for name in ("flag", "set", "default")}
    assert records["flag"] == records["set"] != records["default"]
    assert "seed = 5\n" in (tmp / "flag" / "config.ini").read_text()


@pytest.mark.parametrize("rows, message", [
    ([{"x": [0.0, 1.0], "y": 0.5}, {"x": [1.0, 0.0], "y": -0.5}],
     "contract: dataset task 'regression' does not match model task 'classification'"),
    ([{"x": [0.0, 1.0, 2.0], "y": 0}, {"x": [1.0, 0.0, 2.0], "y": 1}],
     "input: raw inputs must be [batch, 2], got (2, 3)"),
])
def test_train_refuses_a_dataset_of_another_task_or_width(workspace, capsys, rows, message):
    tmp = workspace[0]
    data = tmp / "other.jsonl"
    data.write_text("".join(json.dumps(row) + "\n" for row in rows))
    capsys.readouterr()
    assert main(_preset_run(workspace, "run", "--set", f"data.train={data}",
                            "--set", f"data.test={data}")) == 1
    assert capsys.readouterr().err == f"smoothtune: error: {message}\n"
    assert sorted(os.listdir(tmp / "run")) == ["FAILED", "config.ini"]


@pytest.mark.parametrize("bounds, message", [
    ("a,1,0,1", "bounds must be x0_min,x0_max,x1_min,x1_max, got 'a,1,0,1'"),
    ("0,1,0", "bounds must have 4 entries, got 3"),
])
def test_boundary_refuses_malformed_bounds(workspace, capsys, bounds, message):
    tmp, cfg, _, _ = workspace
    assert main(["train", "--config", cfg, "--out", str(tmp / "run"),
                 "--set", "smart.outer_steps=1"]) == 0
    grid = tmp / "grid.csv"
    capsys.readouterr()
    assert main(["boundary", "--checkpoint", str(tmp / "run" / "checkpoint_final.json"),
                 f"--bounds={bounds}", "--resolution", "3", "--out", str(grid)]) == 1
    assert capsys.readouterr().err == f"smoothtune: error: input: {message}\n"
    assert not grid.exists()


def test_sweep_without_a_sweep_section_is_refused_before_its_output_directory(workspace, capsys):
    tmp, cfg, _, _ = workspace
    capsys.readouterr()
    assert main(["sweep", "--config", cfg, "--out", str(tmp / "sweep")]) == 2
    assert capsys.readouterr().err == (
        "smoothtune: error: config: [sweep]: section required for sweep runs\n")
    assert not (tmp / "sweep").exists()


@pytest.mark.parametrize("argv", [
    ["--generator", "two-moons", "--n", "30", "--noise", "0.3", "--seed", "4"],
    ["--generator", "cluster", "--n", "25", "--classes", "3", "--dim", "4",
     "--separation", "1.5", "--noise", "0.7", "--seed", "5"],
    ["--generator", "tokens", "--n", "20", "--vocab", "5", "--length", "3", "--seed", "6"],
])
def test_a_gen_data_sidecar_holds_the_arguments_that_regenerate_the_file(tmp_path, argv):
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    assert main(["gen-data", *argv, "--out", str(first)]) == 0
    sidecar = json.loads((tmp_path / "first.jsonl.meta.json").read_text())
    assert sidecar["generator"] == argv[1]
    assert sorted(sidecar) == sorted(flag[2:] for flag in argv[::2])
    regenerate = [arg for name, value in sidecar.items() for arg in (f"--{name}", str(value))]
    assert main(["gen-data", *regenerate, "--out", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()
    assert (tmp_path / "second.jsonl.meta.json").read_bytes() == (
        tmp_path / "first.jsonl.meta.json").read_bytes()


@pytest.mark.parametrize("command", ["eval", "boundary"])
def test_reading_commands_refuse_non_finite_model_outputs(workspace, capsys, command):
    """Output weights of +-1e308 overflow the two-moons logits; eval used to
    score the NaN probability rows and boundary to write them."""
    tmp, cfg, _, test = workspace
    assert main(["train", "--config", cfg, "--out", str(tmp / "run"),
                 "--set", "smart.outer_steps=5"]) == 0
    document = json.loads((tmp / "run" / "checkpoint_final.json").read_text())
    block = document["tensors"]["layer1.weight"]  # the output layer of hidden = 8
    block["data"] = [1e308 * (-1) ** i for i in range(len(block["data"]))]
    ckpt = tmp / "far.json"
    ckpt.write_text(json.dumps(document))
    out = tmp / f"{command}.out"
    err = _refused_without_warnings(capsys, [
        command, "--checkpoint", str(ckpt), "--out", str(out),
        *(["--data", test] if command == "eval" else ["--bounds=-1,2,-1,1.5", "--resolution", "3"])])
    assert err == "smoothtune: error: contract: non-finite model outputs\n"
    assert not out.exists()
