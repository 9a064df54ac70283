"""Command-line entry point: data generation, training, evaluation, probing,
boundary export, and sweeps, all as reproducible file-based runs.

Every command is deterministic given its config and seed. Failures exit
nonzero with one machine-parsable line on stderr; a run that dies after
creating its output directory leaves a FAILED sentinel file there.

`train`, `train --resume` and `sweep` share one stack runner: `train` trains
a stack of one run from lists of one (config, initial params, dataset), and
`sweep` trains each cell as one stack per batch size; both score every run the
same way. The runner is the one place a run pauses, for periodic evaluation
and for periodic checkpoints; from the library, a periodic checkpoint is
`continue_training(state, datasets, stop_after=t)` then `save_train_checkpoint`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import data as dat
from . import evaluate as ev
from . import model as mdl
from . import trainer as tr
from .errors import CheckpointError, ConfigError, ContractViolation, InputError
from .runconfig import RunConfig, config_values, effective_config_text, parse_config
from .tensor import Rng


def _fail(stage: str, message: str, code: int) -> int:
    print(f"smoothtune: error: {stage}: {message}", file=sys.stderr)
    return code


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _metric(model_cfg: mdl.ModelConfig, params, dataset) -> float | None:
    """Accuracy or mean squared error of a run on a dataset (None without one)."""
    if dataset is None:
        return None
    metric = ev.accuracy if model_cfg.task == "classification" else ev.mean_squared_error
    return metric(model_cfg, params, dataset)


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    if args.generator == "two-moons":
        ds = dat.gen_two_moons(args.n, args.noise, args.seed)
    elif args.generator == "cluster":
        ds = dat.gen_cluster_classification(
            args.n, args.classes, args.dim, args.separation, args.noise, args.seed
        )
    elif args.generator == "tokens":
        ds = dat.gen_token_sequences(args.n, args.vocab, args.length, args.rule, args.seed)
    else:
        raise InputError(f"unknown generator {args.generator!r}")
    dat.write_dataset(args.out, ds)
    print(f"wrote {len(ds)} examples to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

_TRAIN_OUTPUTS = ("records.csv", "metrics.json", "checkpoint.json", "checkpoint_final.json",
                  "eval_history.csv")


@contextlib.contextmanager
def _output_dir(cfg: RunConfig, outputs: tuple[str, ...], keep: str | None = None):
    """Create cfg.out_dir, remove FAILED and the command's `outputs` left by an
    earlier run (never the file `keep`) and archive the effective config; a
    failure inside the block leaves FAILED holding the exception."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    sentinel = os.path.join(cfg.out_dir, "FAILED")
    for path in (os.path.join(cfg.out_dir, name) for name in ("FAILED", *outputs)):
        if os.path.exists(path) and os.path.realpath(path) != (keep and os.path.realpath(keep)):
            os.remove(path)
    _write_text(os.path.join(cfg.out_dir, "config.ini"), effective_config_text(cfg))
    try:
        yield
    except Exception as exc:
        _write_text(sentinel, f"{type(exc).__name__}: {exc}\n")
        raise


def _read_splits(cfg: RunConfig) -> tuple[dat.Dataset, dat.Dataset | None]:
    """The train split and the test split (None without one), each refused
    before any update unless the model can take every one of its rows."""
    splits = (dat.read_dataset(cfg.train_path),
              dat.read_dataset(cfg.test_path) if cfg.test_path else None)
    for ds in splits:
        if ds is not None:
            tr.check_dataset(cfg.model, ds)
    return splits


def _train_stack(state: tr.TrainState, datasets: list[dat.Dataset], test_ds, eval_every: int,
                 checkpoint_every: int = 0, ckpt_path: str | None = None) -> list[tuple]:
    """Advance a stack to its last outer step and return each run's (final
    params, records, eval rows). This is the one place a run pauses: every
    `eval_every` steps after the start and before the last step, to give each
    run an eval row (step, train metric, test metric); and at each multiple of
    `checkpoint_every` before the last step to write `ckpt_path`. Paused runs
    traverse exactly the trajectory of an unpaused one, and a state already at
    its last step still takes one (empty) segment. The row at the last step is
    `_score`'s."""
    start, last = state.outer_t, state.cfg.outer_steps
    eval_stops = set(range(start + eval_every, last, eval_every)) if eval_every else set()
    ckpt_stops = {t for t in range(start + 1, last)
                  if checkpoint_every and t % checkpoint_every == 0}
    records: list[list[tr.TrainRecord]] = [[] for _ in datasets]
    evals: list[list[tuple]] = [[] for _ in datasets]
    for stop in sorted(eval_stops | ckpt_stops | {last}):
        results = tr.continue_training(state, datasets, stop_after=stop)
        if stop in ckpt_stops:
            tr.save_train_checkpoint(ckpt_path, state)
        for ds, result, run_records, run_evals in zip(datasets, results, records, evals):
            run_records.extend(result.records)
            if stop in eval_stops:
                run_evals.append((state.global_step, _metric(state.model_cfg, result.params, ds),
                                  _metric(state.model_cfg, result.params, test_ds)))
    return [(result.params, run_records, run_evals)
            for result, run_records, run_evals in zip(results, records, evals)]


def _score(cfg: RunConfig, params, train_ds, test_ds, probe_eps: float,
           seed: int) -> tuple[float, float | None, float]:
    """One run's final train metric, test metric and smoothness probe. The
    train metric is read off the probe's clean forward, so the train split
    runs 1 + probe_samples forwards and the test split one."""
    probe, train_metric = ev.local_smoothness_probe(cfg.model, params, train_ds, probe_eps,
                                                    cfg.probe_samples, seed, with_metric=True)
    return train_metric, _metric(cfg.model, params, test_ds), probe


def _train_one(cfg: RunConfig, resume: str | None = None) -> dict:
    """Run one training cell into cfg.out_dir as a stack of one; returns the
    metrics object. A fresh run is evaluated every eval_every steps, a resumed
    one only at its end."""
    with _output_dir(cfg, _TRAIN_OUTPUTS, keep=resume):
        train_ds, test_ds = _read_splits(cfg)
        if resume is not None:
            state = tr.resume_from_checkpoint(resume)
            _check_resume_config(cfg, state, resume)
        else:
            state = tr.init_train_state(cfg.model, [cfg.train],
                                        [mdl.init_params(cfg.model, Rng(cfg.train.seed).child(0))],
                                        smart=cfg.method == "smooth")
        eval_every = 0 if resume is not None else cfg.eval_every
        [(params, records, evals)] = _train_stack(
            state, [train_ds], test_ds, eval_every,
            cfg.checkpoint_every, os.path.join(cfg.out_dir, "checkpoint.json"))

        _write_text(os.path.join(cfg.out_dir, "records.csv"),
                    "\n".join(tr.records_csv_lines(records)) + "\n")
        tr.save_train_checkpoint(os.path.join(cfg.out_dir, "checkpoint_final.json"), state)
        probe_eps = cfg.probe_eps if cfg.probe_eps is not None else cfg.train.adv.eps
        final_train, final_test, probe = _score(cfg, params, train_ds, test_ds, probe_eps,
                                                cfg.train.seed)
        if eval_every:
            evals.append((state.global_step, final_train, final_test))
            lines = ["step,train_metric,test_metric"] + [
                f"{step},{tm!r},{'' if sm is None else repr(sm)}" for step, tm, sm in evals]
            _write_text(os.path.join(cfg.out_dir, "eval_history.csv"),
                        "\n".join(lines) + "\n")
        metrics = {
            "final_train_metric": final_train,
            "final_test_metric": final_test,
            "smoothness_probe": probe,
            "probe_eps": probe_eps,
            "steps": state.global_step,
            "forward_passes": state.counters.forwards,
            "backward_passes": state.counters.backwards,
        }
        _write_text(os.path.join(cfg.out_dir, "metrics.json"), json.dumps(metrics) + "\n")
        return metrics


def _check_resume_config(cfg: RunConfig, state: tr.TrainState, path: str) -> None:
    """Refuse to continue a checkpoint under settings other than its own."""
    stored = dataclasses.replace(cfg, model=state.model_cfg, train=state.cfg,
                                 method="smooth" if state.smart else "vanilla")
    ours, theirs = config_values(cfg), config_values(stored)
    differing = [f"[{s}].{k} is {ours[s, k]}, the checkpoint has {theirs[s, k]}"
                 for s, k in ours if ours[s, k] != theirs[s, k]]
    if differing:
        raise ConfigError(f"config differs from checkpoint {path}: " + "; ".join(differing))


def cmd_train(args) -> int:
    cfg = parse_config(args.config, _collect_overrides(args))
    metrics = _train_one(cfg, resume=args.resume)
    shown = {k: v for k, v in metrics.items() if v is not None}
    print(f"train complete: {json.dumps(shown)}")
    return 0


def _collect_overrides(args) -> list[str]:
    overrides = list(args.set or [])
    if args.seed is not None:
        overrides.append(f"run.seed={args.seed}")
    if args.out is not None:
        overrides.append(f"run.out={args.out}")
    return overrides


# ---------------------------------------------------------------------------
# eval / probe / boundary
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    model_cfg, params = ckpt.load_params(args.checkpoint)
    ds = dat.read_dataset(args.data)
    tr.check_dataset(model_cfg, ds)
    metrics: dict = {"n": len(ds)}
    if model_cfg.task == "classification":
        metrics["accuracy"] = ev.accuracy(model_cfg, params, ds)
        if ds.soft_labels is not None:
            metrics["agreement_cross_entropy"] = ev.agreement_cross_entropy(
                model_cfg, params, ds)
    else:
        metrics["mse"] = ev.mean_squared_error(model_cfg, params, ds)
    _write_text(args.out, json.dumps(metrics) + "\n")
    print(f"wrote metrics to {args.out}")
    return 0


def cmd_probe(args) -> int:
    model_cfg, params = ckpt.load_params(args.checkpoint)
    ds = dat.read_dataset(args.data)
    value = ev.local_smoothness_probe(model_cfg, params, ds, args.eps,
                                      args.samples, args.seed)
    report = {"eps": args.eps, "samples_per_point": args.samples,
              "seed": args.seed, "n": len(ds), "smoothness_probe": value}
    _write_text(args.out, json.dumps(report) + "\n")
    print(f"wrote probe report to {args.out}")
    return 0


def cmd_boundary(args) -> int:
    model_cfg, params = ckpt.load_params(args.checkpoint)
    try:
        bounds = tuple(float(v) for v in args.bounds.split(","))
    except ValueError:
        raise InputError(f"bounds must be x0_min,x0_max,x1_min,x1_max, got {args.bounds!r}")
    if len(bounds) != 4:
        raise InputError(f"bounds must have 4 entries, got {len(bounds)}")
    grid = ev.decision_boundary_grid(model_cfg, params, bounds, args.resolution)
    lines = ["x0,x1,p1"]
    for x0, x1, p1 in grid:
        lines.append(f"{float(x0)!r},{float(x1)!r},{float(p1)!r}")
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(grid)} grid rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    cfg = parse_config(args.config, _collect_overrides(args), require_sweep=True)
    path = os.path.join(cfg.out_dir, "sweep.csv")
    with _output_dir(cfg, ("sweep.csv",)):
        rows = _sweep_rows(cfg)
        _write_text(path, "\n".join(rows) + "\n")
    print(f"wrote {len(rows) - 1} sweep rows to {path}")
    return 0


def _sweep_rows(cfg: RunConfig) -> list[str]:
    """Train and probe every run of every cell; the lines of sweep.csv, header first."""
    methods = cfg.sweep.get("methods", ["vanilla", "smooth"])
    reg_weights = cfg.sweep.get("reg_weights", [cfg.train.reg_weight])
    prox_weights = cfg.sweep.get("prox_weights", [cfg.train.prox.prox_weight])
    fractions = cfg.sweep.get("fractions", [1.0])
    seeds = cfg.sweep.get("seeds", list(range(10)))

    base_train, test_ds = _read_splits(cfg)
    # the splits of one seed come from one shuffle, so every cell shares them
    splits = {seed: dat.subsample_splits(base_train, fractions, seed=seed) for seed in seeds}

    def cells():
        for method in methods:
            if method == "vanilla":
                yield method, 0.0, 0.0
            else:
                for rw in reg_weights:
                    for pw in prox_weights:
                        yield method, rw, pw

    header = "method,reg_weight,prox_weight,fraction,seed,train_metric,test_metric,probe"
    rows = [header]
    groups: dict[tuple, list[tuple[float, float, float]]] = {}
    probe_eps = cfg.probe_eps if cfg.probe_eps is not None else cfg.train.adv.eps
    for method, rw, pw in cells():
        cell_cfg = dataclasses.replace(
            cfg.train, reg_weight=rw, prox=dataclasses.replace(cfg.train.prox, prox_weight=pw))
        runs = [(frac, seed, splits[seed][fi])
                for fi, frac in enumerate(fractions) for seed in seeds]
        # every run of a cell with the same batch size trains in one stack
        stacks: dict[int, list[int]] = {}
        for i, (_, _, split) in enumerate(runs):
            stacks.setdefault(tr.stack_batch_size(cell_cfg, split), []).append(i)
        finals: dict[int, mdl.ModelParams] = {}
        for members in stacks.values():
            seeds_of = [runs[i][1] for i in members]
            # keep only the params: no stack's state outlives its training
            finals.update({i: params for i, (params, _, _) in zip(members, _train_stack(
                tr.init_train_state(
                    cfg.model, [dataclasses.replace(cell_cfg, seed=seed) for seed in seeds_of],
                    [mdl.init_params(cfg.model, Rng(seed).child(0)) for seed in seeds_of],
                    smart=method == "smooth"),
                [runs[i][2] for i in members], test_ds, 0))})
        for i, (frac, seed, split) in enumerate(runs):
            tm, sm, probe = _score(cfg, finals[i], split, test_ds, probe_eps, seed)
            rows.append(f"{method},{rw!r},{pw!r},{frac!r},{seed},"
                        f"{tm!r},{'' if sm is None else repr(sm)},{probe!r}")
            groups.setdefault((method, rw, pw, frac), []).append((tm, sm, probe))
    for (method, rw, pw, frac), vals in groups.items():
        tms = float(np.median([v[0] for v in vals]))
        sms = (None if vals[0][1] is None
               else float(np.median([v[1] for v in vals])))
        prb = float(np.median([v[2] for v in vals]))
        rows.append(f"{method},{rw!r},{pw!r},{frac!r},median,"
                    f"{tms!r},{'' if sms is None else repr(sms)},{prb!r}")
    return rows


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothtune",
        description="Smoothness-regularized fine-tuning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    g.add_argument("--generator", required=True,
                   choices=["two-moons", "cluster", "tokens"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--noise", type=float, default=0.1)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--classes", type=int, default=2)
    g.add_argument("--dim", type=int, default=2)
    g.add_argument("--separation", type=float, default=2.0)
    g.add_argument("--vocab", type=int, default=8)
    g.add_argument("--length", type=int, default=6)
    g.add_argument("--rule", default="majority")
    g.set_defaults(func=cmd_gen_data)

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")

    t = sub.add_parser("train", help="train one run into an output directory")
    common(t)
    t.add_argument("--resume", default=None, help="checkpoint to continue from")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    p = sub.add_parser("probe", help="local smoothness probe of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_probe)

    b = sub.add_parser("boundary", help="export a decision-boundary grid CSV")
    b.add_argument("--checkpoint", required=True)
    b.add_argument("--bounds", required=True,
                   help="x0_min,x0_max,x1_min,x1_max")
    b.add_argument("--resolution", type=int, default=101)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_boundary)

    s = sub.add_parser("sweep", help="run a method/weight/split/seed sweep")
    common(s)
    s.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail("config", str(exc), 2)
    except (InputError, CheckpointError) as exc:
        return _fail("input", str(exc), 1)
    except ContractViolation as exc:
        return _fail("contract", str(exc), 1)
    except OSError as exc:
        return _fail("io", str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
