"""Command-line entry point: data generation, training, evaluation, probing,
boundary export, and sweeps, all as reproducible file-based runs.

Every command is deterministic given its config and seed. Failures exit
nonzero with one machine-parsable line on stderr; a run that dies after
creating its output directory leaves a FAILED sentinel file there.
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


def _metric(model_cfg: mdl.ModelConfig, params, dataset) -> float:
    if model_cfg.task == "classification":
        return ev.accuracy(model_cfg, params, dataset)
    return ev.mean_squared_error(model_cfg, params, dataset)


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

@contextlib.contextmanager
def _output_dir(cfg: RunConfig):
    """Create cfg.out_dir, clear a FAILED sentinel left by an earlier run and
    archive the effective config; a failure inside the block leaves FAILED
    holding the exception."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    sentinel = os.path.join(cfg.out_dir, "FAILED")
    if os.path.exists(sentinel):
        os.remove(sentinel)
    _write_text(os.path.join(cfg.out_dir, "config.ini"), effective_config_text(cfg))
    try:
        yield
    except Exception as exc:
        _write_text(sentinel, f"{type(exc).__name__}: {exc}\n")
        raise


def _train_one(cfg: RunConfig, resume: str | None = None) -> dict:
    """Run one training cell into cfg.out_dir; returns the metrics object."""
    with _output_dir(cfg):
        train_ds = dat.read_dataset(cfg.train_path)
        test_ds = dat.read_dataset(cfg.test_path) if cfg.test_path else None
        ckpt_path = os.path.join(cfg.out_dir, "checkpoint.json")
        eval_rows: list[tuple[int, float, float | None]] = []

        if resume is not None:
            state = tr.resume_from_checkpoint(resume)
            _check_resume_config(cfg, state, resume)
            result = tr.continue_training(state, train_ds, checkpoint_path=ckpt_path,
                                          checkpoint_every=cfg.checkpoint_every)
        else:
            init = mdl.init_params(cfg.model, Rng(cfg.train.seed).child(0))
            run = tr.smooth_finetune if cfg.method == "smooth" else tr.vanilla_finetune
            if cfg.eval_every > 0:
                # stepwise segments so periodic evaluation sees frozen snapshots
                result = _train_with_eval(cfg, train_ds, test_ds, init, eval_rows, ckpt_path)
            else:
                result = run(cfg.model, cfg.train, train_ds, init,
                             checkpoint_path=ckpt_path,
                             checkpoint_every=cfg.checkpoint_every)

        tr.write_records_csv(os.path.join(cfg.out_dir, "records.csv"), result.records)
        tr.save_train_checkpoint(os.path.join(cfg.out_dir, "checkpoint_final.json"),
                                 result.state)
        if eval_rows:
            lines = ["step,train_metric,test_metric"]
            for step, tm, sm in eval_rows:
                lines.append(f"{step},{tm!r},{'' if sm is None else repr(sm)}")
            _write_text(os.path.join(cfg.out_dir, "eval_history.csv"),
                        "\n".join(lines) + "\n")

        probe_eps = cfg.probe_eps if cfg.probe_eps is not None else cfg.train.adv.eps
        if eval_rows:  # the last segment ends at the final step and measured both
            _, final_train, final_test = eval_rows[-1]
        else:
            final_train = _metric(cfg.model, result.params, train_ds)
            final_test = None if test_ds is None else _metric(cfg.model, result.params, test_ds)
        metrics = {
            "final_train_metric": final_train,
            "final_test_metric": final_test,
            "smoothness_probe": ev.local_smoothness_probe(
                cfg.model, result.params, train_ds, probe_eps,
                cfg.probe_samples, cfg.train.seed),
            "probe_eps": probe_eps,
            "steps": result.state.global_step,
            "forward_passes": result.state.counters.forwards,
            "backward_passes": result.state.counters.backwards,
        }
        with open(os.path.join(cfg.out_dir, "metrics.json"), "w", encoding="utf-8") as fh:
            json.dump(metrics, fh)
            fh.write("\n")
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


def _train_with_eval(cfg, train_ds, test_ds, init, eval_rows, ckpt_path):
    """Train in eval_every-sized segments, recording metrics between them."""
    state = tr.init_train_state(cfg.model, cfg.train, init, smart=(cfg.method == "smooth"))
    records = []
    t = 0
    while t < cfg.train.outer_steps:
        t = min(t + cfg.eval_every, cfg.train.outer_steps)
        seg = tr.continue_training(state, train_ds, stop_after=t,
                                   checkpoint_path=ckpt_path,
                                   checkpoint_every=cfg.checkpoint_every)
        records.extend(seg.records)
        eval_rows.append((
            state.global_step,
            _metric(cfg.model, seg.params, train_ds),
            None if test_ds is None else _metric(cfg.model, seg.params, test_ds),
        ))
    return tr.TrainResult(params=seg.params, records=records, state=state)


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
    metrics: dict = {"n": len(ds)}
    if model_cfg.task == "classification":
        metrics["accuracy"] = ev.accuracy(model_cfg, params, ds)
        if ds.soft_labels is not None:
            metrics["agreement_cross_entropy"] = ev.agreement_cross_entropy(
                model_cfg, params, ds)
    else:
        metrics["mse"] = ev.mean_squared_error(model_cfg, params, ds)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh)
        fh.write("\n")
    print(f"wrote metrics to {args.out}")
    return 0


def cmd_probe(args) -> int:
    model_cfg, params = ckpt.load_params(args.checkpoint)
    ds = dat.read_dataset(args.data)
    value = ev.local_smoothness_probe(model_cfg, params, ds, args.eps,
                                      args.samples, args.seed)
    report = {"eps": args.eps, "samples_per_point": args.samples,
              "seed": args.seed, "n": len(ds), "smoothness_probe": value}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
        fh.write("\n")
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
    with _output_dir(cfg):
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

    base_train = dat.read_dataset(cfg.train_path)
    test_ds = dat.read_dataset(cfg.test_path) if cfg.test_path else None
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
        finetune = tr.smooth_finetune if method == "smooth" else tr.vanilla_finetune
        for members in stacks.values():
            seeds_of = [runs[i][1] for i in members]
            # keep only the params: a result also holds the whole stack's state
            finals.update({i: result.params for i, result in zip(members, finetune(
                cfg.model, [dataclasses.replace(cell_cfg, seed=seed) for seed in seeds_of],
                [runs[i][2] for i in members],
                [mdl.init_params(cfg.model, Rng(seed).child(0)) for seed in seeds_of]))})
        for i, (frac, seed, split) in enumerate(runs):
            tm = _metric(cfg.model, finals[i], split)
            sm = None if test_ds is None else _metric(cfg.model, finals[i], test_ds)
            probe = ev.local_smoothness_probe(cfg.model, finals[i], split,
                                              probe_eps, cfg.probe_samples, seed)
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
