"""smoothtune benchmark: a single-process, closed-loop harness.

One client runs the workload's unit operation through `smoothtune.cli.main`,
each operation starting after the previous one ends, for --seconds seconds.
Inputs are made with `gen-data` from --seed. With --trace 0 it prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced
operations and prints the per-layer metrics. See bench/README.md.

    python3 bench/run.py --workload cluster_sweep --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object; the full result, with
the environment and output digests, goes to .bench_out/.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: the harness is one client with no
# extra threads, and a 2-core machine shared with other work measures steadier.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import contextlib
import ctypes
import gc
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"


class OpFailure(Exception):
    pass


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def data_rows(path: Path) -> list[str]:
    """CSV lines after the header."""
    return path.read_text(encoding="utf-8").splitlines()[1:]


def call(main, argv: list[str]) -> None:
    """One CLI call; the program's progress lines are discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise OpFailure(f"`{argv[0]}` exited {code}")


def overrides_args(overrides: list[str]) -> list[str]:
    return [arg for ov in overrides for arg in ("--set", ov)]


def check_train_dir(run: Path, passes: tuple[int, int], problems: list[str]) -> dict:
    """Checks one `train` output directory; returns its metrics.json."""
    if (run / "FAILED").exists():
        problems.append(f"{run.name}: FAILED sentinel present")
    metrics = json.loads((run / "metrics.json").read_text(encoding="utf-8"))
    steps = metrics["steps"]
    want = (passes[0] * steps, passes[1] * steps)
    got = (metrics["forward_passes"], metrics["backward_passes"])
    if got != want:
        problems.append(f"{run.name}: forward/backward passes {got}, expected {want}")
    return metrics


class Workload:
    """Inputs, unit operation and output checks of one workload."""

    name = ""
    config: Path

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.train = work / "train.jsonl"
        self.test = work / "test.jsonl"
        self.overrides = [f"data.train={self.train}", f"data.test={self.test}"]

    def make_inputs(self, main) -> None:
        raise NotImplementedError

    def operation(self, main) -> None:
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        raise NotImplementedError

    def configure(self, cfg, trainer) -> None:
        """Expectations derived from the parsed config, used by `inspect`."""
        self.passes = trainer.expected_pass_counts(cfg.train, cfg.method == "smooth")
        self.updates_per_run = cfg.train.total_updates

    def inspect(self) -> tuple[list[str], int, float]:
        """(problems, training updates done, test accuracy) of the last operation."""
        raise NotImplementedError

    def reset(self) -> None:
        for path in self.work.iterdir():
            if path.is_dir():
                shutil.rmtree(path)


class TokensTransformerResume(Workload):
    name = "tokens_transformer_resume"
    config = BENCH / "tokens_transformer.ini"

    def make_inputs(self, main):
        for path, n, k in ((self.train, 400, 1), (self.test, 1000, 2)):
            call(main, ["gen-data", "--generator", "tokens", "--n", str(n), "--vocab", "8",
                        "--length", "8", "--seed", str(1000 * self.seed + k),
                        "--out", str(path)])

    def operation(self, main):
        full, resumed = self.work / "full", self.work / "resumed"
        args = ["--config", str(self.config), "--seed", str(self.seed)]
        args += overrides_args(self.overrides)
        call(main, ["train", "--out", str(full)] + args)
        call(main, ["train", "--out", str(resumed),
                    "--resume", str(full / "checkpoint.json")] + args)
        call(main, ["eval", "--checkpoint", str(full / "checkpoint_final.json"),
                    "--data", str(self.test), "--out", str(full / "eval.json")])

    def outputs(self):
        full, resumed = self.work / "full", self.work / "resumed"
        return [full / "records.csv", full / "metrics.json", full / "checkpoint_final.json",
                full / "eval_history.csv", full / "eval.json", resumed / "records.csv",
                resumed / "metrics.json", resumed / "checkpoint_final.json"]

    def inspect(self):
        problems: list[str] = []
        full, resumed = self.work / "full", self.work / "resumed"
        metrics = check_train_dir(full, self.passes, problems)
        check_train_dir(resumed, self.passes, problems)
        # `train --resume` writes only the rows after the checkpoint
        full_rows = (full / "records.csv").read_text(encoding="utf-8").splitlines()
        resumed_rows = (resumed / "records.csv").read_text(encoding="utf-8").splitlines()
        tail = len(resumed_rows) - 1
        if tail < 1 or resumed_rows != full_rows[:1] + full_rows[-tail:]:
            problems.append("resumed records.csv rows differ from the uninterrupted run's")
        for name in ("checkpoint_final.json", "metrics.json"):
            if (full / name).read_bytes() != (resumed / name).read_bytes():
                problems.append(f"resumed {name} differs from the uninterrupted run's")
        evaluated = json.loads((full / "eval.json").read_text(encoding="utf-8"))
        if evaluated["accuracy"] != metrics["final_test_metric"]:
            problems.append("eval accuracy of the final checkpoint differs from metrics.json")
        return problems, len(full_rows) + tail - 1, metrics["final_test_metric"]


class ClusterSweep(Workload):
    name = "cluster_sweep"
    config = ROOT / "configs" / "cluster_sweep.ini"
    seeds = 3

    def __init__(self, work, seed):
        super().__init__(work, seed)
        seeds = ",".join(str(self.seeds * seed + i) for i in range(self.seeds))
        self.overrides += ["sweep.reg_weights=3", f"sweep.seeds={seeds}",
                           "smart.outer_steps=100", "run.probe_samples=16"]

    def make_inputs(self, main):
        for path, n, k in ((self.train, 10000, 1), (self.test, 2000, 2)):
            call(main, ["gen-data", "--generator", "cluster", "--n", str(n), "--classes", "2",
                        "--dim", "2", "--separation", "1.6", "--noise", "0.8",
                        "--seed", str(1000 * self.seed + k), "--out", str(path)])

    def operation(self, main):
        call(main, ["sweep", "--config", str(self.config), "--seed", str(self.seed),
                    "--out", str(self.work / "sweep")] + overrides_args(self.overrides))

    def outputs(self):
        return [self.work / "sweep" / "sweep.csv"]

    def inspect(self):
        problems: list[str] = []
        rows = [line.split(",") for line in data_rows(self.work / "sweep" / "sweep.csv")]
        runs = [row for row in rows if row[4] != "median"]
        cells = 2 * 3 * self.seeds            # methods x fractions x seeds
        if len(runs) != cells or len(rows) != cells + cells // self.seeds:
            problems.append(f"sweep.csv has {len(runs)} run rows of {len(rows)}, "
                            f"expected {cells} of {cells + cells // self.seeds}")
        test_acc = statistics.median(float(row[6]) for row in runs) if runs else 0.0
        return problems, len(runs) * self.updates_per_run, test_acc


WORKLOADS = {w.name: w for w in (TokensTransformerResume, ClusterSweep)}


# ---------------------------------------------------------------------------
# set-up and environment
# ---------------------------------------------------------------------------

def import_program():
    """Import smoothtune from this checkout's src/ and nowhere else."""
    if not (SRC / "smoothtune" / "cli.py").is_file():
        raise SystemExit(f"bench: no program at {SRC / 'smoothtune'}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.split(".")[0] == "smoothtune"]:
        del sys.modules[name]
    cli = importlib.import_module("smoothtune.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: smoothtune imported from {cli.__file__}, not {SRC}")
    return cli


def time_setup(workload: Workload) -> tuple[float, object]:
    """What `train` does before its first update: import the package, parse the
    config, read the workload's datasets. Returns seconds and the config."""
    t0 = time.perf_counter()
    cli = import_program()
    cfg = cli.parse_config(str(workload.config), workload.overrides)
    cli.dat.read_dataset(cfg.train_path)
    cli.dat.read_dataset(cfg.test_path)
    return time.perf_counter() - t0, cfg


def blas_info() -> dict:
    import numpy as np
    info: dict = {"library": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# the measurement
# ---------------------------------------------------------------------------

def per_layer(tracer, n_ops: int, traced_p50: float, untraced_p50: float) -> dict:
    def per_op(value):
        return value / n_ops

    names = ["autodiff.Tape.backward", "model.build_head", "model.forward",
             "model.forward_from_embedding", "losses.smooth_loss_mean_node",
             "losses.task_loss_mean_node", "adversarial.find_adversarial",
             "adversarial.build_smoothness_term", "optimizer.adam_step",
             "optimizer.clip_gradients", "optimizer.global_grad_norm",
             "optimizer.teacher_update", "tensor.Rng.gaussian", "tensor.Rng.permutation",
             "trainer.build_iteration_objective", "trainer.run",
             "trainer.save_train_checkpoint", "trainer.resume_from_checkpoint",
             "checkpoint.load_params", "data.read_dataset", "evaluate.local_smoothness_probe"]
    out: dict = {}
    for name in names:
        span = tracer.spans[name]
        out[f"{name}.calls"] = (per_op(span.calls), "count")
        out[f"{name}.self_s"] = (per_op(span.self_s), "s")
    for name in ("adversarial.find_adversarial", "trainer.build_iteration_objective",
                 "evaluate.local_smoothness_probe"):
        out[f"{name}.incl_s"] = (per_op(tracer.spans[name].incl_s), "s")
    out["evaluate.accuracy.calls"] = (per_op(tracer.spans["evaluate.accuracy"].calls), "count")
    out["evaluate.accuracy.incl_s"] = (per_op(tracer.spans["evaluate.accuracy"].incl_s), "s")
    for name in ("data.subsample_splits", "runconfig.parse_config",
                 "runconfig.effective_config_text", "cli"):
        out[f"{name}.self_s"] = (per_op(tracer.spans[name].self_s), "s")
    for name, unit in (("autodiff.tape_nodes", "count"), ("model.forward.rows", "count"),
                       ("model.forward_from_embedding.rows", "count"),
                       ("tensor.Rng.permutation.elements", "count"),
                       ("checkpoint.bytes_written", "B"), ("checkpoint.bytes_read", "B"),
                       ("data.bytes_read", "B")):
        out[name] = (per_op(tracer.counts[name]), unit)
    forwards, backwards = tracer.pass_deltas()
    out["trainer.forward_passes"] = (per_op(forwards), "count")
    out["trainer.backward_passes"] = (per_op(backwards), "count")
    out["trainer.smooth_vanilla_cost_ratio"] = (tracer.smooth_vanilla_cost_ratio(), "ratio")
    steps = tracer.counts["adversarial.ascent_steps"]
    search_s = tracer.spans["adversarial.find_adversarial"].incl_s
    out["adversarial.us_per_ascent_step"] = (1e6 * search_s / steps if steps else 0.0, "us")
    root = tracer.spans["cli"]
    out["trace.coverage"] = (1.0 - root.self_s / root.incl_s, "fraction")
    out["trace.overhead"] = (traced_p50 / untraced_p50 - 1.0, "ratio")
    return out


def measure(workload_cls, seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    work = OUT / f"work-{workload_cls.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workload_cls(work, seed)
        workload.make_inputs(import_program().main)
        setups: list[float] = []
        tracer = Tracer() if trace else None

        reference: dict[str, str] | None = None
        attempted = failed = 0
        times: dict[bool, list[float]] = {False: [], True: []}
        rates: list[float] = []  # training updates per second of each untraced operation
        test_accs: list[float] = []
        problems_seen: list[str] = []
        started = None
        while started is None or time.perf_counter() - started < seconds:
            # the first operation warms caches and gives the reference digests
            timed = started is not None
            traced = bool(tracer) and timed and len(times[False]) > len(times[True])
            # Set-up is timed before every operation, so its samples span the
            # whole run as the operation times do; the host's speed drifts
            # over seconds. The operation then runs on the package just imported.
            setup_s, cfg = time_setup(workload)
            setups.append(setup_s)
            cli = sys.modules["smoothtune.cli"]
            workload.configure(cfg, sys.modules["smoothtune.trainer"])
            workload.reset()
            # Every operation starts from the same heap, as a fresh process
            # would: cyclic garbage left by earlier operations and set-ups
            # otherwise decides when the collector runs, which moved peak RSS
            # by about 4% between runs of one seed.
            gc.collect()
            attempted += 1
            problems: list[str] = []
            try:
                if traced:
                    tracer.install()
                    try:
                        elapsed = tracer.run_root(lambda: workload.operation(cli.main))
                    finally:
                        tracer.uninstall()
                else:
                    t0 = time.perf_counter()
                    workload.operation(cli.main)
                    elapsed = time.perf_counter() - t0
                problems, op_updates, test_acc = workload.inspect()
                digests = {str(p.relative_to(work)): sha256(p) for p in workload.outputs()}
                if reference is None:
                    reference = digests
                elif digests != reference:
                    problems.append("outputs differ from the first operation's: " + ", ".join(
                        k for k in digests if digests[k] != reference.get(k)))
            except Exception as exc:  # an operation that fails is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                problems.append(f"{type(exc).__name__}: {exc}")
            if problems:
                failed += 1
                problems_seen.extend(problems)
                print(f"bench: operation {attempted} failed: {'; '.join(problems)}",
                      file=sys.stderr)
            if started is None:
                started = time.perf_counter()
                continue
            if not problems:
                times[traced].append(elapsed)
                if not traced:
                    rates.append(op_updates / elapsed)
                test_accs.append(test_acc)
        env["loadavg_end"] = list(os.getloadavg())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "workload": workload_cls.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "operations": {"attempted": attempted, "failed": failed,
                                           "untraced_s": times[False], "traced_s": times[True]},
        "setup_s": setups, "problems": problems_seen, "digests": reference or {},
        "golden": golden_status(workload_cls.name, seed, reference or {}),
    }
    p50 = statistics.median(times[False]) if times[False] else 0.0
    if trace:
        n_traced = len(times[True])
        traced_p50 = statistics.median(times[True]) if n_traced else 0.0
        rows = per_layer(tracer, n_traced, traced_p50, p50) if n_traced and p50 else {}
        result["missing_targets"] = tracer.missing
    else:
        rows = {
            "op_s_p50": (p50, "s"),
            "updates_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "fraction"),
            "test_acc": (statistics.median(test_accs) if test_accs else 0.0, "fraction"),
        }
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in rows.items()}
    result["summary"] = {"correct": failed == 0 and bool(rows), "attempted": attempted,
                         "failed": failed, "metrics": result["metrics"]}
    return result


def golden_status(workload: str, seed: int, digests: dict) -> dict:
    """Digests compared with bench/golden.json; a difference is reported, not failed."""
    golden_path = BENCH / "golden.json"
    known = {}
    if golden_path.is_file():
        known = json.loads(golden_path.read_text(encoding="utf-8"))
    want = known.get(workload, {}).get(str(seed))
    if want is None:
        return {"status": "no reference"}
    differ = sorted(k for k in set(want) | set(digests) if want.get(k) != digests.get(k))
    return {"status": "differs" if differ else "match", "files": differ}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()  # fail before any work when the program is not here
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    ops = result["operations"]
    print(f"{args.workload} seed {args.seed}: {len(ops['untraced_s'])} untraced and "
          f"{len(ops['traced_s'])} traced timed operations after 1 warm-up, "
          f"{ops['failed']} of {ops['attempted']} failed; golden digests: "
          f"{result['golden']['status']}; full result in {path.relative_to(ROOT)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
