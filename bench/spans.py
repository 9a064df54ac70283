"""Span tracer that measures smoothtune's layers from outside the program.

`Tracer.install()` replaces each public function in TARGETS with a wrapper
that records a span: its name, its duration, and the time its child spans
cover, so a layer's self time is its span minus its children. The wrapper is
put wherever the function is looked up: every `smoothtune` module attribute
that holds the original (``trainer`` imports most helpers by name), or the
class attribute for methods. `uninstall()` puts the originals back.

Spans are aggregated as they close instead of being kept in a list: the
program is single-threaded, so the open spans form one stack and a closing
span's parent is the frame below it. Nothing waits on a queue, so wait time
is zero by construction and is not recorded.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

# The root span around one benchmark operation; its self time is what no
# wrapped function accounts for (argparse, CSV and JSON writing, ...).
ROOT = "cli"

# Eager forwards call build_head internally; folding those calls into the
# forward keeps model.build_head to the tape builds made by training.
_EAGER_FORWARDS = frozenset({"model.forward", "model.forward_from_embedding"})

# An update whose objective ran one of these counts as a smooth update.
_SMOOTH_MARKERS = frozenset({"adversarial.find_adversarial",
                             "adversarial.build_smoothness_term", "model.forward"})

# Objective, backward and optimizer: the per-update cost compared between
# smooth and vanilla updates.
_UPDATE_COST = frozenset({"trainer.build_iteration_objective", "autodiff.Tape.backward",
                          "optimizer.adam_step", "optimizer.clip_gradients",
                          "optimizer.global_grad_norm", "optimizer.teacher_update"})


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _tape_nodes(tr, args, kwargs, result):
    tr.counts["autodiff.tape_nodes"] += len(args[0])


def _forward_rows(tr, args, kwargs, result):
    tr.counts["model.forward.rows"] += len(_arg(args, kwargs, 2, "inputs"))


def _embedded_rows(tr, args, kwargs, result):
    tr.counts["model.forward_from_embedding.rows"] += len(_arg(args, kwargs, 2, "embedded"))


def _perm_elements(tr, args, kwargs, result):
    tr.counts["tensor.Rng.permutation.elements"] += int(_arg(args, kwargs, 1, "n"))


def _ascent_steps(tr, args, kwargs, result):
    tr.counts["adversarial.ascent_steps"] += _arg(args, kwargs, 4, "cfg").steps


def _dataset_bytes(tr, args, kwargs, result):
    tr.counts["data.bytes_read"] += _size(_arg(args, kwargs, 0, "path"))


def _json_read(tr, args, kwargs, result):
    tr.counts["checkpoint.bytes_read"] += _size(_arg(args, kwargs, 0, "path"))


def _json_written(tr, args, kwargs, result):
    tr.counts["checkpoint.bytes_written"] += _size(_arg(args, kwargs, 0, "path"))


def _train_state(tr, args, kwargs, result):
    tr.states.append((result, result.counters.forwards, result.counters.backwards))


# (module, attribute, span name or None for a count-only observer, count hook)
TARGETS = [
    ("autodiff", "Tape.backward", "autodiff.Tape.backward", _tape_nodes),
    ("model", "build_head", "model.build_head", None),
    ("model", "forward", "model.forward", _forward_rows),
    ("model", "forward_from_embedding", "model.forward_from_embedding", _embedded_rows),
    ("losses", "smooth_loss_mean_node", "losses.smooth_loss_mean_node", None),
    ("losses", "task_loss_mean_node", "losses.task_loss_mean_node", None),
    ("adversarial", "find_adversarial", "adversarial.find_adversarial", _ascent_steps),
    ("adversarial", "build_smoothness_term", "adversarial.build_smoothness_term", None),
    ("optimizer", "adam_step", "optimizer.adam_step", None),
    ("optimizer", "clip_gradients", "optimizer.clip_gradients", None),
    ("optimizer", "global_grad_norm", "optimizer.global_grad_norm", None),
    ("optimizer", "teacher_update", "optimizer.teacher_update", None),
    ("tensor", "Rng.gaussian", "tensor.Rng.gaussian", None),
    ("tensor", "Rng.permutation", "tensor.Rng.permutation", _perm_elements),
    ("trainer", "build_iteration_objective", "trainer.build_iteration_objective", None),
    ("trainer", "smooth_finetune", "trainer.run", None),
    ("trainer", "vanilla_finetune", "trainer.run", None),
    ("trainer", "continue_training", "trainer.run", None),
    ("trainer", "resume_training", "trainer.run", None),
    ("trainer", "init_train_state", None, _train_state),
    ("trainer", "save_train_checkpoint", "trainer.save_train_checkpoint", None),
    ("trainer", "resume_from_checkpoint", "trainer.resume_from_checkpoint", _train_state),
    ("checkpoint", "load_params", "checkpoint.load_params", None),
    ("checkpoint", "read_json", None, _json_read),
    ("checkpoint", "write_json", None, _json_written),
    ("data", "read_dataset", "data.read_dataset", _dataset_bytes),
    ("data", "subsample_splits", "data.subsample_splits", None),
    ("evaluate", "local_smoothness_probe", "evaluate.local_smoothness_probe", None),
    ("evaluate", "accuracy", "evaluate.accuracy", None),
    ("runconfig", "parse_config", "runconfig.parse_config", None),
    ("runconfig", "effective_config_text", "runconfig.effective_config_text", None),
]

# Hooks that need the call's outcome run after it; the rest run before it,
# so a file about to be overwritten is not measured.
_AFTER = frozenset({_json_written, _train_state})


class Span:
    __slots__ = ("calls", "self_s", "incl_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0


class Tracer:
    """Per-name span totals and counts, accumulated over traced operations."""

    def __init__(self):
        self.spans: dict[str, Span] = defaultdict(Span)
        self.counts: dict[str, int] = defaultdict(int)
        self.states: list = []            # (TrainState, forwards, backwards) at creation
        self.update_s = {"smooth": 0.0, "vanilla": 0.0}
        self.updates = {"smooth": 0, "vanilla": 0}
        self.missing: list[str] = []      # targets the program no longer has
        self._stack: list[list] = []      # open spans: [name, child seconds, smooth marker seen]
        self._cost_depth = 0
        self._kind = "vanilla"            # kind of the update whose objective closed last
        self._patches: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name):
        frame = [name, 0.0, False]
        self._stack.append(frame)
        if name in _UPDATE_COST:
            self._cost_depth += 1
        return frame

    def _close(self, frame, elapsed):
        name = frame[0]
        self._stack.pop()
        span = self.spans[name]
        span.calls += 1
        span.incl_s += elapsed
        span.self_s += elapsed - frame[1]
        if self._stack:
            parent = self._stack[-1]
            parent[1] += elapsed
            if name in _SMOOTH_MARKERS:
                parent[2] = True
        if name in _UPDATE_COST:
            self._cost_depth -= 1
            if name == "trainer.build_iteration_objective":
                self._kind = "smooth" if frame[2] else "vanilla"
                self.updates[self._kind] += 1
            if self._cost_depth == 0:
                self.update_s[self._kind] += elapsed

    def run_root(self, fn):
        """Run one benchmark operation as the root span; returns its wall time."""
        frame = self._open(ROOT)
        t0 = time.perf_counter()
        try:
            fn()
        finally:
            elapsed = time.perf_counter() - t0
            self._close(frame, elapsed)
        return elapsed

    def _wrap(self, fn, name, hook):
        after = hook in _AFTER
        stack = self._stack
        clock = time.perf_counter
        fold = name == "model.build_head"

        if name is None:
            def observed(*args, **kwargs):
                if not after:
                    hook(self, args, kwargs, None)
                result = fn(*args, **kwargs)
                if after:
                    hook(self, args, kwargs, result)
                return result

            return observed

        def traced(*args, **kwargs):
            if fold and stack and stack[-1][0] in _EAGER_FORWARDS:
                return fn(*args, **kwargs)
            if hook is not None and not after:
                hook(self, args, kwargs, None)
            frame = self._open(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, clock() - t0)
            if after:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever the program looks it up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for module_name, attr, name, hook in TARGETS:
            owner_name, _, fn_name = attr.rpartition(".")
            try:
                owner = importlib.import_module(f"smoothtune.{module_name}")
                if owner_name:
                    owner = getattr(owner, owner_name)
            except (ImportError, AttributeError):
                owner = None
            original = None if owner is None else vars(owner).get(fn_name)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, hook)
            if owner_name:
                self._patch(owner, fn_name, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "smoothtune":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def pass_deltas(self) -> tuple[int, int]:
        """Forward and backward passes the program counted during tracing."""
        fwd = sum(state.counters.forwards - f0 for state, f0, _ in self.states)
        bwd = sum(state.counters.backwards - b0 for state, _, b0 in self.states)
        return fwd, bwd

    def smooth_vanilla_cost_ratio(self) -> float:
        """Objective+backward+optimizer seconds per smooth update over the same
        per vanilla update; 0 when either kind of update did not run."""
        if not self.updates["smooth"] or not self.updates["vanilla"]:
            return 0.0
        smooth = self.update_s["smooth"] / self.updates["smooth"]
        vanilla = self.update_s["vanilla"] / self.updates["vanilla"]
        return smooth / vanilla
