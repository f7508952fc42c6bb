"""Spans and counters recorded around calls into ttalign's public functions.

The tracer patches functions and methods from the outside, for the duration of
a ``with Tracer():`` block, and puts every original back on exit. Nothing under
``src/`` knows it is being traced. Each call to a wrapped function becomes one
span ``[name, start, end, parent, probed]``; ``parent`` is the index of the
enclosing span (-1 at the top) and ``probed`` marks spans recorded while the
allocation probe was on, which the timing statistics leave out.

Set-up is traced too, but only the signal-generation and pretraining metrics
read its spans; every other metric, and every counter, covers the timed part
that starts at :meth:`Tracer.begin`.

Calls marked with :meth:`Tracer.hide` (the benchmark's own readings of the
speed reference, some of which run inside traced calls) stop the tracer's
clock, so no span, interval or self time includes them.

Only layer boundaries are wrapped, not the autodiff primitives: a stage-I step
calls over a hundred of them and a wrapper on each would swamp what it measures.
Forward-pass arithmetic therefore counts as self time of the ``nn`` span that
issued it; ``autodiff`` self time is the backward pass alone.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass

# (module, attribute path) of every wrapped callable.
TARGETS = (
    ("autodiff", "backward"),
    ("nn", "Model.features"),
    ("nn", "Model.forward_main"),
    ("nn", "Model.predict_proba"),
    ("nn", "snapshot"),
    ("nn", "restore"),
    ("nn", "clone_model"),
    ("optim", "Adam.step"),
    ("optim", "SGD.step"),
    ("pretext", "make_view"),
    ("signals", "generate_dataset"),
    ("signals", "preprocess"),
    ("training", "masked_pretrain"),
    ("training", "finetune_stage1"),
    ("adapt", "run_adaptation"),
    ("adapt", "ttt_ssl_adapt_predict"),
    ("adapt", "tent_adapt_predict"),
    ("metrics", "evaluate_predictions"),
    ("harness", "build_splits"),
    ("harness", "run_single"),
    ("harness", "run_experiment"),
    ("harness", "emit_report"),
    ("cli", "main"),
)

LAYERS = ("autodiff", "nn", "optim", "pretext", "signals", "training", "adapt", "metrics", "harness", "cli")

# One optimizer step in this many runs under tracemalloc to measure its
# allocations; the spans of a probed step are left out of every timing.
PROBE_EVERY = 16


@dataclass
class Step:
    """What happened between two optimizer steps."""

    end: float
    finetune: int        # span index of the enclosing finetune_stage1 call, or -1
    views: int           # pretext views drawn
    records: int         # tape records at the last backward
    backward_s: float
    alloc: int | None    # tracemalloc peak bytes, on probed steps only


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ttalign" or name.startswith("ttalign."))]


class Tracer:
    """Span recorder; use as a context manager around the traced calls."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._timed_from = 0
        self.probing = False
        self.steps: list[Step] = []
        self._views = 0
        self._records = 0
        self._backward_s = 0.0
        self.finetune_work: list[tuple[int, float]] = []  # (epochs * samples, seconds)
        self.tent_written = [0, 0]  # [BN-affine elements, all parameter elements]
        self._tent_models: list = []
        self._hidden_s = 0.0  # time of hidden calls so far, left out of every span

    def begin(self) -> None:
        """Mark the start of the timed part: counters restart, set-up spans stay."""
        self._timed_from = len(self.spans)
        self.steps.clear()
        self.finetune_work.clear()
        self.tent_written = [0, 0]

    # -- patching ---------------------------------------------------------------

    def __enter__(self):
        for module_name, path in TARGETS:
            module = importlib.import_module(f"ttalign.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            name = f"{module_name}.{path}"
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, original, self._wrap(name, original))
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                # rebind every module-level alias, e.g. ``from .training import finetune_stage1``
                for mod in _package_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, original, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self.probing:
            tracemalloc.stop()
            self.probing = False
        return False

    def hide(self, owner, attr: str) -> None:
        """Leave the time of calls of ``owner.attr`` out of every span until the block ends.

        For the benchmark's own work inside traced calls, such as reading the
        speed reference: the tracer's clock stops while such a call runs.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def hidden(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._hidden_s += time.perf_counter() - t0

        self._set(owner, attr, original, hidden)

    def _now(self) -> float:
        return time.perf_counter() - self._hidden_s

    def _set(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self._now
        hook = name.replace(".", "_")
        before = getattr(self, "_before_" + hook, None)
        after = getattr(self, "_after_" + hook, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.probing]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if after is not None:
                    after(args, kwargs, span, state)

        return wrapper

    def _innermost(self, name: str) -> int:
        for i in reversed(self._stack):
            if self.spans[i][0] == name:
                return i
        return -1

    # -- counters at the boundaries ---------------------------------------------

    def _before_autodiff_backward(self, args, kwargs):
        from ttalign import autodiff

        self._records = len(autodiff.active_tape())
        return self._tent_models[-1] if self._innermost("adapt.tent_adapt_predict") >= 0 else None

    def _after_autodiff_backward(self, args, kwargs, span, tent_model):
        self._backward_s += span[2] - span[1]
        if tent_model is None:
            return
        affine = set(tent_model.param_groups()["bn_affine"])
        for name, p in tent_model.named_parameters():
            if p.grad is not None and p.grad.any():
                self.tent_written[1] += p.grad.size
                if name in affine:
                    self.tent_written[0] += p.grad.size

    def _before_adapt_tent_adapt_predict(self, args, kwargs):
        self._tent_models.append(args[0] if args else kwargs["model"])

    def _after_adapt_tent_adapt_predict(self, args, kwargs, span, state):
        self._tent_models.pop()

    def _after_pretext_make_view(self, args, kwargs, span, state):
        self._views += 1

    def _after_optim_step(self, args, kwargs, span, state):
        alloc = None
        if self.probing:
            alloc = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.probing = False
        self.steps.append(Step(span[2], self._innermost("training.finetune_stage1"),
                               self._views, self._records, self._backward_s, alloc))
        self._views, self._backward_s = 0, 0.0
        if len(self.steps) % PROBE_EVERY == 0:
            tracemalloc.start()
            self.probing = True

    _after_optim_Adam_step = _after_optim_step
    _after_optim_SGD_step = _after_optim_step

    def _after_training_finetune_stage1(self, args, kwargs, span, state):
        x_train = args[2] if len(args) > 2 else kwargs["X_train"]
        cfg = args[6] if len(args) > 6 else kwargs["cfg"]
        self.finetune_work.append((cfg.epochs * x_train.shape[0], span[2] - span[1]))

    # -- output -----------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines: ``[name, start, end, parent, probed]``."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def _primary_steps(self) -> list[tuple[Step | None, Step]]:
        """(previous step, step) pairs of the workload's main kind of step.

        That is the joint stage-I step (a fine-tune step that drew pretext views)
        if there is one, else any fine-tune step, else every step (TTT or Tent).
        The supervised and joint arms differ threefold in cost, so a median over
        both would jump between them with the mix of operations in a run.
        """
        pairs = list(zip([None] + self.steps[:-1], self.steps))
        for keep in (lambda s: s.finetune >= 0 and s.views > 0, lambda s: s.finetune >= 0, lambda s: True):
            chosen = [(p, s) for p, s in pairs if keep(s)]
            if chosen:
                return chosen
        return []

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics derived from the spans and counters (name -> (value, unit))."""
        spans = self.spans
        timed = spans[self._timed_from:]
        clean = [s for s in timed if not s[4]]
        everything = [s for s in spans if not s[4]]

        def durations(name, keep=lambda s: True, pool=clean):
            return [s[2] - s[1] for s in pool if s[0] == name and keep(s)]

        def ms(values, q=50):
            if not values:
                return 0.0
            if q == 50 or len(values) < 2:
                return 1e3 * statistics.median(values)
            return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]

        def parent_name(s):
            return spans[s[3]][0] if s[3] >= 0 else ""

        def main_forward(s):
            return parent_name(s) == "nn.Model.forward_main" and parent_name(spans[s[3]]) != "nn.Model.predict_proba"

        def pretext_forward(s):
            return parent_name(s) in ("training.finetune_stage1", "adapt.ttt_ssl_adapt_predict")

        primary = self._primary_steps()
        unprobed = [(p, s) for p, s in primary if s.alloc is None and (p is None or p.alloc is None)]
        # interval between consecutive optimizer steps inside one fine-tune call
        intervals = [s.end - p.end for p, s in unprobed
                     if p is not None and s.finetune >= 0 and p.finetune == s.finetune]

        # self time per layer: span minus the part its children cover
        child_time = [0.0] * len(spans)
        for s in timed:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        self_time = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(timed, start=self._timed_from):
            self_time[s[0].split(".")[0]] += (s[2] - s[1]) - child_time[i]
        total = sum(s[2] - s[1] for s in timed if s[3] < 0)

        n_splits = sum(1 for s in everything if s[0] == "harness.build_splits")
        seeds = sum(1 for s in timed if s[0] == "harness.run_single")
        nested_splits = sum(1 for s in timed
                            if s[0] == "harness.build_splits" and parent_name(s) == "harness.run_single")
        work, seconds = (sum(col) for col in zip(*self.finetune_work)) if self.finetune_work else (0, 0.0)
        ttt = durations("adapt.ttt_ssl_adapt_predict")
        allocs = [s.alloc for _, s in primary if s.alloc is not None]

        m = {
            "autodiff.backward_ms.p50": (ms([s.backward_s for _, s in unprobed]), "ms"),
            "autodiff.tape_records_per_step": (max((s.records for _, s in primary), default=0), "count"),
            "autodiff.alloc_bytes_per_step": (statistics.median(allocs) if allocs else 0, "bytes"),
            "nn.features_main_ms": (ms(durations("nn.Model.features", main_forward)), "ms"),
            "nn.features_pretext_ms": (ms(durations("nn.Model.features", pretext_forward)), "ms"),
            "nn.predict_proba_ms": (ms(durations("nn.Model.predict_proba")), "ms"),
            "nn.restore_ms": (ms(durations("nn.restore")), "ms"),
            "optim.step_ms": (ms(durations("optim.Adam.step") + durations("optim.SGD.step")), "ms"),
            "pretext.view_ms": (ms(durations("pretext.make_view")), "ms"),
            "pretext.views_per_step": (max((s.views for _, s in primary), default=0), "count"),
            "training.step_ms.p50": (ms(intervals), "ms"),
            "training.step_ms.p99": (ms(intervals, 99), "ms"),
            "training.pretrain_s": (ms(durations("training.masked_pretrain", pool=everything)) / 1e3, "s"),
            "training.finetune_samples_per_s": (work / seconds if seconds else 0.0, "samples/s"),
            "adapt.ttt_sample_ms.p50": (ms(ttt), "ms"),
            "adapt.ttt_sample_ms.p99": (ms(ttt, 99), "ms"),
            "adapt.tent_grad_useful_frac": (
                self.tent_written[0] / self.tent_written[1] if self.tent_written[1] else 0.0, "ratio"),
            "signals.generate_s": (
                sum(durations("signals.generate_dataset", pool=everything)) / n_splits if n_splits else 0.0, "s"),
            "signals.preprocess_s": (
                sum(durations("signals.preprocess", pool=everything)) / n_splits if n_splits else 0.0, "s"),
            "metrics.evaluate_ms": (ms(durations("metrics.evaluate_predictions")), "ms"),
            "cli.emit_report_ms": (ms(durations("harness.emit_report")), "ms"),
            "harness.build_splits_calls_per_seed": (nested_splits / seeds if seeds else 0.0, "count"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_frac"] = (self_time[layer] / total if total else 0.0, "ratio")
        return m
