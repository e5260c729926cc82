"""Spans around the program's public functions, for the traced run only.

A :class:`Tracer` replaces each function in ``WRAPPED`` under the name its
callers bind (``contextrnn.model.es_step`` is what the sweep calls) and puts
the originals back on exit, so an untraced run executes the program
untouched. Spans stay in memory as ``[name, parent index, start, end]``
and are written out by the caller when the run ends. A span's self time is
its duration minus the durations of its direct child spans.

``backward`` and ``granger_rank`` have wrappers of their own that also
count the tape's nodes and the Granger tests. The tracer's own cost is
measured, not inferred from two noisy wall times: ``span_cost`` times a
wrapped no-op against a bare one, and ``overhead`` multiplies that by the
spans of a traced call and adds the time spent counting the tape.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter

#: wrapped functions, as "module:attribute" in the namespace their callers use
WRAPPED = (
    "contextrnn.data:load_panel",
    "contextrnn.model:load_model",
    "contextrnn.model:train",
    "contextrnn.model:es_init",
    "contextrnn.model:es_step",
    "contextrnn.model:es_skip",
    "contextrnn.model:future_factors",
    "contextrnn.model:fft_features",
    "contextrnn.model:context_conv_forward",
    "contextrnn.model:assemble_context",
    "contextrnn.model:modulate",
    "contextrnn.model:stack_step",
    "contextrnn.model:total_loss",
    "contextrnn.model:backward",
    "contextrnn.model:Adam.step",
    "contextrnn.metrics:evaluate",
    "contextrnn.metrics:rse",
    "contextrnn.metrics:corr_with_skips",
    "contextrnn.selection:pearson_matrix",
    "contextrnn.selection:cst_matrix",
    "contextrnn.selection:mi_matrix",
    "contextrnn.selection:aggregate",
    "contextrnn.selection:shortlist",
    "contextrnn.selection:granger_rank",
)

SMOOTHING = ("contextrnn.model.es_init", "contextrnn.model.es_step", "contextrnn.model.es_skip",
             "contextrnn.model.future_factors")
CONTEXT_TRACK = ("contextrnn.model.fft_features", "contextrnn.model.context_conv_forward",
                 "contextrnn.model.assemble_context", "contextrnn.model.modulate")
SWEEPS = ("contextrnn.model.train", "contextrnn.metrics.evaluate")

#: tape primitives reported one by one; any other op lands in tape.nodes.other
TAPE_OPS = (
    "leaf", "add", "sub", "mul_elementwise", "matmul", "concat", "slice", "reshape",
    "sigmoid", "tanh", "exp", "log", "relu", "clip", "hypot", "atan2", "mean",
    "conv1d_depthwise", "conv1d_pointwise",
)

#: per-layer metrics of one timed operation: name -> (unit, source)
OP_METRICS = {
    "smoothing.s": ("s", ("total", SMOOTHING)),
    "smoothing.steps": ("count", ("calls", ("contextrnn.model.es_step",))),
    "smoothing.skips": ("count", ("calls", ("contextrnn.model.es_skip",))),
    "context_track.s": ("s", ("total", CONTEXT_TRACK)),
    "context_track.calls": ("count", ("calls", CONTEXT_TRACK)),
    "cells.s": ("s", ("total", ("contextrnn.model.stack_step",))),
    "cells.calls": ("count", ("calls", ("contextrnn.model.stack_step",))),
    "model.loss_s": ("s", ("total", ("contextrnn.model.total_loss",))),
    "tape.backward_s": ("s", ("total", ("contextrnn.model.backward",))),
    "model.adam_s": ("s", ("total", ("contextrnn.model.Adam.step",))),
    "model.updates": ("count", ("calls", ("contextrnn.model.Adam.step",))),
    "model.sweep_self_s": ("s", ("self", SWEEPS)),
    "metrics.score_s": ("s", ("total", ("contextrnn.metrics.rse", "contextrnn.metrics.corr_with_skips"))),
    "selection.pearson_s": ("s", ("total", ("contextrnn.selection.pearson_matrix",))),
    "selection.cst_self_s": ("s", ("self", ("contextrnn.selection.cst_matrix",))),
    "selection.mi_s": ("s", ("total", ("contextrnn.selection.mi_matrix",))),
    "selection.aggregate_s": ("s", ("total", ("contextrnn.selection.aggregate",))),
    "selection.shortlist_s": ("s", ("total", ("contextrnn.selection.shortlist",))),
    "selection.granger_s": ("s", ("total", ("contextrnn.selection.granger_rank",))),
    "selection.granger_tests": ("count", ("counter", "granger_tests")),
    "tape.nodes": ("count", ("counter", "tape.nodes")),
    **{f"tape.nodes.{op}": ("count", ("counter", f"tape.nodes.{op}")) for op in TAPE_OPS + ("other",)},
}

#: per-layer metrics of the set-up: name -> wrapped function timed once per set-up
SETUP_METRICS = {
    "data.load_panel_s": "contextrnn.data.load_panel",
    "model.load_model_s": "contextrnn.model.load_model",
}

OVERHEAD_METRIC = "trace.overhead_s"
COUNT_SPAN = "tracing.count_tape"


def per_layer_names():
    return list(SETUP_METRICS) + list(OP_METRICS) + [OVERHEAD_METRIC]


class Tracer:
    """Wraps every function in ``WRAPPED`` while the ``with`` block runs."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self):
        for target in WRAPPED:
            module_name, _, path = target.partition(":")
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            name = f"{module_name}.{path}"
            wrapper = WRAPPERS.get(name, Tracer._wrap)
            setattr(owner, attr, wrapper(self, name, original))
            self._patched.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def _wrap_backward(self, name, fn):
        """``backward``, after counting the nodes of the tape it is handed, by op."""
        spans, stack, clock, counters = self.spans, self._stack, time.perf_counter, self.counters
        traced = self._wrap(name, fn)

        @functools.wraps(fn)
        def counted(loss):
            # the counting gets a span of its own, so it stays out of the parent's self time
            span = [COUNT_SPAN, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            ops = Counter(node.op for node in loss.tape.nodes[: loss.node + 1])
            counters["tape.nodes"] += sum(ops.values())
            for op, count in ops.items():
                counters[f"tape.nodes.{op if op in TAPE_OPS else 'other'}"] += count
            span[3] = clock()
            return traced(loss)

        return counted

    def _wrap_granger(self, name, fn):
        """``granger_rank``, adding up the tests it reports."""
        traced, counters = self._wrap(name, fn), self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            counters["granger_tests"] += result.tests_performed
            return result

        return counted


WRAPPERS = {
    "contextrnn.model.backward": Tracer._wrap_backward,
    "contextrnn.selection.granger_rank": Tracer._wrap_granger,
}


def span_cost() -> float:
    """Seconds one span adds to a call: a wrapped no-op minus a bare one, median of 5 repeats."""

    def noop():
        return None

    calls, costs = 20000, []
    for _ in range(5):
        wrapped = Tracer()._wrap("noop", noop)
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        costs.append((traced - (time.perf_counter() - start)) / calls)
    return statistics.median(costs)


def overhead(tracer: Tracer, per_span: float) -> float:
    """Seconds the tracer added to one traced call: its spans' cost plus the tape counting."""
    counting = sum(end - start for name, _parent, start, end in tracer.spans if name == COUNT_SPAN)
    wrapped = sum(1 for span in tracer.spans if span[0] != COUNT_SPAN)
    return per_span * wrapped + counting


def table(spans) -> dict:
    """{function: {"calls", "total_s", "self_s"}} over a list of spans."""
    covered = [0.0] * len(spans)
    for _name, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict = {}
    for (name, _parent, start, end), child in zip(spans, covered):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child
    return out


def op_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced operation (zero for layers it never entered)."""
    rows = table(tracer.spans)
    out = {}
    for metric, (_unit, (kind, source)) in OP_METRICS.items():
        if kind == "counter":
            out[metric] = tracer.counters.get(source, 0)
        else:
            field = {"total": "total_s", "self": "self_s", "calls": "calls"}[kind]
            out[metric] = sum(rows[name][field] for name in source if name in rows)
    return out


def setup_metrics(tracer: Tracer) -> dict:
    rows = table(tracer.spans)
    return {metric: rows[name]["total_s"] if name in rows else 0.0 for metric, name in SETUP_METRICS.items()}


def combine(samples: list[dict], units: dict) -> dict:
    """Median of each timed metric over samples; counts must agree exactly."""
    out = {}
    for metric in samples[0]:
        values = [s[metric] for s in samples]
        if units[metric] == "count":
            if len(set(values)) != 1:
                raise ValueError(f"{metric} differs between identical operations: {values}")
            out[metric] = values[0]
        else:
            out[metric] = statistics.median(values)
    return out


def units() -> dict:
    out = {metric: unit for metric, (unit, _source) in OP_METRICS.items()}
    out.update({metric: "s" for metric in SETUP_METRICS})
    out[OVERHEAD_METRIC] = "s"
    return out
