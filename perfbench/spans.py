"""Spans recorded from outside the library.

While a Tracer is installed, each public function of the five lambdabv
modules is replaced, in every lambdabv namespace that holds it, by a wrapper
that opens a span around the call.  Spans stay in memory as
[name, start, end, parent index, command id] and are written out when the
run ends.  A layer's self time is its span's duration minus the durations of
its direct children.  The work counters run in spans of their own, named
trace.count, so their time is taken out of the span that encloses them and
reported nowhere.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

# module -> public functions wrapped.  cli.run and the JSON load and dump
# helpers (function_from_json, sequence_from_json, function_to_json,
# sequence_to_json, witness_report_json) stay unwrapped, so that cli.main's
# self time covers parsing, loading and writing artifacts.
TRACED = {
    "cli": ("main",),
    "periodic": ("make_plpf", "monotone_arcs", "superpose", "derivative_lp_norm", "sup_norm", "increment"),
    "variation": ("p_variation", "lambda_variation", "modulus_p_continuity", "lp_modulus", "lip_norm",
                  "p_cont_ratio_norm"),
    "sequences": ("weighted_block_sum", "criterion_partial_sums", "wang_partial_sums",
                  "hardy_two_sides", "regularize_sequence", "dual_extremizer", "membership_report"),
    "constructions": ("extremal_function", "triangle_comb", "duality_weights", "perlman_witness",
                      "wang_gap_family", "embedding_bound_check"),
}
COUNT_SPAN = "trace.count"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.command: str | None = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, before=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                idx = len(spans)
                spans.append([COUNT_SPAN, clock(), 0.0, stack[-1] if stack else -1, self.command])
                before(args)
                spans[idx][2] = clock()
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.command])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        return traced

    def _counters(self, span: str, originals: dict):
        """Work counts, taken in a trace.count span before the function's own
        span opens; monotone_arcs is called unwrapped, so it adds no span."""
        if not span.startswith("variation."):
            return None

        def count_breakpoints(args):
            if args and hasattr(args[0], "positions"):
                self.counts["variation.breakpoints_in"] += len(args[0].positions)

        if span != "variation.lambda_variation":
            return count_breakpoints
        arcs = originals["periodic.monotone_arcs"]

        def count_subset(args):
            count_breakpoints(args)
            self.counts["variation.lambda_variation.subset"] += not arcs(args[0]).is_baseline_separated()

        return count_subset

    @contextmanager
    def installed(self):
        """Wrap the traced functions everywhere lambdabv refers to them."""
        namespaces = [m for n, m in list(sys.modules.items()) if n == "lambdabv" or n.startswith("lambdabv.")]
        originals = {f"{short}.{name}": getattr(sys.modules[f"lambdabv.{short}"], name)
                     for short, names in TRACED.items() for name in names}
        undo = []
        try:
            for span, original in originals.items():
                wrapper = self._wrap(span, original, self._counters(span, originals))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            undo.append((ns, attr, original))
            yield self
        finally:
            for ns, attr, original in reversed(undo):
                setattr(ns, attr, original)

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: total self seconds and number of calls."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls = Counter(), Counter()
        for (name, start, end, _, _), c in zip(self.spans, child):
            self_s[name] += end - start - c
            calls[name] += 1
        return self_s, calls
