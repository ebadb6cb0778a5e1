"""Span recorder that wraps fluidsar's public functions from outside.

Each wrapped call records one span ``(name, start, end, parent, op)``: the
layer name, ``perf_counter`` times, the index of the enclosing span (or -1)
and the id of the benchmark operation it served. Spans stay in memory until
the run ends. Wrapping replaces every module attribute that holds the
original function, so names imported by other modules (``balance.solve_sar_min``,
``harness.solve_sinr_balance``) are traced too. ``Tracer.restore`` puts the
originals back.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer name -> (module, attribute); the name is also the span name
LAYERS = (
    ("channel.channel_matrix", "fluidsar.channel", "channel_matrix"),
    ("channel.sinr_all", "fluidsar.channel", "sinr_all"),
    ("exposure.sar_value", "fluidsar.exposure", "sar_value"),
    ("solver.solve_sar_min", "fluidsar.solver", "solve_sar_min"),
    ("solver.solve_precoder", "fluidsar.solver", "solve_precoder"),
    ("solver.solve_auxiliary", "fluidsar.solver", "solve_auxiliary"),
    ("solver.inner_loop", "fluidsar.solver", "inner_loop"),
    ("balance.solve_sinr_balance", "fluidsar.balance", "solve_sinr_balance"),
    ("baselines.solve_aps", "fluidsar.baselines", "solve_aps"),
    ("baselines.solve_fpa", "fluidsar.baselines", "solve_fpa"),
    ("baselines.solve_without_sar", "fluidsar.baselines", "solve_without_sar"),
    ("baselines.adaptive_backoff", "fluidsar.baselines", "adaptive_backoff"),
    ("harness.run_sweep", "fluidsar.harness", "run_sweep"),
)

# the baseline that owns a solve decides which position block inner_loop runs
SCHEME_OF = {
    "baselines.solve_aps": "aps",
    "baselines.solve_fpa": "fpa",
    "baselines.solve_without_sar": "nosar",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list = []
        self.reports: list = []    # (outer iterations, inner sweeps) of each solve
        self.ladders: list = []    # ladders of BalanceResults

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if name == "solver.solve_sar_min":
                self.reports.append((out.outer_iterations, out.inner_sweeps_total))
            elif name == "balance.solve_sinr_balance":
                self.ladders.append(out.ladder)
            return out

        return traced

    def install(self):
        for name, modname, attr in LAYERS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("fluidsar") \
                        and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def restore(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-layer calls, inclusive and self seconds, and the self time of
        inner_loop split by the scheme of its nearest owning baseline."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        wall = defaultdict(float)
        self_s = defaultdict(float)
        split = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            wall[name] += end - start
            own = end - start - child[i]
            self_s[name] += own
            if name == "solver.inner_loop":
                scheme, p = "fas", parent
                while p >= 0:
                    if spans[p][0] in SCHEME_OF:
                        scheme = SCHEME_OF[spans[p][0]]
                        break
                    p = spans[p][3]
                split[scheme] += own
        roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
        return {"calls": dict(calls), "wall_s": dict(wall), "self_s": dict(self_s),
                "inner_loop_self_s": dict(split), "root_s": roots}
