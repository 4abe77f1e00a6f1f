"""Span tracer that wraps raygrowth's public functions from outside.

A function is wrapped at every module that binds it by name: ``h_value`` is
bound in kernels, indicator, potential and cli, and a wrapper installed on
kernels alone would miss every call made through the other three.  Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function, position and name of the argument whose size is the
# number of points evaluated; None where a call is one unit of work)
TARGETS = (
    ("cli", "main", None),
    ("specfun", "hyp2f1", (3, "x")),
    ("specfun", "gamma", None),
    ("kernels", "h_value", (2, "u")),
    ("mellin", "mellin_numeric", None),
    ("indicator", "angular_shape", (2, "theta")),
    ("indicator", "zero_set", None),
    ("indicator", "order_equation_rhs", None),
    ("indicator", "solve_order", None),
    ("potential", "u_canonical", None),
    ("potential", "average_N", None),
    ("potential", "parse_mass_model", None),
)

# span fields, in the order they are stored and written out
FIELDS = ("name", "start", "end", "parent", "case", "points", "child_s", "roots")
_NAME, _START, _END, _PARENT, _CASE, _POINTS, _CHILD, _ROOTS = range(len(FIELDS))


class Tracer:
    def __init__(self, package="raygrowth"):
        self.package = package
        self.spans = []
        self.case = None
        self._stack = []
        self._patches = []

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == self.package or name.startswith(self.package + ".")]
        for mod_name, fn_name, arg in TARGETS:
            original = getattr(sys.modules[f"{self.package}.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, arg)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, name, fn, arg):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts_roots = name == "indicator.zero_set"

        def wrapper(*args, **kwargs):
            points = 1
            if arg is not None:
                pos, key = arg
                points = int(np.size(args[pos] if len(args) > pos else kwargs[key]))
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.case, points, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[_END] = end
                if span[_PARENT] >= 0:
                    spans[span[_PARENT]][_CHILD] += end - span[_START]
            if counts_roots:
                span[_ROOTS] = len(result.roots)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _under(self, span, ancestor):
        parent = span[_PARENT]
        while parent >= 0:
            if self.spans[parent][_NAME] == ancestor:
                return True
            parent = self.spans[parent][_PARENT]
        return False

    def layer_metrics(self, solve_order_cases):
        """Per-layer counts and self times over every span recorded."""
        calls, points, self_s = Counter(), Counter(), defaultdict(float)
        for span in self.spans:
            name = span[_NAME]
            calls[name] += 1
            points[name] += span[_POINTS]
            self_s[name] += span[_END] - span[_START] - span[_CHILD]
        h_in_mellin = sum(s[_POINTS] for s in self.spans
                          if s[_NAME] == "kernels.h_value" and self._under(s, "mellin.mellin_numeric"))
        shapes_in_zero_set = sum(1 for s in self.spans
                                 if s[_NAME] == "indicator.angular_shape" and s[_POINTS] == 1
                                 and self._under(s, "indicator.zero_set"))
        roots = sum(s[_ROOTS] for s in self.spans if s[_NAME] == "indicator.zero_set")
        transforms = calls["mellin.mellin_numeric"]
        out = {"cli.main.self_s": (self_s["cli.main"], "s")}
        for name in ("specfun.hyp2f1", "kernels.h_value", "indicator.angular_shape"):
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.points"] = (points[name], "count")
        for name in ("specfun.hyp2f1", "specfun.gamma", "kernels.h_value", "mellin.mellin_numeric",
                     "indicator.zero_set", "indicator.solve_order", "potential.u_canonical",
                     "potential.average_N", "potential.parse_mass_model"):
            out[f"{name}.self_s"] = (self_s[name], "s")
        for name in ("specfun.gamma", "mellin.mellin_numeric", "potential.u_canonical", "potential.average_N"):
            out[f"{name}.calls"] = (calls[name], "count")
        out["mellin.h_points_per_transform"] = (h_in_mellin / transforms if transforms else 0.0, "points/call")
        out["indicator.shape_calls_per_root"] = (shapes_in_zero_set / roots if roots else 0.0, "calls/root")
        out["indicator.order_equation_rhs.calls"] = (
            calls["indicator.order_equation_rhs"] / solve_order_cases if solve_order_cases else 0.0, "calls/case")
        return out

    def write(self, path):
        """Spans as rows of FIELDS, times in seconds from the first span."""
        t0 = self.spans[0][_START] if self.spans else 0.0
        rows = [[s[_NAME], s[_START] - t0, s[_END] - t0] + s[_PARENT:] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": list(FIELDS), "spans": rows}, fh)
