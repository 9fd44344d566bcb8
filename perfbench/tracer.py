"""Outside-in tracing of the minusone layers.

Every public function of every ``minusone`` module is replaced by a wrapper
that records a span: name, start, end, parent span and request id.  A
function imported by name (``from ..polynomials import hyp_terminating_poly``)
lives on in the importing module's namespace, so every module binding of a
wrapped function is patched, not just the defining one.  Three methods are
wrapped on their classes (``Poly.evaluate``, ``RationalFunction.reduce`` and
the ``PrecisionContext`` constructor, which only counts working digits), and
the ``density`` callable is wrapped on each ``WeightSpec`` that
``families.weight_spec`` returns.

Spans stay in memory and are written out by :meth:`Tracer.write`.  Self time
(a span's duration minus that of its direct children) and call counts are
accumulated as spans close, so the summary needs no second pass.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

PACKAGE = "minusone"


def layer_of(module_name):
    """``minusone.families.catalog`` -> ``families``."""
    return module_name.split(".")[1]


class Tracer:
    def __init__(self):
        self.spans = []        # (span id, name, start, end, parent id, request id)
        self.stack = []        # open spans: [span id, time covered by children]
        self.stats = {}        # name -> [calls, self seconds]
        self.counters = {
            "tables": 0, "tables_converged": 0, "nodes": 0, "levels_max": 0,
            "ladder_points": 0, "max_working_digits": 0,
        }
        self.request = None
        self._next_id = 0

    def wrap(self, name, fn, after=None):
        """Return ``fn`` recording a span named ``name``; ``after(result)`` runs on success."""
        self.stats.setdefault(name, [0, 0.0])
        stats = self.stats[name]
        stack = self.stack
        spans = self.spans

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                stats[0] += 1
                stats[1] += duration - frame[1]
                spans.append((span_id, name, start, end,
                               parent[0] if parent is not None else None, self.request))
            if after is not None:
                after(result)
            return result

        return functools.wraps(fn)(traced)

    # -- work counters read from return values ---------------------------

    def _on_weight_spec(self, spec):
        spec.density = self.wrap("families.density", spec.density)

    def _on_node_table(self, table):
        c = self.counters
        c["tables"] += 1
        c["tables_converged"] += bool(table.converged)
        c["nodes"] += len(table.xs)
        c["levels_max"] = max(c["levels_max"], table.levels)

    def _on_limit(self, report):
        self.counters["ladder_points"] += len(report["ladder"])

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch the imported ``minusone`` modules in place."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        self.stats.setdefault("families.density", [0, 0.0])
        hooks = {
            "families.weight_spec": self._on_weight_spec,
            "orthogonality.build_node_table": self._on_node_table,
            "scheme.verify_limit": self._on_limit,
        }
        wrappers = {}      # id(original) -> wrapper
        names = {}
        for mod in modules:
            if mod.__name__ == PACKAGE:
                continue
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = "%s.%s" % (layer_of(mod.__name__), attr)
                if name in names:
                    raise RuntimeError("two public functions trace as %s" % name)
                names[name] = obj
                wrappers[id(obj)] = self.wrap(name, obj, hooks.get(name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(mod, attr, wrappers[id(obj)])

        polynomials = sys.modules[PACKAGE + ".polynomials"]
        polynomials.Poly.evaluate = self.wrap(
            "polynomials.poly_evaluate", polynomials.Poly.evaluate)
        polynomials.RationalFunction.reduce = self.wrap(
            "polynomials.rational_reduce", polynomials.RationalFunction.reduce)

        precision = sys.modules[PACKAGE + ".precision"]
        init = precision.PrecisionContext.__init__
        counters = self.counters

        def counting_init(ctx, *args, **kwargs):
            init(ctx, *args, **kwargs)
            counters["max_working_digits"] = max(counters["max_working_digits"], ctx.mp.dps)

        precision.PrecisionContext.__init__ = counting_init

    # -- output ------------------------------------------------------------

    def summary(self):
        return {"stats": self.stats, "counters": self.counters, "spans": len(self.spans)}

    def write(self, path):
        """One JSON array per line: [span id, name, start, end, parent id, request id]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
