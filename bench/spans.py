"""Spans and counters around the program's public functions, installed from
the benchmark's side.

A wrapper must replace the function at every name its callers look it up
by: `from ... import` copies a function into the importing module, so
`install` rebinds every bundlecert module attribute that holds the original
object, and patches methods on their class.  A wrapper installed anywhere
else would silently record zero calls; `missing_spans` catches that.

A span's self time is its duration minus the durations of the spans it
directly encloses.
"""
from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# span name -> (defining module, attribute; "Class.method" for methods)
TARGETS = {
    "polycore.parse_poly": ("bundlecert.polycore.parse", "parse_poly"),
    "polycore.section_matrix": ("bundlecert.polycore.linalg", "section_matrix"),
    "polycore.rank": ("bundlecert.polycore.linalg", "ExactMatrix.rank"),
    "polycore.bareiss_rank": ("bundlecert.polycore.linalg", "bareiss_rank"),
    "monad.validate": ("bundlecert.monad", "validate"),
    "monad.chern_monad": ("bundlecert.monad", "chern_monad"),
    "monad.restrict_to_fiber": ("bundlecert.monad", "restrict_to_fiber"),
    "cohom.h0_monad": ("bundlecert.cohom", "h0_monad"),
    "cohom.exterior_contraction": ("bundlecert.cohom", "exterior_contraction"),
    "cohom.tail_vanish": ("bundlecert.cohom", "tail_vanish"),
    "k3lat.quartic_region_run": ("bundlecert.k3lat", "quartic_region_run"),
    "zeta.make_field": ("bundlecert.zeta.field", "make_field"),
    "zeta.count_points": ("bundlecert.zeta.count", "count_points"),
    "zeta.assemble_charpoly": ("bundlecert.zeta.charpoly", "assemble_charpoly"),
    "zeta.rank_upper_bound": ("bundlecert.zeta.charpoly", "rank_upper_bound"),
    "zeta.resolve_family_with_count": ("bundlecert.zeta", "resolve_family_with_count"),
    "zeta.family_completions": ("bundlecert.zeta.charpoly", "family_completions"),
    "zeta.all_roots_on_circle": ("bundlecert.zeta.charpoly", "all_roots_on_circle"),
    "zeta.unit_root_count": ("bundlecert.zeta.charpoly", "unit_root_count"),
}


class Span:
    """Totals for one wrapped function."""

    def __init__(self):
        self.calls = 0
        self.raised = 0
        self.self_s = 0.0
        self.counters = {}

    def bump(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value


def _count_cells(span, args, out):
    span.bump("cells", out.rows * out.cols)


def _count_fibers(span, args, out):
    p, n = args[1], args[2]
    span.bump("fibers", p ** n + 1)


def _field_size(span, args, out):
    span.counters["q_max"] = max(span.counters.get("q_max", 0), out.q)


COUNTERS = {
    "polycore.section_matrix": _count_cells,
    "zeta.count_points": _count_fibers,
    "zeta.make_field": _field_size,
}


class Recorder:
    def __init__(self):
        self.spans = {name: Span() for name in TARGETS}
        self._child_s = []  # one accumulator per open span

    def wrap(self, name, fn):
        span = self.spans[name]
        counter = COUNTERS.get(name)
        open_spans = self._child_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                duration = perf_counter() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                span.calls += 1
                span.self_s += duration - children
                if not ok:
                    span.raised += 1
            if counter:
                counter(span, args, out)
            return out

        return traced

    def install(self):
        """Wrap every target whose module is loaded."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "bundlecert"]
        for name, (modname, attr) in TARGETS.items():
            if modname not in sys.modules:
                continue  # e.g. zeta on the certify workloads: no numpy, no spans
            owner = importlib.import_module(modname)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method)))
            else:
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def missing_spans(self, expected) -> list:
        return [name for name in expected if self.spans[name].calls == 0]

    def layer_metrics(self) -> dict:
        """Per-layer values of one pass, by metric name."""
        out = {}
        for name, span in self.spans.items():
            out[f"{name}.calls"] = span.calls
            out[f"{name}.s"] = span.self_s
        sm = self.spans["polycore.section_matrix"]
        out["polycore.section_matrix.cells"] = sm.counters.get("cells", 0)
        tv = self.spans["cohom.tail_vanish"]
        out["cohom.tail_vanish.useful_share"] = (tv.calls - tv.raised) / tv.calls if tv.calls else 0.0
        out["zeta.field.q_max"] = self.spans["zeta.make_field"].counters.get("q_max", 0)
        cp = self.spans["zeta.count_points"]
        out["zeta.count_points.fibers"] = cp.counters.get("fibers", 0)
        out["zeta.count_points.fibers_per_s"] = (
            out["zeta.count_points.fibers"] / cp.self_s if cp.self_s else 0.0
        )
        return out
