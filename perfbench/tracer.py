"""Span tracer that wraps randmap's functions from outside the package.

The package's modules bind each other's functions by `from ... import`, so
a wrapper must replace every binding of a function, not just the attribute
of the module that defines it, or the spans miss calls. `Tracer` does that
on entry and puts every original back on exit.

Spans are kept in memory: name, start, end, parent span and root span (the
CLI call they belong to). A span's self time is its duration minus the part
of it that its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

PACKAGE = "randmap"
LAYERS = ("geometry", "measures", "transport", "moser", "kernel", "cli")
# Traced besides the layers' public functions: the map evaluation method, and
# the private Sinkhorn loop, whose return value is the only place the
# iteration count and converged flag exist.
METHODS = (("transport", "TransportMap", "evaluate"),)
PRIVATE = (("transport", "_sinkhorn_potentials"),)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    root: int


class Tracer:
    """Context manager: wraps on entry, restores on exit, keeps spans and counts."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._hooks = {
            "geometry.interp_grid": self._count_interp,
            "moser.integrate_flow": self._count_rk4,
            "transport._sinkhorn_potentials": self._count_sinkhorn,
        }

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- counters read at the layer boundary --------------------------------

    def _count_interp(self, args, kwargs, result) -> None:
        self.counts["geometry.interp_grid_points"] += len(result)

    def _count_rk4(self, args, kwargs, result) -> None:
        self.counts["moser.rk4_steps"] += kwargs["steps"] if "steps" in kwargs else args[4]

    def _count_sinkhorn(self, args, kwargs, result) -> None:
        cost = args[0]
        _, _, converged, _, iterations = result
        self.counts["transport.sinkhorn_solves"] += 1
        self.counts["transport.sinkhorn_iters"] += iterations
        self.counts["transport.sinkhorn_converged"] += bool(converged)
        # The loop holds the cost matrix and a contiguous copy of its transpose.
        held = 2 * cost.size * cost.itemsize
        self.counts["transport.sinkhorn_cost_bytes"] = max(
            self.counts["transport.sinkhorn_cost_bytes"], held)

    # -- patching -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        hook = self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(spans)
            root = spans[parent].root if parent is not None else idx
            span = Span(name, clock(), 0.0, parent, root)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _targets(self) -> dict[int, tuple[str, object]]:
        """id(original function) -> (span name, original) for every traced function."""
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        for layer, attr in PRIVATE:
            obj = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), attr)
            targets[id(obj)] = (f"{layer}.{attr}", obj)
        return targets

    def _install(self) -> None:
        targets = self._targets()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and obj is targets[id(obj)][1]:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
            original = vars(cls)[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# -- aggregation ------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - _covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def totals(spans: list[Span], roots: set[int] | None = None) -> dict[str, dict]:
    """Per span name: inclusive seconds, self seconds and call count.

    Inclusive time counts only spans with no ancestor of the same name, so a
    recursive call is not counted twice. `roots` restricts to those CLI calls.
    """
    selfs = self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for i, s in enumerate(spans):
        if roots is not None and s.root not in roots:
            continue
        rec = out[s.name]
        rec["calls"] += 1
        rec["self_s"] += selfs[i]
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            rec["s"] += s.end - s.start
    return dict(out)
