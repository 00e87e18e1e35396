"""Span recording for the traced pass, and per-layer self-time attribution.

The tracer wraps module attributes from outside the package: every public
function of a layer module, in every module namespace that holds it (its
own and the copies other modules imported), so a call made through any name
opens a span.  Private helpers are not wrapped; their time belongs to the
public caller.  A few counters hook specific names; when such a name no
longer exists, the metrics that depend on it are reported as missing.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from collections import Counter

PACKAGE = "rotorzeros"
LAYERS = ("cli", "laguerre", "zeros", "recursion", "measures")

# hooked name -> per-layer metrics that cannot be measured without it
HOOKS = {
    "measures.RadialMeasure.profile": ("measures.profile_points", "measures.points_per_moment"),
    "measures.integrate.quad": ("measures.quad_calls",),
    "zeros.find_roots": ("zeros.find_roots_calls", "zeros.nonconverged"),
    "zeros.stabilize_series": ("zeros.stable_ratio",),
    "cli.ProcessPoolExecutor": ("cli.pool_wait_s",),
}


class Tracer:
    """Spans (name, layer, start, end, parent) and counters, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self._stack = []

    def wrap(self, fn, layer, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[index] = (name, layer, start, end, parent)

        return traced


def replace_everywhere(modules, old, new):
    """Point every module attribute that holds ``old`` at ``new``."""
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def install_spans(tracer, modules):
    """Wrap each public function of a layer module under every name it has.

    ``modules`` maps short names to the package's module objects.
    """
    wrappers = {}
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            owner, _, layer = value.__module__.rpartition(".")
            if owner != PACKAGE or layer not in LAYERS or value.__name__.startswith("_"):
                continue
            if value not in wrappers:
                wrappers[value] = tracer.wrap(value, layer, f"{layer}.{value.__name__}")
            setattr(module, attr, wrappers[value])
    return len(wrappers)


def _hook_target(modules, dotted):
    """(owner, attribute, current value) of a hooked name, or None if gone."""
    head, *middle, attr = dotted.split(".")
    owner = modules.get(head)
    for part in middle:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


def install_counters(tracer, modules):
    """Count the work behind the per-layer ratios; record missing hooks."""
    counts = tracer.counts
    targets = {}
    for dotted in HOOKS:
        target = _hook_target(modules, dotted)
        if target is None:
            tracer.missing.append(dotted)
        else:
            targets[dotted] = target

    if "measures.RadialMeasure.profile" in targets:
        cls, attr, profile = targets["measures.RadialMeasure.profile"]

        @functools.wraps(profile)
        def counted_profile(self, s):
            counts["measures.profile_points"] += getattr(s, "size", 1)  # quad passes floats
            return profile(self, s)

        setattr(cls, attr, counted_profile)

    if "measures.integrate.quad" in targets:
        integrate, _, quad = targets["measures.integrate.quad"]

        @functools.wraps(quad)
        def counted_quad(*args, **kwargs):
            counts["measures.quad_calls"] += 1
            return quad(*args, **kwargs)

        proxy = types.SimpleNamespace(**vars(integrate))
        proxy.quad = counted_quad
        modules["measures"].integrate = proxy

    if "zeros.find_roots" in targets:
        _, _, find_roots = targets["zeros.find_roots"]

        @functools.wraps(find_roots)
        def counted_find_roots(*args, **kwargs):
            result = find_roots(*args, **kwargs)
            counts["zeros.find_roots_calls"] += 1
            flags = getattr(result, "converged", None)
            if flags is not None:
                counts["zeros.nonconverged"] += sum(1 for ok in flags if not ok)
            return result

        replace_everywhere(modules, find_roots, counted_find_roots)

    if "zeros.stabilize_series" in targets:
        _, _, stabilize_series = targets["zeros.stabilize_series"]

        @functools.wraps(stabilize_series)
        def counted_stabilize_series(*args, **kwargs):
            report = stabilize_series(*args, **kwargs)
            counts["zeros.reported_roots"] += len(report.roots)
            counts["zeros.stable_roots"] += sum(1 for s in report.stable if s)
            return report

        replace_everywhere(modules, stabilize_series, counted_stabilize_series)

    if "cli.ProcessPoolExecutor" in targets:
        cli, attr, pool_cls = targets["cli.ProcessPoolExecutor"]
        setattr(cli, attr, _timed_pool(pool_cls, counts, tracer.clock))


def _timed_pool(base, counts, clock):
    """``base`` with the time the caller spends blocked on it counted."""

    class TimedPool(base):
        def map(self, *args, **kwargs):
            results = super().map(*args, **kwargs)

            def waited():
                while True:
                    start = clock()
                    try:
                        item = next(results)
                    except StopIteration:
                        return
                    finally:
                        counts["cli.pool_wait_s"] += clock() - start
                    yield item

            return waited()

        def shutdown(self, *args, **kwargs):
            start = clock()
            try:
                return super().shutdown(*args, **kwargs)
            finally:
                counts["cli.pool_wait_s"] += clock() - start

    return TimedPool


def layer_self_times(spans):
    """Per-layer (calls, self time) from spans (name, layer, start, end, parent).

    A span's self time is its duration minus the durations of its direct
    children, so each instant counts once, for the layer of the innermost
    open span, also when a layer calls into itself.
    """
    child_time = [0.0] * len(spans)
    for _name, _layer, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    calls, self_s = Counter(), Counter()
    for index, (_name, layer, start, end, _parent) in enumerate(spans):
        calls[layer] += 1
        self_s[layer] += (end - start) - child_time[index]
    return calls, self_s
