"""Per-layer call counts and self times, recorded from outside the program.

`Tracer.install` wraps the public functions of the traced modules, the
validated constructors (`__post_init__`) of their classes and the methods
in METHODS, and rebinds every module attribute of the package that names a
wrapped function, so calls through `from .hilbert import apply` are counted
too.  A call's self time is its duration minus the durations of the wrapped
calls made inside it.  Other methods stay unwrapped, so their time counts
to their caller: `RunRecord.to_json` is part of `runner.render`.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("hilbert", "model", "measure", "protocol", "analysis", "runner")

#: Methods wrapped besides validated constructors: (layer, class, method).
METHODS = (("measure", "RngStream", "uniform"),)

#: A swap-table miss is an enumerate_branches call made inside swap_effective.
MISS_CALLEE, MISS_CALLER = "measure.enumerate_branches", "protocol.swap_effective"


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.table_misses = 0
        self.render_bytes = 0
        self._active: Counter = Counter()
        self._children: list[float] = []

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.table_misses = 0
        self.render_bytes = 0

    def _wrap(self, name: str, fn):
        calls, self_s, active, children = self.calls, self.self_s, self._active, self._children
        is_miss = name == MISS_CALLEE
        is_render = name == "runner.render"

        def traced(*args, **kwargs):
            if is_miss and active[MISS_CALLER]:
                self.table_misses += 1
            active[name] += 1
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[name] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                active[name] -= 1
                calls[name] += 1
            if is_render:
                # the timestamp and wall time are the only record fields that
                # differ between identical runs; their digits are not counted
                record = args[0]
                varying = len(json.dumps(record.timestamp)) + len(json.dumps(record.wall_time_ms))
                self.render_bytes += len(result.encode("utf-8")) - varying
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, package: str = "qdrepeater") -> None:
        """Wrap the public callables of each layer and rebind every alias."""
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    obj.__post_init__ = self._wrap(f"{layer}.{attr}", obj.__post_init__)
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
            setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", getattr(cls, method)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(module, attr, replaced[id(obj)])

    def figures(self) -> dict:
        """{name: {"calls": n, "self_s": s}} for every wrapped name that was called."""
        return {
            name: {"calls": self.calls[name], "self_s": self.self_s[name]}
            for name in sorted(self.calls)
        }
