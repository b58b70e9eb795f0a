"""Spans and counters at the boundaries between the program's modules.

The tracer wraps, from outside the program, every function and method that
a layer module defines, both in its own namespace and wherever another
layer imported it by name.  A call that enters a layer from a different
layer (or from the benchmark) opens a span; a call within the same layer
passes straight through, so a span's children are the calls it made into
other layers.  A layer's self time is its spans' durations minus their
children's.

Counters are taken at the same boundaries:
- ode.integrate: accepted steps (points returned minus one), rhs calls
  (the rhs argument is wrapped), and from them rejected steps, because
  each attempted step costs six rhs calls, plus one at the start and one
  at a located event;
- statics.stationary_magnetizations: root scans, including calls from
  inside statics;
- offdiag.offdiag_trajectory and offdiag.spin_echo: time samples;
- output.write_csv, write_dat and write_json: files written and their bytes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter

LAYERS = ("cli", "scenario", "model", "statics", "offdiag", "registration", "ode", "output")
PACKAGE = "curieweiss"


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        self.stack: list[int] = []  # indices of the open spans
        self.spans: list[list] = []  # [request, layer, start, end, parent index]
        self.request = 0
        self.counters: Counter = Counter()
        self._saved: list[tuple] = []

    # --- span bookkeeping -------------------------------------------------------

    def _wrap(self, layer: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = None
            if counter is not None:
                args, kwargs, after = counter(args, kwargs)
            stack = tracer.stack
            if stack and tracer.spans[stack[-1]][1] == layer:
                result = fn(*args, **kwargs)
            else:
                span = [tracer.request, layer, time.perf_counter(), None,
                        stack[-1] if stack else None]
                stack.append(len(tracer.spans))
                tracer.spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[3] = time.perf_counter()
                    stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    # --- counters ---------------------------------------------------------------

    def _count_ode(self, args, kwargs):
        calls = [0]
        rhs = args[0] if args else kwargs.pop("rhs")

        def counted(t, y):
            calls[0] += 1
            return rhs(t, y)

        def after(sol):
            accepted = len(sol.times) - 1
            attempted = (calls[0] - 1 - (sol.event_time is not None)) // 6
            self.counters["ode.steps_accepted"] += accepted
            self.counters["ode.steps_rejected"] += attempted - accepted
            self.counters["ode.rhs_calls"] += calls[0]

        return (counted,) + tuple(args[1:]), kwargs, after

    def _count_root_scan(self, args, kwargs):
        self.counters["statics.root_scans"] += 1
        return args, kwargs, None

    def _count_samples(self, times_at: int):
        def count(args, kwargs):
            times = args[times_at] if len(args) > times_at else kwargs["times"]
            self.counters["offdiag.samples"] += len(times)
            return args, kwargs, None
        return count

    def _count_file(self, args, kwargs):
        path = args[0] if args else kwargs["path"]

        def after(_):
            self.counters["output.files"] += 1
            self.counters["output.bytes"] += os.path.getsize(path)

        return args, kwargs, after

    def _counter_for(self, layer: str, name: str):
        return {
            ("ode", "integrate"): self._count_ode,
            ("statics", "stationary_magnetizations"): self._count_root_scan,
            ("offdiag", "offdiag_trajectory"): self._count_samples(2),
            ("offdiag", "spin_echo"): self._count_samples(3),
            ("output", "write_csv"): self._count_file,
            ("output", "write_dat"): self._count_file,
            ("output", "write_json"): self._count_file,
        }.get((layer, name))

    # --- installing and removing the wrappers ------------------------------------

    def _set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    traced = self._wrap(layer, obj, self._counter_for(layer, name))
                    for other in self.modules.values():
                        if vars(other).get(name) is obj:
                            self._set(other, name, traced)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_methods(layer, obj)

    def _install_methods(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") and name != "__post_init__":
                continue
            if inspect.isfunction(attr):
                self._set(cls, name, self._wrap(layer, attr))
            elif isinstance(attr, property) and attr.fget is not None:
                self._set(cls, name, property(self._wrap(layer, attr.fget)))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def take(self) -> dict:
        """Per-layer calls and self time, and the counters, since the last take."""
        out = {f"{layer}.{what}": 0.0 for layer in LAYERS for what in ("calls", "self_s")}
        for key in ("ode.steps_accepted", "ode.steps_rejected", "ode.rhs_calls",
                    "statics.root_scans", "offdiag.samples", "output.files", "output.bytes"):
            out[key] = 0
        for _, layer, start, end, parent in self.spans:
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += end - start
            if parent is not None:
                out[f"{self.spans[parent][1]}.self_s"] -= end - start
        out.update(self.counters)
        self.counters = Counter()
        self.spans = []
        return out
