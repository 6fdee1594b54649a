"""Spans recorded from outside the program, at its layer boundaries.

The layers are the modules of the iharazeta package.  Tracer.install wraps
every public function that one layer imports from another (looked up in the
importing module's namespace, where the call resolves), so each call across a
layer boundary records a span: name, start, end and the span it ran inside.
Spans stay in memory until the end of the run; self time is a span's duration
minus the durations of its children.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """fn, recording a span named name around each call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end, stack = (self.name_id, self.parent, self.start,
                                              self.end, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
        return traced

    def install(self, package, importers: tuple[str, ...]) -> None:
        """Wrap, in each importing module, the public functions it imported
        from the package's other modules; span names are layer.function."""
        prefix = package.__name__ + "."
        for mod_name in importers:
            module = getattr(package, mod_name)
            for attr, obj in list(vars(module).items()):
                home = getattr(obj, "__module__", "") or ""
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and home.startswith(prefix) and home != module.__name__):
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, self.wrap(f"{home[len(prefix):]}.{attr}", obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time and call count per span name."""
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        seconds = dict.fromkeys(self.names, 0.0)
        calls = dict.fromkeys(self.names, 0)
        for i in range(count):
            name = self.names[self.name_id[i]]
            seconds[name] += self.end[i] - self.start[i] - child[i]
            calls[name] += 1
        return seconds, calls

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name_id": self.name_id.tolist(),
                       "parent": self.parent.tolist(), "start": self.start.tolist(),
                       "end": self.end.tolist()}, fh)
