"""In-memory span tracer that wraps the library's public functions from outside.

Nothing here edits ``src/mismax``: ``instrument`` swaps every module-level
reference to a public function of the layer modules (and ``Graph.__init__``)
for a wrapper that records a span, and ``restore`` swaps the originals back.
Spans live in flat arrays while the run goes and are written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = ("codec", "graph", "counting", "canon", "extremal")


class Tracer:
    """Spans with a name, start, end (ns) and the index of the parent span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._swapped: list[tuple[object, str, object]] = []
        self._hooks: dict[str, object] = {}
        os.register_at_fork(after_in_child=self._forked)

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def _wrap(self, fn, name: str):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if hook is not None:
                hook(result)
            return result

        return traced

    # -- instrumentation --------------------------------------------------

    def instrument(self, hooks: dict | None = None) -> None:
        """Wrap every public function of the layer modules wherever it is bound.

        ``hooks`` maps a span name to a callable that gets each call's result.
        """
        self._hooks = hooks or {}
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"mismax.{layer}"]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    # a generator's work happens in its consumer's span
                    and not inspect.isgeneratorfunction(value)
                ):
                    wrappers[id(value)] = self._wrap(value, f"{layer}.{attr}")
        for name, module in list(sys.modules.items()):
            if name != "mismax" and not name.startswith("mismax."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._swapped.append((module, attr, value))
                    setattr(module, attr, wrapper)
        graph_cls = sys.modules["mismax.graph"].Graph
        self._swapped.append((graph_cls, "__init__", graph_cls.__init__))
        graph_cls.__init__ = self._wrap(graph_cls.__init__, "graph.Graph")

    def restore(self) -> None:
        while self._swapped:
            owner, attr, value = self._swapped.pop()
            setattr(owner, attr, value)

    def _forked(self) -> None:
        # pool workers run the library untraced; their spans would be lost anyway
        self.restore()
        self._stack = [-1]

    # -- analysis ---------------------------------------------------------

    def durations_ns(self) -> list[int]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the part its child spans cover."""
        own = self.durations_ns()
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def subtree(self, root: int) -> list[int]:
        """Indices of root and every span below it (children follow parents)."""
        inside = {root}
        for index in range(root + 1, len(self.start)):
            if self.parent[index] in inside:
                inside.add(index)
        return sorted(inside)

    def write(self, path) -> None:
        """Write spans as CSV: index, parent, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            for index in range(len(self.start)):
                fh.write(
                    f"{index},{self.parent[index]},{self.names[self.name_id[index]]},"
                    f"{self.start[index]},{self.end[index]}\n"
                )
