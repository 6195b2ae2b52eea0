"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of the faultcast modules from outside
the package. `from .x import y` copies a function into the importing module,
so every module attribute that is one of the wrapped functions is patched,
not only the defining one (model.lstm_step, training.forward, cli.forward,
lstm.sigmoid, model.sigmoid and so on). `uninstall` restores every
attribute, so a run can time traced and untraced jobs side by side.

Each call records one span (name, start, end, parent) in flat arrays kept in
memory; `save` writes them out when the run ends. Spans are appended in start
order on one thread, so the spans inside a phase form one contiguous index
range and a span's descendants directly follow it.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self, traced_modules, patched_modules):
        """Wrap the public functions defined in `traced_modules`; patch their
        bindings in every module of `patched_modules`."""
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.phases: list[tuple[str, int, int]] = []
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._patched_modules = patched_modules
        self._restore: list[tuple[object, str, object]] = []
        for module in traced_modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    self._wrappers[id(obj)] = self._wrap(obj, f"{short}.{attr}")

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = start
                stack.pop()

        return traced

    def install(self) -> None:
        if self._restore:
            return
        for module in self._patched_modules:
            for attr, obj in list(vars(module).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    @contextmanager
    def phase(self, label: str):
        """Trace the block and remember its span range under `label`."""
        first = len(self.span_name)
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.phases.append((label, first, len(self.span_name)))

    # -- analysis ---------------------------------------------------------

    def _arrays(self):
        # copies, so the span arrays stay free to grow
        return (
            np.array(self.span_name, dtype=np.int32),
            np.array(self.span_parent, dtype=np.int32),
            np.array(self.span_start, dtype=np.float64),
            np.array(self.span_end, dtype=np.float64),
        )

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        names, parents, starts, ends = self._arrays()
        dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(
            parents[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return dur - child

    def totals(self, first: int, stop: int, self_s: np.ndarray) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over the spans [first, stop)."""
        names = self._arrays()[0][first:stop]
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        secs = np.bincount(names, weights=self_s[first:stop], minlength=n)
        return {name: (int(calls[i]), float(secs[i])) for i, name in enumerate(self.names)}

    def call_seconds(self, name: str) -> np.ndarray:
        """Wall duration of every span of `name`, children included."""
        names, _, starts, ends = self._arrays()
        pick = names == self.names.index(name)
        return ends[pick] - starts[pick]

    def coverage(self, root: str, modules: tuple[str, ...], self_s: np.ndarray) -> float:
        """Share of all `root` spans' time that is self time of spans (the
        root included) whose module is one of `modules`."""
        names, _, starts, ends = self._arrays()
        counted = np.array([n.split(".", 1)[0] in modules for n in self.names])
        root_id = self.names.index(root)
        covered = total = 0.0
        for idx in np.flatnonzero(names == root_id):
            stop = int(np.searchsorted(starts, ends[idx], side="left"))
            inside = slice(idx, max(stop, idx + 1))
            covered += float(self_s[inside][counted[names[inside]]].sum())
            total += float(ends[idx] - starts[idx])
        return covered / total if total > 0 else 0.0

    def save(self, path) -> None:
        names, parents, starts, ends = self._arrays()
        np.savez(
            path,
            names=np.array(self.names),
            span_name=names,
            span_parent=parents,
            span_start=starts,
            span_end=ends,
            phase_label=np.array([p[0] for p in self.phases]),
            phase_range=np.array([p[1:] for p in self.phases], dtype=np.int64).reshape(-1, 2),
        )
