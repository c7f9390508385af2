"""Run-time timing wrappers around the layers' public callables.

A :class:`Tracer` replaces each named callable by a wrapper that records one
span (name, start, end, parent) per call and restores the original on exit,
so tracing needs no edit under ``src/``.  Spans stay in memory; self times,
per-name totals and the Chrome/Perfetto export are computed after the run.

Targets are given as strings (``"module:Class.attr"``) and resolved here.  A
name that no longer resolves is listed in :attr:`Tracer.missing` and simply
produces no spans, so a refactor of the program cannot break the benchmark's
end-to-end run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

__all__ = ["Target", "Tracer", "layer_of", "span_cost_seconds"]

#: sentinel for "attribute was inherited, not defined on the owner"
_INHERITED = object()


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    Attributes:
        span: span name, ``<layer>.<callable>``; for a wildcard path the
            method name is appended.
        path: ``"module:function"``, ``"module:Class.attr"`` or
            ``"module:Class.*"`` (every public plain method of the class).
        subclasses: also wrap every subclass that overrides ``attr``.
        annotate: optional ``(args, kwargs, result) -> dict``; numeric values
            are summed per ``<span>.<key>`` in :attr:`Tracer.sums`, and the
            value under ``"args"`` is kept as the span's arguments.
    """

    span: str
    path: str
    subclasses: bool = False
    annotate: Callable | None = None


def layer_of(span: str) -> str:
    """``serve.engine.step`` → ``serve.engine``."""
    return span.rsplit(".", 1)[0]


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for klass in found:
        found.extend(s for s in klass.__subclasses__() if s not in found)
    return found[1:]


class Tracer:
    """Span recorder; a context manager that installs and removes wrappers."""

    def __init__(self, targets: "list[Target]") -> None:
        self.targets = targets
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        #: span index → arguments (step spans: request ids, simulated clock)
        self.args: dict[int, dict] = {}
        #: ``<span>.<key>`` → sum of the annotations of that span
        self.sums: dict[str, float] = defaultdict(float)
        #: span names of targets that did not resolve
        self.missing: list[str] = []
        self._stack: list[int] = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- install

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            try:
                self._install(target)
            except (ImportError, AttributeError):
                self.missing.append(target.span)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def _install(self, target: Target) -> None:
        module_name, _, qualname = target.path.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = qualname.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if attr == "*":
            for name, value in list(vars(owner).items()):
                if not name.startswith("_") and inspect.isfunction(value):
                    self._replace(owner, name, f"{target.span}.{name}", target.annotate)
            return
        inspect.getattr_static(owner, attr)  # AttributeError → missing
        self._replace(owner, attr, target.span, target.annotate)
        if target.subclasses:
            for sub in _subclasses(owner):
                if attr in vars(sub):
                    self._replace(sub, attr, target.span, target.annotate)

    def _replace(self, owner, attr: str, span: str, annotate) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(span, raw.__func__, annotate))
        elif callable(raw):
            wrapped = self._wrap(span, raw, annotate)
        else:
            raise AttributeError(f"{owner!r}.{attr} is not callable")
        defined_here = attr in vars(owner)
        self._undo.append((owner, attr, raw if defined_here else _INHERITED))
        setattr(owner, attr, wrapped)

    def _wrap(self, span: str, fn, annotate):
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack = self.parents, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(span)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if annotate is not None:
                self._note(index, span, annotate(args, kwargs, result))
            return result

        return wrapper

    def _note(self, index: int, span: str, note: "dict | None") -> None:
        if not note:
            return
        for key, value in note.items():
            if key == "args":
                self.args[index] = value
            else:
                self.sums[f"{span}.{key}"] += value

    # ------------------------------------------------------------- results

    def __len__(self) -> int:
        return len(self.names)

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the part its child spans cover."""
        durations = self.durations()
        parents = np.asarray(self.parents, dtype=np.int64)
        covered = np.zeros_like(durations)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], durations[has_parent])
        return durations - covered

    def totals(self) -> "dict[str, dict]":
        """``span name → {calls, self_s, total_s, entry_calls}``.

        ``entry_calls`` counts the spans whose parent is not in the same
        layer — calls *into* the layer, as opposed to calls a layer's public
        methods make to one another.
        """
        if not self.names:
            return {}
        unique, inverse = np.unique(np.asarray(self.names), return_inverse=True)
        calls = np.bincount(inverse, minlength=unique.size)
        self_s = np.bincount(inverse, weights=self.self_times(), minlength=unique.size)
        total_s = np.bincount(inverse, weights=self.durations(), minlength=unique.size)
        layers = np.asarray([layer_of(name) for name in unique])[inverse]
        parents = np.asarray(self.parents, dtype=np.int64)
        parent_layers = np.where(parents >= 0, layers[parents], "")
        entry = np.bincount(inverse, weights=layers != parent_layers, minlength=unique.size)
        return {
            str(name): {
                "calls": int(calls[i]),
                "self_s": float(self_s[i]),
                "total_s": float(total_s[i]),
                "entry_calls": int(entry[i]),
            }
            for i, name in enumerate(unique)
        }

    def root_seconds(self) -> float:
        """Wall time covered by spans that have no parent."""
        parents = np.asarray(self.parents, dtype=np.int64)
        return float(self.durations()[parents < 0].sum())

    # ------------------------------------------------------------- export

    def write_perfetto(self, path, max_events: int = 200_000) -> int:
        """Write a Chrome/Perfetto trace-event file, one track per layer.

        Timestamps are wall microseconds from the first span.  Beyond
        ``max_events`` spans only the longest (and every span carrying
        arguments) are written; the number dropped is recorded in the file.
        Returns the number of spans written.
        """
        durations = self.durations()
        keep = np.arange(len(self))
        if len(self) > max_events:
            keep = np.argpartition(-durations, max_events)[:max_events]
            keep = np.union1d(keep, np.fromiter(self.args, dtype=np.int64))
        tracks = {
            layer: tid
            for tid, layer in enumerate(sorted({layer_of(n) for n in self.names}), 1)
        }
        events: list[dict] = [
            {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
             "args": {"name": layer}}
            for layer, tid in tracks.items()
        ]
        origin = min(self.starts, default=0.0)
        for index in keep.tolist():
            name = self.names[index]
            layer = layer_of(name)
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1,
                "tid": tracks[layer],
                "ts": (self.starts[index] - origin) * 1e6,
                "dur": float(durations[index]) * 1e6,
                "args": self.args.get(index, {}),
            })
        with open(path, "w") as handle:
            json.dump({
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {"dropped_spans": len(self) - int(keep.size)},
            }, handle)
        return int(keep.size)


def span_cost_seconds(calls: int = 20_000) -> float:
    """Wall cost one wrapper adds to one call, measured on a no-op."""

    def noop() -> None:
        return None

    wrapped = Tracer([])._wrap("calibration.noop", noop, None)
    start = perf_counter()
    for _ in range(calls):
        noop()
    bare = perf_counter() - start
    start = perf_counter()
    for _ in range(calls):
        wrapped()
    traced = perf_counter() - start
    return max((traced - bare) / calls, 0.0)
