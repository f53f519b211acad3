"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files by replacing public
callables of the library (module functions and class methods) with timing
wrappers for the length of a run; nothing under ``src/`` is modified.  A
span holds its name, start, end, parent span, run id (one per job), free
attributes, and -- when memory tracking is on -- the ``tracemalloc`` peak
reached inside it above the traced memory at its start.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "attrs",
                 "peak", "_base", "_child_peak")

    def __init__(self, sid, name, start, parent, run, attrs):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run = run
        self.attrs = attrs
        self.peak = None          # bytes; set only for spans opened while tracing memory
        self._base = 0
        self._child_peak = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "run": self.run,
                "attrs": self.attrs, "peak": self.peak}

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        s = cls(d["id"], d["name"], d["start"], d["parent"], d["run"], d["attrs"])
        s.end = d["end"]
        s.peak = d["peak"]
        return s


class Tracer:
    """Collects spans and counters for one workload process.

    ``tracemalloc`` slows code that makes many small allocations several
    fold, so it runs only inside spans named in ``memory_spans`` (from the
    outermost one's start to its end), and a run that times layers leaves
    ``memory_spans`` empty.
    """

    def __init__(self, memory_spans: Iterable[str] = ()):
        self.memory_spans = frozenset(memory_spans)
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.run: Optional[str] = None
        self._stack: List[Span] = []
        self._memory_root: Optional[Span] = None
        self._restore: List[tuple] = []
        self._rows: Dict[str, list] = {}

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, 0.0,
                    parent.id if parent is not None else None, self.run, attrs)
        if self._memory_root is None and name in self.memory_spans:
            tracemalloc.start()
            self._memory_root = span
        if self._memory_root is not None:
            cur, peak = tracemalloc.get_traced_memory()
            if parent is not None and parent.peak is not None:
                # reset_peak below forgets the parent's peak so far; keep it
                parent._child_peak = max(parent._child_peak, peak)
            tracemalloc.reset_peak()
            span._base = cur
            span.peak = 0
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        if span.peak is not None:
            peak = max(tracemalloc.get_traced_memory()[1], span._child_peak)
            span.peak = max(0, peak - span._base)
            parent = self._stack[-1] if self._stack else None
            if parent is not None and parent.peak is not None:
                parent._child_peak = max(parent._child_peak, peak)
            if span is self._memory_root:
                tracemalloc.stop()
                self._memory_root = None

    def inside(self, prefix: str) -> bool:
        """True when an open span's name starts with ``prefix``."""
        return any(s.name.startswith(prefix) for s in self._stack)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def remember(self, name: str, rows) -> None:
        """Keep ``rows`` until :meth:`end_run` counts the distinct ones."""
        self._rows.setdefault(name, []).append(np.array(rows, dtype=float))

    def end_run(self) -> None:
        """Add this run's distinct remembered rows to their counters."""
        for name, chunks in self._rows.items():
            self.count(name, np.unique(np.concatenate(chunks), axis=0).shape[0])
        self._rows.clear()

    # -- wrapping --------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, attrs: Optional[Callable] = None) -> Callable:
        """Return ``fn`` timed as span ``name``; ``attrs(*args, **kwargs)``
        gives the span's attributes from the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, **(attrs(*args, **kwargs) if attrs else {}))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    def replace(self, owner, attr: str, wrapper: Callable) -> None:
        """Set ``owner.attr`` to ``wrapper`` until :meth:`restore`."""
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def replace_everywhere(self, modules, owner, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` and every module-level alias of it.

        Modules that did ``from .x import f`` hold their own binding of f,
        so each one is patched where it holds the original object.
        """
        original = getattr(owner, attr)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, wrapper)

    def restore(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


# -- analysis ----------------------------------------------------------------


def covered(intervals: Iterable[tuple], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= reach:
            continue
        a = max(a, reach)
        total += b - a
        reach = b
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: Dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}
