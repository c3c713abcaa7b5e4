"""In-memory span tracer that times functions at the names callers look up.

``Tracer.wrap`` replaces ``owner.attr`` (a module global or a class
attribute) with a timing wrapper and remembers the original, so
``Tracer.restore`` puts every binding back exactly as it was. A target
whose attribute no longer exists is recorded in ``missing`` and skipped,
so the metrics built on it are left out instead of crashing the run.

Spans carry a name, start and end (``perf_counter_ns``), the index of the
span that was open when they started, the optimizer step they ran in and
the benchmark phase. Self time is a span's duration minus the durations
of its direct children; the program is single-threaded, so children never
overlap and self times are never negative.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

STEP_SPAN = "training.step"


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int   # index into Tracer.spans, -1 for a root span
    step: int     # optimizer step id, -1 outside a step
    phase: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, list] = {}
        self.phase = ""
        self.missing: list[str] = []
        self.wrapped: set[str] = set()   # span names with at least one live wrapper
        self._stack: list[int] = []
        self._patches: list = []
        self._step = -1
        self._next_step = 0

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent,
                               self._step, self.phase))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """Close span ``idx`` and any span still open inside it."""
        now = time.perf_counter_ns()
        if idx not in self._stack:
            return
        while self._stack:
            top = self._stack.pop()
            self.spans[top].end = now
            if self.spans[top].name == STEP_SPAN:
                self._step = -1
            if top == idx:
                return

    def begin_step(self) -> None:
        """Close the running step span, if any, and open the next one."""
        self.end_step()
        self._step = self._next_step
        self._next_step += 1
        self.open(STEP_SPAN)

    def end_step(self) -> None:
        if self._stack and self.spans[self._stack[-1]].name == STEP_SPAN:
            self.close(self._stack[-1])

    def count(self, key: str, value) -> None:
        self.counts.setdefault(key, []).append(value)

    # -- wrapping ------------------------------------------------------
    def wrap(self, owner, attr: str, name, before=None, after=None,
             provides: tuple = ()) -> bool:
        """Time calls to ``owner.attr``; skip it when ``owner`` has no ``attr``.

        ``name`` is the span name, or a callable ``(args) -> name`` whose
        possible results are listed in ``provides``.
        ``before(tracer, args, kwargs)`` runs before the span opens and
        ``after(tracer, args, kwargs, result)`` after it closes.
        """
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        original = getattr(owner, attr)
        own = vars(owner)
        self._patches.append((owner, attr, own.get(attr), attr in own))
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            idx = tracer.open(name if isinstance(name, str) else name(args))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self.wrapped.update(provides or (name,))
        return True

    def restore(self) -> None:
        """Put back every binding ``wrap`` replaced, newest first."""
        while self._patches:
            owner, attr, value, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    # -- analysis ------------------------------------------------------
    def self_times(self) -> list[int]:
        """Self time of each span in ns, aligned with ``spans``."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def write(self, path) -> None:
        """Write spans (with self times), counts and missing targets as JSON."""
        fields = ["name", "start_ns", "end_ns", "parent", "step", "phase",
                  "self_ns"]
        rows = [[s.name, s.start, s.end, s.parent, s.step, s.phase, st]
                for s, st in zip(self.spans, self.self_times())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": rows, "counts": self.counts,
                       "missing": self.missing}, fh)
