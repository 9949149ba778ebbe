"""Spans around the calls into the program's layers, recorded from outside it.

Each wrapper is installed on the name the caller looks up (evaluation calls
``evaluation.forward_node``, not ``model.forward_node``), times the call, and
charges its duration to the enclosing wrapped call, so that a span's self
time excludes its wrapped children.  Spans are aggregated per name and per
(parent, child) edge in memory; nothing is written while the program runs.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter, process_time


class Span:
    __slots__ = ("calls", "total", "child", "intervals")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        # (wall start, wall end, CPU start, CPU end) per call, when recorded
        self.intervals: list[tuple[float, float, float, float]] = []

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    """Installs timing wrappers and keeps their spans and counters."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.edges: Counter = Counter()
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []  # [name, seconds spent in wrapped children]
        self._patches: list[tuple[object, str, object]] = []

    def install(self, owner, attr: str, name: str, on_return=None, record: bool = False) -> None:
        """Wrap ``owner.attr``; a missing attribute is recorded as absent.

        ``on_return(tracer, args, kwargs, result)`` runs after a call that
        returned, outside the timed interval.  With ``record`` every call's
        wall and CPU interval is kept (for the few pipeline-stage calls).
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(name)
            return
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        edges = self.edges

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            c0 = process_time() if record else 0.0
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                if record:
                    span.intervals.append((t0, t1, c0, process_time()))
                stack.pop()
                span.calls += 1
                span.total += dt
                span.child += frame[1]
                if stack:
                    stack[-1][1] += dt
                edges[(parent, name)] += 1
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def calls(self, name: str) -> int:
        span = self.spans.get(name)
        return span.calls if span else 0

    def total(self, name: str) -> float:
        span = self.spans.get(name)
        return span.total if span else 0.0

    def self_time(self, name: str) -> float:
        span = self.spans.get(name)
        return span.self_time if span else 0.0

    def span_table(self) -> list[dict]:
        """Per-span and per-edge summary, for the run's diagnostic output."""
        rows = [
            {"span": n, "calls": s.calls, "total_s": s.total, "self_s": s.self_time}
            for n, s in sorted(self.spans.items())
        ]
        rows += [
            {"edge": f"{parent} -> {child}", "calls": c}
            for (parent, child), c in sorted(self.edges.items(), key=lambda kv: str(kv[0]))
        ]
        return rows
