"""In-memory span tracing by wrapping module-level names from the outside.

A :class:`Tracer` replaces a callable under the attribute its caller looks it
up by (for example ``tiltcomp.pipeline.filter_step``), so the library source
stays untouched. Each call becomes a span with a parent: the span open when it
started. Spans are not kept one by one; they are folded into per-name and
per-(parent, name) totals, so a run with millions of calls stays small, and the
totals are written out once when the benchmark ends.

A layer's self time is its span time minus the time of the spans it caused.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    """Aggregating span recorder. Not thread-safe: the library is single-threaded."""

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []  # open spans: [child seconds]
        self._names: list[str] = []  # names of open spans, parallel to _stack
        self.reset()

    def reset(self) -> None:
        """Start a new accumulation window (open spans are not affected)."""
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Trace ``owner.attr`` as span ``name`` until :meth:`restore`.

        ``on_return(args, result)`` runs after a successful call, outside the
        span, to record counters from the call's inputs and output; its time
        is charged to no span, so it does not inflate the caller's self time.
        """
        inner = getattr(owner, attr)
        stack, names = self._stack, self._names
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            parent = names[-1] if names else ""
            stack.append(frame)
            names.append(name)
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                names.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[0]
                self.calls[name] += 1
                edge = self.edges[(parent, name)]
                edge[0] += 1
                edge[1] += elapsed
            if on_return is not None:
                hook_start = clock()
                on_return(args, result)
                if stack:
                    stack[-1][0] += clock() - hook_start
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, inner))

    def restore(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._patched:
            owner, attr, inner = self._patched.pop()
            setattr(owner, attr, inner)

    def edge_table(self) -> list[dict]:
        """The (parent, name) aggregate as JSON-ready rows."""
        return [
            {"parent": parent, "name": name, "calls": calls, "total_s": total}
            for (parent, name), (calls, total) in sorted(self.edges.items())
        ]
