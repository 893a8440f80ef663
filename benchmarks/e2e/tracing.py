"""Benchmark-owned spans around calls into each layer's public functions.

The program under test is not instrumented by this benchmark: a span
here brackets one call *into* a layer (``engine.query_entries``,
``store.fetch_blocks``, ``session.push``, ...) made from the benchmark's
own files.  Spans are kept in memory and written out once, when the
traced run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """In-memory span recorder.

    A span is ``(id, name, start, end, parent, trace_id)``; ``parent``
    is the id of the span open on the same thread when this one started
    (``None`` for a root), and every span of one operation carries that
    operation's index as ``trace_id``.  Safe to use from several client
    threads: the open-span stack is per thread, and ids come from one
    atomic counter.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._open = threading.local()

    @contextmanager
    def span(self, name: str, trace_id: int):
        """Record one span around the body."""
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        record = {
            "id": next(self._ids),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else None,
            "trace_id": trace_id,
        }
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def durations_ms(self, name: str) -> list[float]:
        """Every completed ``name`` span's duration, in milliseconds."""
        return [
            (s["end"] - s["start"]) * 1e3 for s in self.spans
            if s["name"] == name
        ]

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name: a span's duration minus the
        part of it its child spans cover (children of one span run one
        after another on its thread, so their durations add up)."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = (
                    covered.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own * 1e3
        return out

    def write(self, path: Path, header: dict) -> None:
        """Write every span (times relative to the first span's start)."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        spans = [
            {**s, "start": s["start"] - origin, "end": s["end"] - origin}
            for s in sorted(self.spans, key=lambda s: s["id"])
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": spans}))
