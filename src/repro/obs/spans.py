"""Timing spans: the ``span()`` context manager and the queue hand-off.

A span times one operation on :func:`repro.core.clock.now`.  The open
span lives in one ``ContextVar``; a span opened inside it is its child,
so a query span contains the fetch spans it caused.  Each span carries
a ``span_id`` (one process-wide count), its ``parent_id`` and a
``trace_id`` (its root's id, or the one a hand-off drew), and feeds a
``<name>.seconds`` histogram; finished roots stay on ``registry.spans``.
Work crossing a queue carries a :func:`handoff`, never a span.  Under a
:class:`~repro.obs.registry.NullRegistry` ``span`` returns a shared
no-op and ``handoff`` returns ``None`` — no clock read, no id drawn.
"""

from __future__ import annotations

import itertools
from contextvars import ContextVar
from typing import NamedTuple

from repro.core import clock
from repro.obs.registry import DEFAULT_LATENCY_BUCKETS, get_registry

__all__ = ["Handoff", "Span", "current_trace", "handoff", "span"]

_ids = itertools.count(1)
_current: ContextVar[Span | None] = ContextVar("repro.obs.span", default=None)


class Handoff(NamedTuple):
    """What crosses a queue: a trace, its open span, the capture time."""

    trace_id: int
    parent: Span | None
    start: float


class Span:
    """One timed operation, with children for nested operations and
    ``links`` to the other traces it served.  Use via :func:`span`."""

    __slots__ = (
        "name", "duration", "children", "links", "trace_id", "span_id",
        "parent_id", "_parent", "_start", "_token", "_registry",
    )

    def __init__(self, name: str, registry, after: Handoff | None) -> None:
        self.name = name
        self.duration = 0.0
        self.children: list[Span] = []
        self.links: tuple[int, ...] = ()
        self.span_id = next(_ids)
        parent = _current.get()
        if parent is None and after is not None:
            parent, self.trace_id = after.parent, after.trace_id
        else:
            self.trace_id = self.span_id if parent is None else parent.trace_id
        self.parent_id = None if parent is None else parent.span_id
        self._parent = parent
        self._start = clock.now() if after is None else after.start
        self._registry = registry

    def __enter__(self) -> "Span":
        self._token = _current.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = clock.now() - self._start
        _current.reset(self._token)
        # Dropped so a finished tree holds no reference cycle.
        parent, self._parent, self._token = self._parent, None, None
        registry = self._registry
        registry.histogram(
            f"{self.name}.seconds", DEFAULT_LATENCY_BUCKETS
        ).observe(self.duration)
        if parent is not None:
            parent.children.append(self)
        else:
            registry.spans.append(self)

    def link(self, handoffs) -> None:
        """Set :attr:`links` to the distinct traces of ``handoffs``."""
        self.links = tuple(sorted({h.trace_id for h in handoffs if h}))

    def to_dict(self) -> dict:
        """Exporter form: name, ids, duration, links, nested children."""
        return {
            "name": self.name, "trace_id": self.trace_id,
            "span_id": self.span_id, "parent_id": self.parent_id,
            "duration_s": self.duration, "links": list(self.links),
            "children": [child.to_dict() for child in self.children],
        }


class _NullSpan:
    """Shared no-op span for the disabled-instrumentation path."""

    __slots__ = ()
    name = "null"
    duration = 0.0
    children: list = []

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def link(self, handoffs) -> None:
        """Link nothing."""

    def to_dict(self) -> dict:
        """Exporter form of nothing."""
        return {}


_NULL_SPAN = _NullSpan()


def span(name: str, after: Handoff | None = None):
    """A context manager timing one operation under ``name``, a child of
    the span open in this context.  ``after`` is a :func:`handoff` taken
    across a queue: the span starts at its capture and, with no span
    open here, joins its trace under its span."""
    registry = get_registry()
    if not registry.enabled:
        return _NULL_SPAN
    return Span(name, registry, after)


def handoff() -> Handoff | None:
    """This context, captured to cross a queue: the open span's trace
    (a fresh id if none is open), that span, and ``clock.now()``."""
    if not get_registry().enabled:
        return None
    parent = _current.get()
    trace = next(_ids) if parent is None else parent.trace_id
    return Handoff(trace, parent, clock.now())


def current_trace() -> int | None:
    """The trace of the span open in this context, if any."""
    return getattr(_current.get(), "trace_id", None)
