"""The metrics registry: counters, gauges, and fixed-bucket histograms.

One process-wide registry is the substrate every subsystem reports into,
so the paper's quantitative claims — blocks touched per query (§3.2),
progressive error per I/O step (§3.3), frames per recognition decision
(§3.4) — become correlated, exportable measurements instead of scattered
ad-hoc counters.

Instrumentation is default-on but near-free: instruments are plain
attribute bumps, and installing a :class:`NullRegistry` (see
:func:`set_registry`) turns every instrument into a shared no-op, which
is the path benchmark runs use to bound overhead.

Binding rule: instrumented code asks for its instruments from the
*active* registry at operation time (or, for tight per-frame loops, once
per stream iteration), so swapping the registry redirects subsequent
measurements without rebuilding any component.
"""

from __future__ import annotations

import bisect
import os
from collections import deque
from contextlib import contextmanager
from typing import Iterator

from repro.lint.lockwatch import watched_lock

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
    "get_registry",
    "set_registry",
    "use_registry",
    "counter",
    "gauge",
    "histogram",
]

MAX_SPANS = 256  # completed root spans a registry keeps for exporters

# Exponential seconds edges: 10 us .. 10 s covers a pool hit through a
# full benchmark query batch.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

# Power-of-two count edges for per-query block/coefficient tallies.
DEFAULT_COUNT_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 1024,
)


class Counter:
    """A monotonically increasing tally.

    Increments take a per-instrument lock: ``value += amount`` is a
    read-modify-write, and concurrent query workers would otherwise lose
    updates under an unlucky thread switch.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = watched_lock("obs.counter")

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (default 1) to the tally."""
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        """Zero the tally."""
        with self._lock:
            self.value = 0

    def as_dict(self) -> dict:
        """Exporter form: ``{name, value}``."""
        return {"name": self.name, "value": self.value}


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)

    def reset(self) -> None:
        """Return the gauge to zero."""
        self.value = 0.0

    def as_dict(self) -> dict:
        """Exporter form: ``{name, value}``."""
        return {"name": self.name, "value": self.value}


class Histogram:
    """A fixed-bucket histogram with count/total/min/max.

    Buckets are cumulative-style upper edges: an observation lands in the
    first bucket whose edge is ``>= value`` (edges are inclusive), or in
    the overflow slot past the last edge.
    """

    __slots__ = (
        "name", "buckets", "counts", "count", "total", "min", "max", "_lock"
    )

    def __init__(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(
                f"histogram {name!r} needs ascending bucket edges, "
                f"got {buckets!r}"
            )
        self.name = name
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1 overflow slot
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = watched_lock("obs.histogram")

    def observe(self, value: float) -> None:
        """Record one observation (atomic across all fields)."""
        value = float(value)
        slot = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self.counts[slot] += 1
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 while empty)."""
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        """Drop every observation."""
        with self._lock:
            self.counts = [0] * (len(self.buckets) + 1)
            self.count = 0
            self.total = 0.0
            self.min = float("inf")
            self.max = float("-inf")

    def as_dict(self) -> dict:
        """Exporter form, with per-edge counts and an ``inf`` overflow."""
        return {
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": [
                {"le": edge, "count": n}
                for edge, n in zip(
                    list(self.buckets) + ["inf"], self.counts
                )
            ],
        }


class MetricsRegistry:
    """Get-or-create home for every named instrument, plus span storage.

    Instruments are identified by dotted names (see the catalogue in
    DESIGN.md); asking twice for the same name returns the same object,
    so any module can contribute to a shared series without coordination.
    The last :data:`MAX_SPANS` completed *root* spans are retained in
    :attr:`spans` for the exporters.
    """

    #: Real registries record; the null registry flips this off so the
    #: span machinery can skip work entirely.
    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self.spans: deque = deque(maxlen=MAX_SPANS)
        self._lock = watched_lock("obs.registry")

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        inst = self._counters.get(name)
        if inst is None:
            with self._lock:
                inst = self._counters.setdefault(name, Counter(name))
        return inst

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        inst = self._gauges.get(name)
        if inst is None:
            with self._lock:
                inst = self._gauges.setdefault(name, Gauge(name))
        return inst

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None
    ) -> Histogram:
        """The histogram under ``name`` (created on first use).

        ``buckets`` only matters at creation; later callers inherit the
        edges the first caller chose.
        """
        inst = self._histograms.get(name)
        if inst is None:
            with self._lock:
                inst = self._histograms.setdefault(
                    name,
                    Histogram(name, buckets or DEFAULT_LATENCY_BUCKETS),
                )
        return inst

    def counters(self) -> Iterator[Counter]:
        """All registered counters, name-ordered."""
        return iter(sorted(self._counters.values(), key=lambda c: c.name))

    def gauges(self) -> Iterator[Gauge]:
        """All registered gauges, name-ordered."""
        return iter(sorted(self._gauges.values(), key=lambda g: g.name))

    def histograms(self) -> Iterator[Histogram]:
        """All registered histograms, name-ordered."""
        return iter(sorted(self._histograms.values(), key=lambda h: h.name))

    def reset(self) -> None:
        """Zero every instrument and drop retained spans."""
        for group in (self._counters, self._gauges, self._histograms):
            for inst in group.values():
                inst.reset()
        self.spans.clear()


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for the no-op path."""

    __slots__ = ()
    name = "null"
    value = 0
    count = 0
    total = 0.0
    buckets = ()
    counts: list = []
    min = float("inf")
    max = float("-inf")
    mean = 0.0

    def inc(self, amount: int | float = 1) -> None:
        """Discard the increment."""

    def set(self, value: float) -> None:
        """Discard the level."""

    def observe(self, value: float) -> None:
        """Discard the observation."""

    def reset(self) -> None:
        """Nothing to zero."""

    def as_dict(self) -> dict:
        """Exporter form of nothing."""
        return {}


_NULL = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The no-op registry: every instrument is a shared do-nothing stub.

    Install with :func:`set_registry` (or :func:`use_registry`) to run a
    workload with instrumentation disabled — the overhead-bound path the
    benchmarks compare against.
    """

    enabled = False

    def counter(self, name: str) -> Counter:
        """The shared null instrument, whatever the name."""
        return _NULL  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        """The shared null instrument, whatever the name."""
        return _NULL  # type: ignore[return-value]

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None
    ) -> Histogram:
        """The shared null instrument, whatever the name."""
        return _NULL  # type: ignore[return-value]


# REPRO_OBS=off starts the process on the no-op path (overhead baseline
# for benchmarks); anything else, or unset, starts with a live registry.
_default_registry: MetricsRegistry = (
    NullRegistry()
    if os.environ.get("REPRO_OBS", "").lower() in ("0", "off", "null", "none")
    else MetricsRegistry()
)


def get_registry() -> MetricsRegistry:
    """The process-wide active registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the active registry and return it."""
    global _default_registry
    _default_registry = registry
    return registry


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Temporarily install ``registry`` for the duration of a block."""
    previous = get_registry()
    set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def counter(name: str) -> Counter:
    """Shorthand for ``get_registry().counter(name)``."""
    return _default_registry.counter(name)


def gauge(name: str) -> Gauge:
    """Shorthand for ``get_registry().gauge(name)``."""
    return _default_registry.gauge(name)


def histogram(name: str, buckets: tuple[float, ...] | None = None) -> Histogram:
    """Shorthand for ``get_registry().histogram(name, buckets)``."""
    return _default_registry.histogram(name, buckets)
