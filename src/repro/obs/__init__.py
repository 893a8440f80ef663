"""repro.obs — the unified observability layer.

One lightweight substrate for every quantitative claim in the paper:

* :mod:`repro.obs.registry` — named counters, gauges, and fixed-bucket
  histograms in a process-wide :class:`MetricsRegistry` (with a
  :class:`NullRegistry` no-op path for overhead-sensitive runs);
* :mod:`repro.obs.spans` — the nesting ``span()`` context manager, so a
  query span contains its storage child spans, and the ``handoff()``
  that carries a trace across a queue;
* :mod:`repro.obs.stats` — the ``reset/snapshot/delta`` protocol the
  per-subsystem stats bundles (``IOStats``, ``PoolStats``, ...) share;
* :mod:`repro.obs.export` — JSON and text exporters (the benchmark
  sidecar and the ``stats`` CLI report).

The metric-name catalogue lives in DESIGN.md's observability section.
"""

from repro.obs.export import (
    registry_from_dict,
    registry_to_dict,
    render_text,
    to_json,
)
from repro.obs.registry import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    counter,
    gauge,
    get_registry,
    histogram,
    set_registry,
    use_registry,
)
from repro.obs.spans import Span, span
from repro.obs.stats import StatsBase

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "Span",
    "StatsBase",
    "counter",
    "gauge",
    "get_registry",
    "histogram",
    "registry_from_dict",
    "registry_to_dict",
    "render_text",
    "set_registry",
    "span",
    "to_json",
    "use_registry",
]
