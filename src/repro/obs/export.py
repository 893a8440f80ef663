"""Exporters: one registry in, JSON or a human-readable report out.

``registry_to_dict`` / ``registry_from_dict`` round-trip every instrument
(spans are exported as plain trees), ``to_json`` is the machine-readable
sidecar format the benchmark harness writes, and ``render_text`` is the
report the ``stats`` CLI subcommand prints.
"""

from __future__ import annotations

import json

from repro.obs.registry import Histogram, MetricsRegistry

__all__ = ["registry_to_dict", "registry_from_dict", "to_json", "render_text"]


def _span_dict(entry) -> dict:
    return entry if isinstance(entry, dict) else entry.to_dict()


def registry_to_dict(registry: MetricsRegistry) -> dict:
    """Serialize every instrument (and retained root spans) to plain data."""
    return {
        "counters": {c.name: c.value for c in registry.counters()},
        "gauges": {g.name: g.value for g in registry.gauges()},
        "histograms": {h.name: h.as_dict() for h in registry.histograms()},
        # tuple() copies at C level, atomically under the GIL; iterating
        # the deque itself races any thread finishing a root span.
        "spans": [_span_dict(s) for s in tuple(registry.spans)],
    }


def registry_from_dict(payload: dict) -> MetricsRegistry:
    """Rebuild a registry from :func:`registry_to_dict` output.

    Histogram per-bucket counts, totals and extrema are restored exactly;
    spans are retained as the exported plain dictionaries.
    """
    registry = MetricsRegistry()
    for name, value in payload.get("counters", {}).items():
        registry.counter(name).inc(value)
    for name, value in payload.get("gauges", {}).items():
        registry.gauge(name).set(value)
    for name, data in payload.get("histograms", {}).items():
        edges = tuple(
            b["le"] for b in data.get("buckets", []) if b["le"] != "inf"
        )
        hist = registry.histogram(name, edges or None)
        hist.counts = [b["count"] for b in data.get("buckets", [])] or (
            [0] * (len(hist.buckets) + 1)
        )
        hist.count = data.get("count", 0)
        hist.total = data.get("total", 0.0)
        if data.get("min") is not None:
            hist.min = data["min"]
        if data.get("max") is not None:
            hist.max = data["max"]
    for entry in payload.get("spans", []):
        registry.spans.append(dict(entry))
    return registry


def to_json(registry: MetricsRegistry, indent: int | None = 2) -> str:
    """The registry as a JSON document (the benchmark sidecar format)."""
    return json.dumps(registry_to_dict(registry), indent=indent)


def _render_histogram(hist: Histogram, lines: list[str]) -> None:
    lines.append(
        f"  {hist.name:<42s} count={hist.count} mean={hist.mean:.6g} "
        f"min={hist.min if hist.count else 0:.6g} "
        f"max={hist.max if hist.count else 0:.6g}"
    )
    for bucket, n in zip(list(hist.buckets) + ["inf"], hist.counts):
        if n:
            lines.append(f"      le={bucket}: {n}")


def _render_span(entry: dict, lines: list[str], depth: int) -> None:
    lines.append(
        f"  {'  ' * depth}{entry.get('name', '?')} "
        f"({entry.get('duration_s', 0.0) * 1e3:.3f} ms)"
    )
    for child in entry.get("children", []):
        _render_span(child, lines, depth + 1)


def render_text(registry: MetricsRegistry) -> str:
    """A fixed-width text report of every populated instrument."""
    lines: list[str] = ["== counters =="]
    for c in registry.counters():
        lines.append(f"  {c.name:<42s} {c.value}")
    lines.append("== gauges ==")
    for g in registry.gauges():
        lines.append(f"  {g.name:<42s} {g.value:.6g}")
    lines.append("== histograms ==")
    for h in registry.histograms():
        _render_histogram(h, lines)
    if registry.spans:
        lines.append("== spans (most recent roots) ==")
        for entry in list(registry.spans)[-8:]:
            _render_span(_span_dict(entry), lines, 0)
    return "\n".join(lines)
