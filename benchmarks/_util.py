"""Pure reporting helpers shared by the benchmark files."""

from __future__ import annotations

import numpy as np


def safe_percentile(values: list[float], q: float, digits: int = 5):
    """``np.percentile`` guarded against an empty sample.

    A worker-count sweep where every completion callback misfires (or a
    workload of zero queries) used to crash the whole benchmark inside
    ``np.percentile``; an empty sample now reports ``None`` so the JSON
    artifact carries ``null`` latency fields instead of nothing at all.
    """
    if len(values) == 0:
        return None
    return round(float(np.percentile(values, q)), digits)


def fmt_ms(seconds) -> str:
    """Render a (possibly ``None``) latency in milliseconds for tables."""
    return "n/a" if seconds is None else f"{seconds * 1e3:.1f}"


def format_table(headers: list[str], rows: list[list]) -> str:
    """Fixed-width text table (the paper-style report format)."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) + 2
        for i, h in enumerate(headers)
    ]
    def line(cells):
        return "".join(str(c).rjust(w) for c, w in zip(cells, widths))
    out = [line(headers), line(["-" * (w - 2) for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out)
