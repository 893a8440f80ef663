"""The one reduction order for floats on the query, insert and populate
paths: every float sum in :mod:`repro.query`, :mod:`repro.storage` and
:mod:`repro.wavelets` runs through this module, so an answer's bits do
not depend on the BLAS kernel or on the interpreter's builtin ``sum``
(DESIGN.md, "One reduction order").

* :func:`dot`, :func:`segmented_dot` and :func:`sum_squares` — numpy's
  pairwise ``np.add.reduce`` of the elementwise product, never BLAS;
* :func:`dot_columns` — the same sum over the columns of windows held
  as separate arrays (the wavelet cascade's taps), in :func:`dot`'s
  order;
* :func:`dot_row` — the same sum of one row of Python floats (the lazy
  transform's windows), in :func:`dot`'s order;
* :func:`total` — strictly left to right, for the running totals whose
  reference is defined that way.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

__all__ = [
    "dot", "dot_columns", "dot_row", "segment_gathers", "segmented_dot",
    "sum_squares", "total",
]


def dot(a, b):
    """Pairwise sum of ``a * b`` along the last axis (broadcasting).

    A 1-D pair gives a scalar (``0.0`` when empty); stacked windows
    against filter taps give one dot per window, each bitwise the dot of
    that row alone — numpy sums a row pairwise only when the row is
    contiguous, hence the C-ordered product.
    """
    return np.add.reduce(np.multiply(a, b, order="C"), axis=-1)


def dot_columns(columns, taps):
    """``sum(columns[m] * taps[m])`` over at least one tap, elementwise:
    each element bitwise the :func:`dot` of its row ``[columns[0][i],
    columns[1][i], ...]`` with ``taps``, the rows never built.  The
    columns share one shape and may be strided views.

    numpy's order for a contiguous row, replayed term by term: under 8
    terms left to right from ``+0.0``, up to 128 in eight running sums
    joined as a tree and then the rest left to right, beyond that the
    halving split; ``tests/test_core_reduce.py`` pins it against
    :func:`dot`.
    """
    n = len(taps)
    if n > 128:
        cut = n // 2 - n // 2 % 8
        return dot_columns(columns[:cut], taps[:cut]) + dot_columns(
            columns[cut:], taps[cut:]
        )
    lanes = [np.multiply(c, t) for c, t in zip(columns[: 8 if n >= 8 else 1], taps)]
    term = np.empty_like(lanes[0])  # each later product, added as it is made
    rest = range(1, n)
    if n >= 8:
        rest = range(n - n % 8, n)
        for m in range(8, rest.start):
            lanes[m % 8] += np.multiply(columns[m], taps[m], out=term)
        lanes = [(lanes[0] + lanes[1] + (lanes[2] + lanes[3]))
                 + (lanes[4] + lanes[5] + (lanes[6] + lanes[7]))]
    for m in rest:
        lanes[0] += np.multiply(columns[m], taps[m], out=term)
    lanes[0] += 0.0  # the sum's identity: an all -0.0 row gives +0.0
    return lanes[0]


def dot_row(row, taps) -> float:
    """Bitwise ``float(dot(row, taps))`` for a row of Python floats, in
    :func:`dot_columns`' order: under 8 terms left to right from ``+0.0``
    (a short row may be summed as its terms are made), up to 128 eight
    running sums as a tree then the rest, beyond that the halving split."""
    n = len(taps)
    if n > 128:
        cut = n // 2 - n // 2 % 8
        return dot_row(row[:cut], taps[:cut]) + dot_row(row[cut:], taps[cut:])
    acc = 0.0
    rest = 0 if n < 8 else n - n % 8
    if rest:
        lane = [x * t for x, t in zip(row[:8], taps[:8])]
        for m in range(8, rest):
            lane[m % 8] += row[m] * taps[m]
        acc += (lane[0] + lane[1] + (lane[2] + lane[3])) + (
            lane[4] + lane[5] + (lane[6] + lane[7]))
    for m in range(rest, n):
        acc += row[m] * taps[m]
    return acc


def _by_length(starts, lengths):
    """``(rows, gather)`` for each run of one segment length: ``rows``
    are those segments (sorted by length, stable) and ``gather`` the
    C-ordered ``(k, L)`` index of their members."""
    order = np.argsort(lengths, kind="stable")
    bounds = np.flatnonzero(
        np.diff(lengths[order], prepend=-1, append=-1)
    ).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        rows = order[lo:hi]
        yield rows, starts[rows, None] + np.arange(lengths[rows[0]])


def segmented_dot(a, b, offsets) -> np.ndarray:
    """:func:`dot` of every CSR segment ``offsets[i]:offsets[i + 1]`` of
    ``a`` and ``b`` — :func:`dot` is its one-segment case.

    Each run of ``k`` consecutive segments of one length ``L`` is read
    in place as the C-ordered ``(k, L)`` rows of the products and
    reduced along its last axis at once — no gather: each row is
    contiguous, so each sum is bitwise its segment's own ``dot`` (a
    run of empty segments gives ``0.0`` each).
    """
    products = np.multiply(a, b)
    starts = np.asarray(offsets, dtype=np.intp).tolist()
    lengths = [hi - lo for lo, hi in zip(starts, starts[1:])]
    out = np.empty(len(lengths))
    lo = 0
    for length, run in groupby(lengths):
        hi = lo + sum(1 for _ in run)
        rows = products[starts[lo]:starts[hi]].reshape(hi - lo, length)
        out[lo:hi] = np.add.reduce(rows, axis=-1)
        lo = hi
    return out


def segment_gathers(starts, lengths) -> tuple[int, list]:
    """How :func:`sum_squares` reads the segments ``x[starts[i]:starts[i]
    + lengths[i]]``: their count, and per segment length the segments
    of that length with the C-ordered ``(k, L)`` index of their members.
    A caller that sums squares over one segment set again and again
    builds this once and passes it as ``gathers``."""
    starts = np.asarray(starts, dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    return lengths.size, list(_by_length(starts, lengths))


def sum_squares(x, starts, lengths, gathers=None) -> np.ndarray:
    """``dot(s, s)`` of every segment ``s = x[starts[i]:starts[i] +
    lengths[i]]``, bitwise, reading only the segments: they may lie
    anywhere in ``x``, in any order, so the segments of one length
    ``L`` are gathered into one C-ordered ``(k, L)`` array and reduced
    along its last axis at once, each row bitwise its segment's own
    :func:`dot`.  ``gathers`` is :func:`segment_gathers` of ``starts``
    and ``lengths``, if the caller holds it; without it each length's
    index is built as it is read, so only one is held at a time."""
    if gathers is None:
        starts = np.asarray(starts, dtype=np.intp)
        lengths = np.asarray(lengths, dtype=np.intp)
        gathers = lengths.size, _by_length(starts, lengths)
    size, groups = gathers
    out = np.zeros(size)
    for rows, gather in groups:
        members = x[gather]
        out[rows] = np.add.reduce(np.multiply(members, members), axis=-1)
    return out


def total(x):
    """Left-to-right sum along the last axis (``0.0`` when empty)."""
    x = np.asarray(x, dtype=float)
    if not x.shape[-1]:
        return np.zeros(x.shape[:-1])
    return np.cumsum(x, axis=-1)[..., -1]
