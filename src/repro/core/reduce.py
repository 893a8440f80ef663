"""The one reduction order for floats on the query, insert and populate
paths: every float sum in :mod:`repro.query`, :mod:`repro.storage` and
:mod:`repro.wavelets` runs through this module, so an answer's bits do
not depend on the BLAS kernel or on the interpreter's builtin ``sum``
(DESIGN.md, "One reduction order").

* :func:`dot`, :func:`segmented_dot` and :func:`sum_squares` — numpy's
  pairwise ``np.add.reduce`` of the elementwise product, never BLAS;
* :func:`total` — strictly left to right, for the running totals whose
  reference is defined that way.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dot", "segmented_dot", "sum_squares", "total"]


def dot(a, b):
    """Pairwise sum of ``a * b`` along the last axis (broadcasting).

    A 1-D pair gives a scalar (``0.0`` when empty); stacked windows
    against filter taps give one dot per window, each bitwise the dot of
    that row alone — numpy sums a row pairwise only when the row is
    contiguous, hence the C-ordered product.
    """
    return np.add.reduce(np.multiply(a, b, order="C"), axis=-1)


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

    Segments of one length ``L`` are gathered into one C-ordered
    ``(k, L)`` array and reduced along its last axis at once: each row
    is contiguous, so each sum is bitwise its segment's own ``dot``.
    """
    products = np.multiply(a, b)
    starts = np.asarray(offsets, dtype=np.intp)
    lengths = np.diff(starts)
    out = np.zeros(lengths.size)
    for rows, gather in _by_length(starts, lengths):
        out[rows] = np.add.reduce(products[gather], axis=-1)
    return out


def sum_squares(x, starts, lengths) -> np.ndarray:
    """``dot(s, s)`` of every segment ``s = x[starts[i]:starts[i] +
    lengths[i]]``, bitwise, reading only the segments: they may lie
    anywhere in ``x``, in any order.  Same gathering as
    :func:`segmented_dot`."""
    starts = np.asarray(starts, dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    out = np.zeros(lengths.size)
    for rows, gather in _by_length(starts, lengths):
        members = x[gather]
        out[rows] = np.add.reduce(np.multiply(members, members), axis=-1)
    return out


def total(x):
    """Left-to-right sum along the last axis (``0.0`` when empty)."""
    x = np.asarray(x, dtype=float)
    if not x.shape[-1]:
        return np.zeros(x.shape[:-1])
    return np.cumsum(x, axis=-1)[..., -1]
