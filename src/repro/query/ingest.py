"""Vectorized batch append: the write-side twin of the batch evaluator.

§3.1.1 picks wavelets because "the complexity of wavelet transformation
for incremental update (append) is low" — and immersidata is an
append-*heavy* workload: hundreds of live sensor streams feeding one
cube.  One impulse at a time, that costs one query translation, one
read-modify-write per touched block and one norm rebuild per point;
:class:`BatchInserter` applies the recipe that made batched reads fast
(:class:`~repro.query.batch.BatchEvaluator`) to writes:

* **Placed once, at memo time.**  A point's impulse delta (the lazy
  transform of the width-one range ``[p, p]``) is memoized per distinct
  point *already placed*: each coefficient's position in the
  allocation's fixed coefficient layout (``offsets[code] + slot``, where
  :attr:`~repro.storage.allocation.TensorAllocation.offsets` lays every
  grid block's payload back to back in code order; ``query_located``
  gives the code and slot, from the engine's axis parts), its value,
  and the point's distinct block codes.  The allocation is fixed for
  the engine's life, so no batch re-bases a point, and no key matrix
  is ever built.
* **One read-modify-write per touched block, found without a sort.**
  The touched blocks are a presence table over the block grid filled
  from the per-point block codes.  They are read once, as one group
  (:meth:`~repro.storage.blockstore.TensorReads.read_many`), each
  pre-image copied into its own range of a per-inserter scratch in the
  fixed layout, and committed once
  (:meth:`~repro.storage.blockstore._StoreBase.store_blocks`) — one
  ``read_many`` and one ``write_many`` per batch instead of one RMW
  per (point, block) pair.  The scratch is allocated on the first
  commit and touched only under the engine's update lock; a commit
  reads back only the ranges it copied in, so nothing a failed commit
  left there is ever read.
* **Order-preserving accumulation, straight into the scratch.**
  ``np.add.at(scratch, positions, values)`` (the values scaled only
  when the weight is not 1.0), point after point, applies the deltas
  *unbuffered, in point order* — on each coefficient the identical
  float-operation sequence N sequential ``insert`` calls perform —
  which is what makes the stored result **bitwise-identical** to the
  sequential path, not merely close.  Overlapping supports need no
  dedup for that: repeated positions simply accumulate in turn.  (A
  ``bincount``-style pre-summed delta map would change the association
  order and drift in the last ulp.)

:meth:`ProPolyneEngine.insert` is a batch of one through this kernel,
so the scalar and batched paths can never drift apart numerically, and
every append holds the engine's update lock.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

from repro.core.errors import QueryError
from repro.core.reduce import sum_squares
from repro.obs import DEFAULT_COUNT_BUCKETS
from repro.obs import counter as obs_counter
from repro.obs import histogram as obs_histogram
from repro.obs import span
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery

__all__ = ["BatchInserter"]

#: Delta coefficients a memo may hold (two 8-byte arrays
#: each, so about 33 MB).  Beyond it the least recently used points are
#: evicted, which costs their re-translation and changes no stored bit.
_MEMO_COEFFICIENTS = 1 << 21


class BatchInserter:
    """Vectorized multi-point append onto one ProPolyne engine.

    Metrics: ``query.insert.batches`` / ``query.inserts`` counters and
    the ``query.insert.batch_size`` / ``query.insert.blocks_touched``
    histograms.

    Args:
        engine: A populated :class:`~repro.query.propolyne.ProPolyneEngine`
            (its :attr:`~repro.query.propolyne.ProPolyneEngine.inserter`
            is the instance every append path of that engine shares).
    """

    def __init__(self, engine: ProPolyneEngine) -> None:
        self._engine = engine
        self._ndim = len(engine.shape)
        # Per-point impulse translations repeat constantly in sensor
        # traffic (quantized readings revisit the same cells), so the
        # placed deltas are memoized per distinct point, least recently
        # used first.  Only touched under the engine's update lock.
        self._delta_memo: OrderedDict[tuple[int, ...], tuple] = OrderedDict()
        self._memo_held = 0
        # The commit's buffer and hit marks, in the allocation's fixed
        # layout: allocated on the first commit, only touched under the
        # engine's update lock.
        self._scratch: np.ndarray | None = None
        self._hit: np.ndarray | None = None

    # -- validation --------------------------------------------------------

    def _validate(self, points, weights) -> tuple[np.ndarray, np.ndarray]:
        engine = self._engine
        n = len(points)
        pts = np.asarray(points, dtype=np.intp)
        if pts.ndim != 2 or pts.shape[1] != self._ndim:
            raise QueryError(
                f"points must be an (n, {self._ndim}) array of cube "
                f"coordinates, got shape {tuple(pts.shape)}"
            )
        bounds = np.asarray(engine.original_shape, dtype=np.intp)
        bad = np.nonzero((pts < 0) | (pts >= bounds))
        if bad[0].size:
            i, axis = int(bad[0][0]), int(bad[1][0])
            raise QueryError(
                f"point {i}, dimension {axis}: value {int(pts[i, axis])} "
                f"outside domain [0, {int(bounds[axis])})"
            )
        if weights is None:
            w = np.ones(n)
        elif np.isscalar(weights):
            w = np.full(n, float(weights))
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (n,):
                raise QueryError(f"{w.size} weights for {n} points")
        return pts, w

    def _delta_of(self, point: tuple[int, ...]) -> tuple:
        """Memoized placed impulse transform of one point
        (``W(e_point)``): ``(positions, values, block_codes)``."""
        memo = self._delta_memo
        delta = memo.get(point)
        if delta is not None:
            memo.move_to_end(point)
            return delta
        engine = self._engine
        allocation = engine.store.allocation
        values, codes, slots = engine.query_located(
            RangeSumQuery(ranges=tuple((p, p) for p in point))
        )
        delta = (allocation.offsets[codes] + slots, values,
                 allocation.distinct(codes))
        memo[point] = delta
        self._memo_held += len(values)
        while self._memo_held > _MEMO_COEFFICIENTS:
            self._memo_held -= len(memo.popitem(last=False)[1][1])
        return delta

    # -- the batch append kernel -------------------------------------------

    def insert_batch(self, points, weights=None) -> int:
        """Append many tuples to the cube as one group-committed batch.

        Args:
            points: Sequence of attribute-value tuples (original
                domain), or an ``(n, ndim)`` integer array.
            weights: Per-point count increments — a sequence of length
                ``n``, a scalar broadcast to every point, or ``None``
                for 1.0 each.  Negative weights delete.

        Returns:
            The number of distinct stored coefficients touched.

        The stored coefficients afterwards are bitwise-identical to the
        state N sequential
        :meth:`~repro.query.propolyne.ProPolyneEngine.insert` calls (in
        the same order, with the same weights) would leave.
        """
        if len(points) == 0:
            return 0
        pts, w = self._validate(points, weights)
        with span("query.insert_batch"):
            obs_counter("query.insert.batches").inc()
            obs_counter("query.inserts").inc(len(pts))
            obs_histogram(
                "query.insert.batch_size", DEFAULT_COUNT_BUCKETS
            ).observe(len(pts))
            with self._engine._update_lock:
                return self._apply(pts, w)

    def _apply(self, pts: np.ndarray, w: np.ndarray) -> int:
        engine = self._engine
        store = engine.store
        allocation = store.allocation
        offsets = allocation.offsets
        points = list(map(tuple, pts.tolist()))
        deltas = {point: self._delta_of(point) for point in points}
        # 1. The touched-block union (a presence table over the points'
        #    block codes, no sort) in one coalesced read, each pre-image
        #    copied into its range of the scratch.
        block_codes = allocation.distinct(
            np.concatenate([delta[2] for delta in deltas.values()])
        )
        obs_histogram(
            "query.insert.blocks_touched", DEFAULT_COUNT_BUCKETS
        ).observe(len(block_codes))
        preimages = store.read_many(block_codes)
        allocation.check_lens(preimages.codes, preimages.lens)
        scratch = self._scratch
        if scratch is None:
            size = math.prod(allocation.shape)
            scratch = self._scratch = np.empty(size)
            self._hit = np.zeros(size, dtype=bool)
        starts = offsets[preimages.codes]
        for start, payload in zip(starts.tolist(), preimages.payloads):
            scratch[start:start + len(payload)] = payload

        # 2. Accumulate on the scratch itself, point by point: np.add.at
        #    is unbuffered, so shared coefficients need no dedup (see
        #    the module docstring).  A point's arrays stay cache-sized;
        #    stacking the batch first would cost more in page faults on
        #    its multi-megabyte temporaries than the arithmetic does.
        for point, weight in zip(points, w.tolist()):
            positions, values, _ = deltas[point]
            np.add.at(scratch, positions,
                      values if weight == 1.0 else values * weight)
        # Block by block in code order, whatever the read's group order.
        # The parts are writable views of the scratch, so the device
        # copy-freezes each (``frozen_payload``): no stored block aliases
        # what the next commit overwrites.
        lo = offsets[block_codes]
        hi = lo + allocation.block_len(block_codes)
        payloads = dict(zip(
            block_codes.tolist(),
            (scratch[a:b] for a, b in zip(lo.tolist(), hi.tolist())),
        ))

        # 3. One group commit for the whole batch's dirty blocks.
        store.store_blocks(payloads)

        # 4. Norm bookkeeping, once per batch, by population's formula:
        #    each block's dot with itself, read off its scratch range.
        prior_norms = {
            code: engine._block_norms.get(code, 0.0) for code in payloads
        }
        engine._block_norms.update(zip(
            preimages.codes.tolist(),
            np.sqrt(sum_squares(scratch, starts, preimages.lens)).tolist(),
        ))
        if engine._epoch_log is not None:
            # The commit is durable (store_blocks would have raised);
            # the epoch bump happens under the same update lock that
            # serialized the commit, so epoch numbers order commits.
            # Pre-images are the fetched payloads themselves (immutable,
            # so no copy): stored values, not arithmetic deltas, keep
            # as-of reconstruction bitwise-exact.
            engine._epoch_log.record_commit(
                dict(zip(preimages.codes.tolist(), preimages.payloads)),
                prior_norms, len(pts),
            )
        # Distinct coefficients touched: each distinct point's positions
        # marked once, then counted and cleared over the touched ranges.
        # Blocks adjacent in code order are adjacent in the layout, so
        # the ranges merge into far fewer runs than there are blocks.
        hit = self._hit
        for positions, _, _ in deltas.values():
            hit[positions] = True
        breaks = np.flatnonzero(lo[1:] != hi[:-1]) + 1
        firsts = np.concatenate(([0], breaks))
        lasts = np.concatenate((breaks, [len(lo)])) - 1
        touched = 0
        for a, b in zip(lo[firsts].tolist(), hi[lasts].tolist()):
            touched += int(np.count_nonzero(hit[a:b]))
            hit[a:b] = False
        return touched
