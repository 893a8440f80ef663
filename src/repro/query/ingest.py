"""Vectorized batch append: the write-side twin of the batch evaluator.

§3.1.1 picks wavelets because "the complexity of wavelet transformation
for incremental update (append) is low" — and immersidata is an
append-*heavy* workload: hundreds of live sensor streams feeding one
cube.  One impulse at a time, that costs one query translation, one
read-modify-write per touched block and one norm rebuild per point;
:class:`BatchInserter` applies the recipe that made batched reads fast
(:class:`~repro.query.batch.BatchEvaluator`) to writes:

* **Located once, at memo time.**  A point's impulse delta (the lazy
  transform of the width-one range ``[p, p]``) is memoized per distinct
  point *already located*: each coefficient's block code and slot in
  that block's payload array (the engine's ``query_located``, per
  axis; the allocation is fixed for the engine's life), its value, and
  the point's distinct block codes.  No key matrix is ever built.
* **One read-modify-write per touched block, found without a sort.**
  The touched blocks are a presence table over the block grid filled
  from the per-point block codes.  They are read once, as one group
  (:meth:`~repro.storage.blockstore.TensorReads.read_many`), packed
  back to back into one buffer where every delta entry has a position
  ``base[code] + slot``, and committed once
  (:meth:`~repro.storage.blockstore._StoreBase.store_blocks`) — one
  ``read_many`` and one ``write_many`` per batch instead of one RMW
  per (point, block) pair.
* **Order-preserving accumulation, straight into the buffer.**
  ``np.add.at(buffer, pos, scaled)``, point after point, applies the
  deltas *unbuffered, in point order* — on each coefficient the identical
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

from collections import OrderedDict

import numpy as np

from repro.core.errors import QueryError
from repro.obs import DEFAULT_COUNT_BUCKETS
from repro.obs import counter as obs_counter
from repro.obs import histogram as obs_histogram
from repro.obs import span
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery

__all__ = ["BatchInserter"]

#: Delta coefficients a memo may hold (three 8-byte arrays
#: each, so about 50 MB).  Beyond it the least recently used points are
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
        # located deltas are memoized per distinct point, least recently
        # used first.  Only touched under the engine's update lock.
        self._delta_memo: OrderedDict[tuple[int, ...], tuple] = OrderedDict()
        self._memo_held = 0

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
        """Memoized located impulse transform of one point
        (``W(e_point)``): ``(codes, slots, values, block_codes)``."""
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
        delta = codes, slots, values, allocation.distinct(codes)
        memo[point] = delta
        self._memo_held += len(values)
        while self._memo_held > _MEMO_COEFFICIENTS:
            self._memo_held -= len(memo.popitem(last=False)[1][2])
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
        # 1. The touched-block union (a presence table over the points'
        #    block codes, no sort) in one coalesced read, packed into
        #    one buffer.
        deltas = [self._delta_of(point) for point in map(tuple, pts.tolist())]
        block_codes = allocation.distinct(
            np.concatenate([delta[3] for delta in deltas])
        )
        obs_histogram(
            "query.insert.blocks_touched", DEFAULT_COUNT_BUCKETS
        ).observe(len(block_codes))
        preimages = store.read_many(block_codes)
        buffer, base = allocation.pack(preimages)
        buffer = buffer.copy()  # pack's buffer is read-only

        # 2. Accumulate on the buffer itself, point by point: np.add.at
        #    is unbuffered, so shared coefficients need no dedup (see
        #    the module docstring).  A point's arrays stay cache-sized;
        #    stacking the batch first would cost more in page faults on
        #    its multi-megabyte temporaries than the arithmetic does.
        hit = np.zeros(len(buffer), dtype=bool)
        for (codes, slots, values, _), weight in zip(deltas, w.tolist()):
            pos = base[codes] + slots
            np.add.at(buffer, pos, values * weight)
            hit[pos] = True
        # Block by block in code order, whatever the read's group order.
        codes = block_codes.tolist()
        starts = base[block_codes]
        ends = starts + allocation.block_len(block_codes)
        bounds = list(zip(starts.tolist(), ends.tolist()))
        payloads = dict(zip(codes, (buffer[a:b] for a, b in bounds)))

        # 3. One group commit for the whole batch's dirty blocks.  The
        #    parts are writable views, so the device copy-freezes each:
        #    no stored block keeps this batch's whole buffer alive.
        store.store_blocks(payloads)

        # 4. Norm bookkeeping, once per batch: touched block norms from
        #    one squaring of the buffer and a per-block sum (np.sum's
        #    pairwise reduction of the block's own squares; reduceat
        #    would re-associate), the global norm from the block norms.
        prior_norms = {
            code: engine._block_norms.get(code, 0.0) for code in codes
        }
        squares = buffer * buffer
        sums = [np.add.reduce(squares[a:b]) for a, b in bounds]
        engine._block_norms.update(zip(codes, np.sqrt(sums).tolist()))
        store._norm = float(
            np.sqrt(sum(n * n for n in engine._block_norms.values()))
        )
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
        return int(np.count_nonzero(hit))
