"""Vectorized batch append: the write-side twin of the batch evaluator.

§3.1.1 picks wavelets because "the complexity of wavelet transformation
for incremental update (append) is low" — and immersidata is an
append-*heavy* workload: hundreds of live sensor streams feeding one
cube.  :meth:`ProPolyneEngine.insert` serves that workload one impulse
at a time: one query translation, one read-modify-write per touched
block, one norm rebuild per call.  :class:`BatchInserter` applies the
recipe that made batched reads fast (PR 6's
:class:`~repro.query.batch.BatchEvaluator`) to writes:

* **Stacked impulse transforms.**  Every point's impulse delta (the
  lazy transform of the width-one range ``[p, p]``, memoized per
  distinct point) is stacked CSR-style into one ``(total, ndim)`` key
  matrix and one scaled value vector — the same shape the batch
  evaluator stacks query transforms into.
* **Vectorized dedup and block assignment.**  Keys ravel to flat
  indices; ``np.unique`` reduces N points' overlapping supports to the
  distinct coefficient set, and the allocation's vectorized ``locate``
  assigns every coefficient its block and its slot in that block's
  payload array — a position in the packed buffer of touched payloads.
* **Order-preserving accumulation.**  ``np.add.at`` applies the stacked
  deltas onto the gathered current values *unbuffered, in point order*
  — the identical float-operation sequence N sequential ``insert``
  calls perform on each coefficient — which is what makes the stored
  result **bitwise-identical** to the sequential path, not merely
  close.  (A ``bincount``-style pre-summed delta map would change the
  association order and drift in the last ulp.)
* **One read-modify-write per touched block.**  The touched-block union
  is fetched once through the coalesced
  :meth:`~repro.storage.blockstore._StoreBase.fetch_blocks` path and
  committed once through the group-commit
  :meth:`~repro.storage.blockstore._StoreBase.store_blocks` path — one
  ``read_many`` and one ``write_many`` per batch instead of one RMW
  per (point, block) pair.

:meth:`ProPolyneEngine.insert` now routes through this kernel (a batch
of one), so the scalar and batched paths can never drift apart
numerically, and both hold the engine's update lock — fixing the
read-modify-write race two concurrent inserts used to have.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import QueryError
from repro.obs import DEFAULT_COUNT_BUCKETS
from repro.obs import counter as obs_counter
from repro.obs import histogram as obs_histogram
from repro.obs import span
from repro.query.propolyne import ProPolyneEngine, translate_query
from repro.query.rangesum import RangeSumQuery

__all__ = ["BatchInserter"]


class BatchInserter:
    """Vectorized multi-point append onto one ProPolyne engine.

    Block and slot assignment is the allocation's vectorized
    ``locate``.

    Metrics: ``query.insert.batches`` / ``query.inserts`` counters and
    the ``query.insert.batch_size`` / ``query.insert.blocks_touched``
    histograms.

    Args:
        engine: A populated :class:`~repro.query.propolyne.ProPolyneEngine`.
    """

    def __init__(self, engine: ProPolyneEngine) -> None:
        self._engine = engine
        self._ndim = len(engine.shape)
        # Per-point impulse translations repeat constantly in sensor
        # traffic (quantized readings revisit the same cells), so the
        # (keys, values) deltas are memoized per distinct point.
        self._delta_memo: dict[tuple[int, ...], tuple] = {}

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
                raise QueryError(
                    f"{w.size} weights for {n} points"
                )
        return pts, w

    def _delta_of(self, point: tuple[int, ...]) -> tuple:
        """Memoized impulse transform of one point (``W(e_point)``), as
        ``(keys, values)`` arrays."""
        delta = self._delta_memo.get(point)
        if delta is None:
            engine = self._engine
            impulse = RangeSumQuery(
                ranges=tuple((int(p), int(p)) for p in point)
            )
            delta = translate_query(
                impulse, engine.original_shape, engine.shape,
                engine.levels, engine.filter,
            )
            self._delta_memo[point] = delta
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
        # 1. Stack every point's impulse transform: one key matrix, one
        #    value vector scaled by the point's weight, in point order.
        per_point = [self._delta_of(tuple(int(p) for p in pt)) for pt in pts]
        counts = [len(values) for _, values in per_point]
        keys = np.concatenate([keys for keys, _ in per_point])
        values = np.concatenate([values for _, values in per_point])
        scaled = values * np.repeat(w, counts)

        # 2. Dedup: N points' overlapping supports collapse to the
        #    distinct coefficient set (uniq is sorted; inverse maps each
        #    stacked entry to its coefficient).
        uniq, inverse = np.unique(
            np.ravel_multi_index(tuple(keys.T), engine.shape),
            return_inverse=True,
        )

        # 3. Vectorized block-and-slot assignment of the distinct
        #    coefficients, then the touched-block union in one coalesced
        #    read, packed into one buffer.
        allocation = store.allocation
        codes, slots = allocation.locate(
            np.column_stack(np.unravel_index(uniq, engine.shape))
        )
        block_codes = np.unique(codes)
        block_ids = allocation.block_ids(block_codes)
        obs_histogram(
            "query.insert.blocks_touched", DEFAULT_COUNT_BUCKETS
        ).observe(len(block_ids))
        preimages = store.fetch_blocks(block_ids)
        buffer, base = allocation.pack(block_codes, preimages)
        pos = base[codes] + slots

        # 4. Gather current values, accumulate the stacked deltas with
        #    np.add.at — unbuffered, applied one entry at a time in
        #    point order, i.e. the exact float-op sequence sequential
        #    inserts perform on each coefficient — and scatter back.
        cur = buffer[pos]
        np.add.at(cur, inverse, scaled)
        buffer[pos] = cur
        payloads = dict(zip(
            block_ids, np.split(buffer, base[block_codes][1:])
        ))

        # 5. One group commit for the whole batch's dirty blocks.  The
        #    parts are writable views, so the device copy-freezes each:
        #    no stored block keeps this batch's whole buffer alive.
        store.store_blocks(payloads)

        # 6. Norm bookkeeping, once per batch (sequential insert pays
        #    this per call): touched block norms rebuilt from their new
        #    payloads, the store's global norm from the block norms.
        prior_norms = {
            bid: engine._block_norms.get(bid, 0.0) for bid in block_ids
        }
        for block_id, vals in payloads.items():
            engine._block_norms[block_id] = float(
                np.sqrt(np.sum(vals * vals))
            )
        store._norm = float(
            np.sqrt(
                sum(n * n for n in engine._block_norms.values())
            )
        )
        if engine._epoch_log is not None:
            # The commit is durable (store_blocks would have raised);
            # the epoch bump happens under the same update lock that
            # serialized the commit, so epoch numbers order commits.
            # Pre-images are the fetched payloads themselves (immutable,
            # so no copy): stored values, not arithmetic deltas, keep
            # as-of reconstruction bitwise-exact.
            engine._epoch_log.record_commit(preimages, prior_norms, len(pts))
        return len(pos)
