"""ProPolyne: progressive polynomial range-sum evaluation in the wavelet
domain (§3.3 of the AIMS paper, after Schmidt & Shahabi EDBT'02/PODS'02).

The pipeline:

1. **Population.**  The frequency cube is tensor-wavelet-transformed with a
   filter whose vanishing moments exceed the highest measure degree the
   database should support, and the coefficients are packed onto disk
   blocks by per-axis error-tree tiling (Cartesian-product allocation).
2. **Query translation.**  A polynomial range-sum is translated with the
   *lazy wavelet transform*, one dimension at a time, in polylogarithmic
   time; the multivariate query transform is the outer product of the
   per-dimension sparse vectors.
3. **Exact evaluation** is one sparse inner product against the stored
   coefficients — no inverse transform ever happens ("all computations are
   performed entirely in the wavelet domain").
4. **Progressive evaluation** consumes disk blocks in decreasing query
   importance; after every block the partial sum is reported together with
   a *guaranteed* error bound: per remaining block, Cauchy–Schwarz gives
   ``|missing contribution| <= ||q_block|| * ||data_block||``, and the
   per-block data norms are recorded at population time.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from repro.core import clock
from repro.core.errors import QueryError, StorageUnavailable
from repro.core.reduce import dot, total
from repro.lint.lockwatch import watched_lock
from repro.obs import DEFAULT_COUNT_BUCKETS
from repro.obs import counter as obs_counter
from repro.obs import histogram as obs_histogram
from repro.obs import span
from repro.query.rangesum import RangeSumQuery
from repro.storage.allocation import (
    TensorAllocation,
    index_tuples,
    product_keys,
    subtree_tiling_allocation,
)
from repro.storage.blockstore import TensorBlockStore
from repro.storage.disk import BlockGroup
from repro.wavelets.dwt import max_levels
from repro.wavelets.filters import get_filter
from repro.wavelets.lazy import lazy_range_query_transform
from repro.wavelets.tensor import tensor_wavedec

__all__ = [
    "ProgressiveEstimate",
    "ProPolyneEngine",
    "QueryOutcome",
    "pad_to_pow2",
    "sparse_inner_product",
    "translate_query",
]

#: Located axis parts one engine and its views hold (≈ 17 entries of four
#: 8-byte arrays each at the e2e shapes: ≈ 2 MB).  Evicting the least
#: recently used costs their re-translation and changes no bit.
_MEMO_PARTS = 1 << 12


def sparse_inner_product(entries: dict, stored) -> float:
    """The exact answer ``sum(q[i] * stored[i])`` from keyed operands.

    :func:`~repro.core.reduce.dot` over arrays laid out in ``entries``'
    iteration order: the reduction, and so the bits, of every exact path
    (DESIGN.md, "One reduction order").

    Args:
        entries: Sparse query transform (key -> query coefficient).
        stored: Mapping from the same keys to stored coefficients.
    """
    count = len(entries)
    qvals = np.fromiter(entries.values(), dtype=float, count=count)
    dvals = np.fromiter(
        (stored[idx] for idx in entries), dtype=float, count=count
    )
    return float(dot(qvals, dvals))


def _check_query(query: RangeSumQuery, padded_shape, filt) -> None:
    """The query-level checks of the translation step: arity, and a
    measure degree the filter's vanishing moments can carry."""
    if query.ndim != len(padded_shape):
        raise QueryError(
            f"query has {query.ndim} dimensions, cube has {len(padded_shape)}"
        )
    if query.max_degree >= filt.vanishing_moments:
        raise QueryError(
            f"measure degree {query.max_degree} needs a filter with more "
            f"than {filt.vanishing_moments} vanishing moments"
        )


def _translate_axis(axis, lo, hi, poly, original_shape, padded_shape, levels,
                    filt) -> tuple[np.ndarray, np.ndarray]:
    """The one per-axis translation step (§3.3): the lazy transform of
    ``[lo, hi]`` under ``poly`` on ``axis``, as coefficient index and
    value arrays."""
    if hi >= original_shape[axis]:
        raise QueryError(
            f"dimension {axis}: range [{lo}, {hi}] exceeds domain size "
            f"{original_shape[axis]}"
        )
    if levels[axis] == 0:
        # Axis too small for the cascade: stored in the standard basis
        # (§3.1.1's multi-bases rule), so the "transform" of the query
        # vector is the vector itself.
        idx = np.arange(lo, hi + 1, dtype=np.intp)
        vals = np.polynomial.polynomial.polyval(idx.astype(float), poly)
        nonzero = vals != 0.0
        return idx[nonzero], vals[nonzero]
    return lazy_range_query_transform(
        poly, lo, hi, padded_shape[axis], wavelet=filt, levels=levels[axis],
    ).arrays


def _outer(axis_values, out=None) -> np.ndarray:
    """The prefix-major outer product of per-axis values, the first
    axis's used as they are (bitwise ``ones(1) ⊗ v``): the last axis
    joins the product of the others in one broadcast step, written into
    ``out`` (flat, the product's length) when it is given."""
    *head, vals = axis_values
    if not head:
        if out is None:
            return vals
        out[:] = vals
        return out
    values = _outer(head)
    into = None if out is None else out.reshape(len(values), len(vals))
    return np.multiply(values[:, None], vals, out=into).ravel()


def translate_query(
    query: RangeSumQuery,
    original_shape: tuple[int, ...],
    padded_shape: tuple[int, ...],
    levels: tuple[int, ...],
    filt,
) -> tuple[np.ndarray, np.ndarray]:
    """Sparse multivariate wavelet transform of a range-sum query vector.

    The keyed form of the one translation routine (the lazy transform
    per dimension, their outer product, exact-zero products dropped),
    for the consumers that name coefficients (the data-approximation
    baseline).  Every evaluator answers it unkeyed, through the located
    kernel (:meth:`ProPolyneEngine.locate_batch`).

    Returns:
        ``(keys, values)``: the ``(N, ndim)`` coefficient multi-indices
        and their ``N`` query coefficients, prefix-major (the first
        axis's entries vary slowest).
    """
    _check_query(query, padded_shape, filt)
    if query.is_empty():
        return np.empty((0, query.ndim), dtype=np.intp), np.empty(0)
    indices, values = zip(*(
        _translate_axis(axis, lo, hi, poly, original_shape, padded_shape,
                        levels, filt)
        for axis, ((lo, hi), poly) in enumerate(zip(query.ranges, query.polys))
    ))
    # One mask at the end keeps what a mask after every axis would, in
    # the same order: a zero partial product stays zero.
    keys, values = product_keys(indices), _outer(values)
    keep = values != 0.0
    return (keys, values) if keep.all() else (keys[keep], values[keep])


def pad_to_pow2(cube: np.ndarray) -> np.ndarray:
    """Zero-pad every axis up to the next power of two.

    Padding a *frequency* cube with zeros changes no range-sum whose range
    lies in the original domain, and gives the cascade the dyadic sizes it
    wants.
    """
    data = np.asarray(cube, dtype=float)
    target = tuple(1 << max(1, (n - 1).bit_length()) for n in data.shape)
    if target == data.shape:
        return data.copy()
    out = np.zeros(target)
    out[tuple(slice(0, n) for n in data.shape)] = data
    return out


@dataclass(frozen=True)
class ProgressiveEstimate:
    """State of a progressive evaluation after one more block arrived.

    Attributes:
        estimate: Partial sum — the exact contribution of every
            coefficient fetched so far.
        error_bound: Guaranteed ceiling on ``|estimate - exact|``
            (per-block Cauchy–Schwarz).
        error_estimate: *Probabilistic* one-standard-deviation error
            forecast — §3.3.1's "accurate error estimates and confidence
            intervals without significant computational overhead".
            Modeling each unseen block's data energy as spread evenly over
            its coefficients with random signs, the missing contribution
            has variance ``sum_blocks ||q_B||^2 * ||d_B||^2 / |B|``; this
            field is its square root.  Typically far tighter than the
            guarantee (and occasionally exceeded — it is a forecast).
        blocks_read: Disk blocks fetched so far.
        coefficients_used: Query coefficients consumed so far.
    """

    estimate: float
    error_bound: float
    error_estimate: float
    blocks_read: int
    coefficients_used: int


@dataclass(frozen=True)
class QueryOutcome:
    """What a degradation-aware evaluation actually delivered.

    A degraded answer is never silent: ``degraded`` is explicit, the
    guaranteed ``error_bound`` is always finite, and ``reason`` names
    what cut the evaluation short.

    Attributes:
        value: The answer — exact when ``degraded`` is False, otherwise
            the best progressive estimate computed before the cutoff.
        degraded: True when the evaluation could not run to completion.
        error_bound: Guaranteed ceiling on ``|value - exact|`` (0.0 for
            an exact answer).
        error_estimate: Probabilistic one-sigma error forecast (0.0 for
            an exact answer).
        blocks_read: Disk blocks fetched before delivering.
        reason: ``None`` (exact), ``"deadline"`` (per-query deadline
            hit) or ``"storage_unavailable"`` (retries exhausted or a
            circuit breaker is open).
        blocks_skipped: Blocks whose shard/device was unavailable and
            whose error-bound mass therefore stays in ``error_bound``
            — on a sharded stack a single failed shard skips only its
            own blocks while surviving shards still answer.
        provenance: Optional structured audit record
            (:class:`~repro.query.explain.QueryProvenance`) attached by
            :func:`~repro.query.explain.attach_provenance` or the
            query service — which epoch answered, which blocks/shards
            were touched, breaker states, and the degradation story.
            ``None`` when no provenance was requested.
    """

    value: float
    degraded: bool
    error_bound: float
    error_estimate: float
    blocks_read: int
    reason: str | None = None
    blocks_skipped: int = 0
    provenance: object | None = None


class _Fold:
    """The one progressive fold (§3.3.1) over a CSR-stacked located batch.

    Query ``i`` owns entries ``offsets[i]:offsets[i + 1]``; ``schedule``
    is the batch's :class:`~repro.storage.scheduler.BlockSchedule`.
    :meth:`fetch` reads one scheduled block (a group of one, so each
    read fails on its own); :meth:`advance` folds the blocks read since
    its last call, in the order read, into per-query running vectors.
    ``estimate`` adds the :func:`~repro.core.reduce.dot` of the query's
    entries on the block; ``bound`` starts at ``total(masses)`` and
    ``variance`` (the forecast's) at ``total(mass² / size)``, and each
    read block's mass and term come off them in turn; ``reads`` and
    ``used`` count blocks and coefficients.  The engine's progressive
    and degradable evaluations are batches of one; the batch
    evaluator's only choose which block comes next.
    """

    def __init__(self, store, codes, slots, values, offsets, schedule):
        self.store, self.schedule = store, schedule
        self.codes, self.slots, self.values = codes, slots, values
        self.offsets = offsets
        #: ``(n_queries, n_blocks)``: each query's entries and bound mass
        #: on each block.
        self.counts, norms = schedule.per_query(offsets)
        self.masses = norms * schedule.data_norms
        self._terms = self.masses * self.masses / store.allocation.block_len(
            schedule.codes
        )
        n_queries = len(offsets) - 1
        self.estimate = [0.0] * n_queries
        self.bound = total(self.masses).tolist()
        self.variance = total(self._terms).tolist()
        self.reads, self.used = [0] * n_queries, [0] * n_queries
        # Each (block, query) cell's entry count, mass and term, at
        # ``block * n_queries + query``: a block's entries are stacked
        # query by query, so its cells' counts cut them into runs.
        self._cells = [
            cells.T.ravel().tolist()
            for cells in (self.counts, self.masses, self._terms)
        ]
        #: Per block: 0 not fetched, 1 read, 2 read failed.
        self.status = np.zeros(len(schedule), dtype=np.int8)
        self._read: list = []  # (position, group), in the order read
        self._codes = schedule.codes.tolist()
        self._folded = 0

    def fetch(self, at: int, skip_unavailable: bool = False) -> None:
        """Read the ``at``-th scheduled block; with ``skip_unavailable``,
        a :class:`~repro.core.errors.StorageUnavailable` read marks it
        failed, and its mass stays in every bound that has it."""
        try:
            self._read.append((at, self.store.read_many([self._codes[at]])))
        except StorageUnavailable:
            if not skip_unavailable:
                raise
            self.status[at] = 2
        else:
            self.status[at] = 1

    def advance(self) -> None:
        """Fold the blocks read since the last call, in the order read."""
        run = self._read[self._folded:]
        if not run:
            return
        self._folded = len(self._read)
        counts, masses, terms = self._cells
        estimate, bound, variance = self.estimate, self.bound, self.variance
        n_queries = len(estimate)
        for at, group in run:
            entries = self.schedule.entries(at)
            # ``pack`` checks the payload's length against the block's.
            found = self.store.allocation.pack(group)[0][self.slots[entries]]
            lo, cell = 0, at * n_queries
            for q in range(n_queries):
                count = counts[cell + q]
                if count:
                    hi = lo + count
                    estimate[q] += float(
                        dot(self.values[entries[lo:hi]], found[lo:hi])
                    )
                    bound[q] -= masses[cell + q]
                    variance[q] -= terms[cell + q]
                    self.reads[q] += 1
                    self.used[q] += count
                    lo = hi

    def state(self, q: int = 0) -> ProgressiveEstimate:
        """Query ``q``'s running state, its bound clamped at zero."""
        bound = max(0.0, self.bound[q])
        # The forecast can never legitimately exceed the hard guarantee;
        # clamping also absorbs accumulator float dust.
        forecast = min(math.sqrt(max(0.0, self.variance[q])), bound)
        return ProgressiveEstimate(
            self.estimate[q], bound, forecast, self.reads[q], self.used[q]
        )

    def degrade(self, deadline_s=None) -> list[QueryOutcome]:
        """Fetch the blocks in schedule order, skipping unavailable ones,
        until ``deadline_s`` has elapsed (checked between reads).  A
        query whose blocks all arrived gets the ``dot`` of the operands
        :meth:`ProPolyneEngine.evaluate_exact` reduces, so the same
        bits; any other, its folded state, degraded by ``"deadline"`` if
        a block it needs was never fetched, else by
        ``"storage_unavailable"``."""
        started = clock.now()
        for at in range(len(self.schedule)):
            if deadline_s is not None and clock.now() - started >= deadline_s:
                break
            self.fetch(at, skip_unavailable=True)
        touched = self.counts > 0
        lost = np.count_nonzero(touched & (self.status != 1), axis=1)
        skipped = np.count_nonzero(touched & (self.status == 2), axis=1)
        if lost.any():
            self.advance()
        buffer, base = self.store.allocation.pack(
            BlockGroup.join([group for _, group in self._read])
        )
        # Entries on blocks that never arrived point anywhere in the
        # buffer: only the queries that lost nothing are gathered.
        pos = base[self.codes] + self.slots
        cuts = self.offsets.tolist()
        outcomes = []
        for q, n_touched in enumerate(np.count_nonzero(touched, axis=1)):
            if not lost[q]:
                mine = slice(cuts[q], cuts[q + 1])
                value = float(dot(self.values[mine], buffer[pos[mine]]))
                outcomes.append(
                    QueryOutcome(value, False, 0.0, 0.0, int(n_touched))
                )
                continue
            state = self.state(q)
            reason = "deadline" if lost[q] > skipped[q] else "storage_unavailable"
            outcomes.append(QueryOutcome(
                state.estimate, True, state.error_bound,
                state.error_estimate, state.blocks_read, reason,
                int(skipped[q]),
            ))
        return outcomes


class ProPolyneEngine:
    """A populated ProPolyne data cube.

    Args:
        cube: Frequency/measure cube (any shape; axes are zero-padded to
            powers of two).
        max_degree: Highest measure-polynomial degree queries will use;
            the filter gets ``max_degree + 1`` vanishing moments so those
            queries transform sparsely.
        block_size: Per-axis virtual block size for the tiling allocation.
        storage: Declarative
            :class:`~repro.storage.device.StorageSpec` (shards, cache,
            faults, resilience, latency); the default is the bare
            metered disk.
    """

    def __init__(
        self,
        cube: np.ndarray,
        max_degree: int = 2,
        block_size: int = 7,
        storage=None,
    ) -> None:
        if max_degree < 0:
            raise QueryError(f"max_degree must be >= 0, got {max_degree}")
        self.original_shape = tuple(np.asarray(cube).shape)
        self.max_degree = max_degree
        self.block_size = block_size
        padded = pad_to_pow2(cube)
        self.shape = padded.shape
        self.filter = get_filter(f"db{max_degree + 1}")
        # Axes too small for the cascade stay in the standard basis
        # (cascade depth 0) — the paper's multi-bases rule for
        # low-cardinality dimensions like sensor ids.
        self.levels = tuple(max_levels(n, self.filter) for n in self.shape)
        if all(depth == 0 for depth in self.levels):
            raise QueryError(
                f"every axis of shape {self.shape} is too small for "
                f"filter {self.filter.name} ({self.filter.length} taps); "
                f"nothing would be wavelet-transformed"
            )
        coeffs = tensor_wavedec(padded, self.filter, levels=self.levels)
        allocation = TensorAllocation(
            axes=tuple(
                subtree_tiling_allocation(n, block_size) for n in self.shape
            )
        )
        self.store = TensorBlockStore(coeffs, allocation, storage=storage)
        self.breaker = self.store.breaker
        self._block_norms = self.store.block_norms
        # Serializes every mutation of stored coefficients and norm
        # bookkeeping: concurrent inserts used to race their per-block
        # read-modify-writes (lost updates); readers stay lock-free.
        self._update_lock = watched_lock("query.engine_update")
        # Built on first use by the ``inserter`` property.
        self._inserter = None
        # Opt-in epoch versioning (enable_versioning); None = live-only.
        self._epoch_log = None
        # Located axis parts, least recently used first (``_part``);
        # views (``copy.copy``) share the dict and its lock.
        self._parts: OrderedDict[tuple, tuple] = OrderedDict()
        self._parts_lock = watched_lock("query.engine_parts")

    # -- epoch versioning ----------------------------------------------------

    def enable_versioning(self, retain: int | None = None):
        """Turn on epoch-versioned storage for this engine (idempotent).

        From this call on, every committed batch append bumps the
        engine's :attr:`epoch` and records the touched blocks'
        pre-images in an :class:`~repro.storage.epochs.EpochLog`, so
        :meth:`as_of_view` / ``as_of=`` queries can reconstruct any
        retained past state bitwise-exactly.  The current state at the
        moment of this call becomes epoch 0.

        Args:
            retain: Keep at most this many most-recent epochs
                reconstructable (``None`` = unbounded; see the
                retention runbook in ``docs/OPERATIONS.md``).

        Returns:
            The engine's :class:`~repro.storage.epochs.EpochLog`.
        """
        from repro.storage.epochs import EpochLog

        with self._update_lock:
            if self._epoch_log is None:
                self._epoch_log = EpochLog(retain=retain)
        return self._epoch_log

    @property
    def epoch(self) -> int:
        """Current storage epoch (0 until versioning records a commit)."""
        log = self._epoch_log
        return 0 if log is None else log.current

    @property
    def epoch_log(self):
        """The engine's :class:`~repro.storage.epochs.EpochLog`, or
        ``None`` when versioning is disabled."""
        return self._epoch_log

    def as_of_view(self, epoch: int) -> "ProPolyneEngine":
        """A read-only engine view pinned to a past storage epoch.

        The view shares the live engine's translation machinery and
        falls through to live storage for blocks no later epoch
        touched; blocks with logged pre-images are served from the
        epoch log with zero device I/O.  Its ``_block_norms`` are
        reconstructed as of ``epoch``, so progressive error bounds are
        the bounds that held *then*.  Route updates to the live engine
        — the view refuses them.

        Args:
            epoch: Target epoch in ``[floor, current]`` (0 is the
                state when versioning was enabled).
        """
        import copy

        from repro.storage.epochs import AsOfStore

        if self._epoch_log is None:
            raise QueryError(
                "as-of queries need versioning: call "
                "engine.enable_versioning() before the writes you want "
                "to travel back over"
            )
        view = copy.copy(self)
        view.store = AsOfStore(self.store, self._epoch_log, epoch)
        view._block_norms = self._epoch_log.norms_as_of(
            epoch, self._block_norms
        )
        # Views are frozen history: no inserter, and no further as-of
        # hops (the log belongs to the live engine).
        view._inserter = None
        return view

    # -- query translation -------------------------------------------------

    def query_arrays(
        self, query: RangeSumQuery
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sparse multivariate wavelet transform of the query vector, as
        ``(keys, values)`` arrays (see :func:`translate_query`).

        Complexity: product of per-dimension sparse sizes, each
        ``O(filter_length * log n)``.
        """
        return translate_query(
            query, self.original_shape, self.shape, self.levels, self.filter
        )

    def query_entries(
        self, query: RangeSumQuery
    ) -> dict[tuple[int, ...], float]:
        """:meth:`query_arrays` as a ``{key tuple: coefficient}`` dict
        (same entries, same order)."""
        keys, values = self.query_arrays(query)
        return dict(zip(index_tuples(keys), values.tolist()))

    def _part(self, axis: int, lo: int, hi: int, poly) -> tuple:
        """``(values, (virtual blocks, slots, block lengths))`` of ``[lo,
        hi]`` under ``poly``: :meth:`_parts_of` of one key."""
        return self._parts_of([(axis, lo, hi, tuple(poly))])[0]

    def _parts_of(self, keys: list) -> list:
        """The part of each ``(axis, lo, hi, poly)`` key, in key order:
        translated and located once per engine, read-only.

        One memo visit: every key is looked up under one ``_parts_lock``
        acquisition, and ``query.parts.hits`` / ``misses`` move once per
        call (process-wide, so an engine and its views count into one
        pair; a key repeated in ``keys`` misses once and hits after).
        The misses are computed outside the lock (two workers may both
        compute one part, deterministically), then memoized."""
        with self._parts_lock:
            memo = self._parts
            parts = [memo.get(key) for key in keys]
            for key, part in zip(keys, parts):
                if part is not None:
                    memo.move_to_end(key)
        missing = dict.fromkeys(
            key for key, part in zip(keys, parts) if part is None
        )
        if len(missing) < len(keys):
            obs_counter("query.parts.hits").inc(len(keys) - len(missing))
        if not missing:
            return parts
        obs_counter("query.parts.misses").inc(len(missing))
        allocation = self.store.allocation
        for key in missing:
            axis, lo, hi, poly = key
            idx, vals = _translate_axis(axis, lo, hi, poly, self.original_shape,
                                        self.shape, self.levels, self.filter)
            located = allocation.locate_axis(axis, idx)
            for array in (vals, *located):
                array.setflags(write=False)
            missing[key] = (vals, located)
        with self._parts_lock:
            memo.update(missing)
            while len(memo) > _MEMO_PARTS:
                memo.popitem(last=False)
        return [missing[key] if part is None else part
                for key, part in zip(keys, parts)]

    def locate_batch(self, queries: list[RangeSumQuery]) -> tuple:
        """The located-translation kernel: each query's ``(values, codes,
        slots)`` — :meth:`query_arrays` with ``allocation.locate`` in
        place of its keys — CSR-stacked under one exact-zero mask that
        also fixes ``offsets``: query ``i`` owns entries
        ``offsets[i]:offsets[i + 1]``.

        All of the batch's axis parts come from one :meth:`_parts_of`.
        A query's entry count is the product of its parts' lengths, so
        the stack is allocated once, and each query's prefix-major outer
        combination (:func:`_outer`, ``allocation.combine``) is written
        straight into its own slice of it."""
        keys = []
        for query in queries:
            _check_query(query, self.shape, self.filter)
            if not query.is_empty():
                keys += zip(range(query.ndim), *zip(*query.ranges),
                            map(tuple, query.polys))
        parts = iter(self._parts_of(keys))
        # Each query's (axis values, axis locations), () when empty.
        grouped = [() if query.is_empty() else tuple(zip(*islice(parts, query.ndim)))
                   for query in queries]
        offsets = np.zeros(len(queries) + 1, dtype=np.intp)
        np.cumsum([math.prod(map(len, axes[0])) if axes else 0 for axes in grouped],
                  out=offsets[1:])
        size = int(offsets[-1])
        values = np.empty(size)
        codes = np.empty(size, dtype=np.intp)
        slots = np.empty(size, dtype=np.intp)
        combine = self.store.allocation.combine
        bounds = offsets.tolist()
        for axes, lo, hi in zip(grouped, bounds, bounds[1:]):
            if lo < hi:
                axis_values, located = axes
                _outer(axis_values, values[lo:hi])
                combine(located, (codes[lo:hi], slots[lo:hi]))
        keep = values != 0.0
        if keep.all():
            return values, codes, slots, offsets
        kept = np.concatenate(([0], np.cumsum(keep)))
        return values[keep], codes[keep], slots[keep], kept[offsets]

    def query_located(
        self, query: RangeSumQuery
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`query_arrays` with ``allocation.locate(keys)`` in place
        of the keys — ``(values, codes, slots)``, same entries, same
        order: :meth:`locate_batch` of a batch of one."""
        return self.locate_batch([query])[:3]

    def n_query_coefficients(self, query: RangeSumQuery) -> int:
        """Size of the sparse query transform (the E5 metric)."""
        return len(self.query_located(query)[0])

    # -- evaluation ---------------------------------------------------------

    def evaluate_exact(
        self, query: RangeSumQuery, as_of: int | None = None
    ) -> float:
        """Exact answer: one sparse inner product in the wavelet domain.

        Args:
            query: The range-sum to evaluate.
            as_of: Optional storage epoch to evaluate against
                (versioned engines only) — the answer is bitwise-equal
                to what :meth:`evaluate_exact` returned when that epoch
                was current, because the as-of view reconstructs the
                identical stored values and reduces through the same
                kernel in the same order.
        """
        if as_of is not None:
            obs_counter("epoch.as_of_queries").inc()
            return self.as_of_view(as_of).evaluate_exact(query)
        with span("query.exact"):
            obs_counter("query.exact.queries").inc()
            values, codes, slots = self.query_located(query)
            if not len(values):
                return 0.0
            # gather_located observes query.blocks_per_query — it knows
            # the block set, so the engine need not recompute it.
            return float(dot(values, self.store.gather_located(codes, slots)))

    def _fold(self, query: RangeSumQuery) -> _Fold:
        """``query`` as a batch of one — the batch evaluator's stack and
        schedule — counted as a progressive query unless its translation
        is empty."""
        from repro.query.batch import BatchEvaluator

        fold = _Fold(self.store, *BatchEvaluator(self)._schedule([query]))
        if len(fold.schedule):
            obs_counter("query.progressive.queries").inc()
            obs_histogram(
                "query.blocks_per_query", DEFAULT_COUNT_BUCKETS
            ).observe(len(fold.schedule))
        return fold

    def evaluate_progressive(
        self, query: RangeSumQuery
    ) -> Iterator[ProgressiveEstimate]:
        """Progressive evaluation: one estimate per fetched block.

        Blocks arrive in decreasing error-bound mass (ties in block-code
        order); each estimate's ``error_bound`` is the summed per-block
        Cauchy–Schwarz ceiling for everything not yet fetched — a
        guarantee, not a heuristic.
        """
        fold = self._fold(query)
        if not len(fold.schedule):
            yield fold.state()  # an empty range: exactly 0
        blocks = obs_counter("query.progressive.blocks")
        for at in range(len(fold.schedule)):
            blocks.inc()
            fold.fetch(at)
            fold.advance()
            yield fold.state()

    def evaluate_degradable(
        self,
        query: RangeSumQuery,
        deadline_s: float | None = None,
        as_of: int | None = None,
    ) -> QueryOutcome:
        """Exact evaluation that degrades instead of failing or stalling.

        Consumes blocks progressively (best-first, so an early cutoff
        keeps the most valuable I/O); when every block arrived, the
        answer is recomputed as the same inner product, in the same
        term order, as :meth:`evaluate_exact` — bitwise-identical to
        the plain exact path.  Two things cut the evaluation short,
        both producing an explicit degraded outcome rather than an
        exception or a silent wrong answer:

        * the per-query ``deadline_s`` elapses with blocks still
          unfetched (checked between block fetches — the evaluation
          never abandons a block mid-read);
        * storage becomes unavailable
          (:class:`~repro.core.errors.StorageUnavailable` from the
          retry/breaker stack) — the failed block is *skipped*, its
          error-bound mass is kept, and evaluation continues over
          whatever storage still answers.  On a sharded device stack
          each shard carries its own breaker, so one failed shard
          skips only its own blocks while the surviving shards'
          contributions are still summed exactly.

        Args:
            query: The range-sum to evaluate.
            deadline_s: Allowance on the installed clock, from this call.
            as_of: Optional storage epoch to evaluate against
                (versioned engines only) — logged blocks come from
                pre-images, live fallthrough blocks can still degrade,
                so a historical answer stays honest about outages.

        Returns:
            A :class:`QueryOutcome`; ``degraded`` outcomes carry the
            best estimate so far with a finite guaranteed error bound.
        """
        if as_of is not None:
            obs_counter("epoch.as_of_queries").inc()
            return self.as_of_view(as_of).evaluate_degradable(query, deadline_s)
        fold = self._fold(query)
        (outcome,) = fold.degrade(deadline_s)
        fetched = int(np.count_nonzero(fold.status))
        if fetched:
            obs_counter("query.progressive.blocks").inc(fetched)
        if outcome.degraded:
            obs_counter("query.degraded").inc()
            obs_counter(f"query.degraded.{outcome.reason}").inc()
        return outcome

    def to_coefficients(self) -> np.ndarray:
        """Dense coefficient cube read back from the block store.

        The serialization surface: together with ``original_shape``,
        ``max_degree`` and the block size this fully reconstructs the
        engine (used by the AIMS facade's save/load path).
        """
        cube = np.zeros(self.shape)
        block_keys = self.store.allocation.block_keys
        group = self.store.read_many(self.store.device.block_ids())
        for code, payload in zip(group.codes.tolist(), group.payloads):
            cube[tuple(block_keys(code).T)] = payload
        return cube

    # -- updates ------------------------------------------------------------

    def insert(self, point: tuple[int, ...], weight: float = 1.0) -> int:
        """Append one tuple to the frequency cube, in place, on disk.

        This is the append path §3.1.1 picks wavelets for: "the complexity
        of wavelet transformation for incremental update (append) is low".
        Adding ``weight`` at ``point`` perturbs the data vector by a scaled
        unit impulse, and by linearity the stored coefficients change by
        ``weight * W(e_point)`` — whose per-dimension transform is exactly
        the lazy transform of the width-one range ``[p, p]``, i.e.
        O(filter_length * log n) coefficients per dimension.

        Args:
            point: Attribute values of the new tuple (original domain).
            weight: Count increment (can be negative for deletion; a NaN
                or an infinity is refused with ``QueryError``).

        Returns:
            The number of stored coefficients touched: the point's delta
            length (its positions are distinct).
        """
        # A batch of one through the vectorized kernel: scalar and
        # batched appends share one code path (validation and the engine
        # update lock included), so they can never drift apart.
        point = tuple(int(p) for p in point)
        inserter = self.inserter
        inserter.commit([point], [float(weight)])
        with self._update_lock:
            return len(inserter._delta_of(point)[0])

    @property
    def inserter(self):
        """The engine's one :class:`~repro.query.ingest.BatchInserter`,
        built on first use; every append path (``insert``, the ingest
        service, replay) shares it and so its delta memo."""
        if self._inserter is None:
            from repro.query.ingest import BatchInserter

            self._inserter = BatchInserter(self)
        return self._inserter
