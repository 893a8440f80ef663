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
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.errors import QueryError, StorageUnavailable
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
from repro.storage.scheduler import schedule_blocks
from repro.wavelets.dwt import max_levels
from repro.wavelets.filters import get_filter
from repro.wavelets.lazy import cached_range_query_transform
from repro.wavelets.tensor import tensor_wavedec

__all__ = [
    "ProgressiveEstimate",
    "ProPolyneEngine",
    "QueryOutcome",
    "pad_to_pow2",
    "sparse_inner_product",
    "translate_query",
]


def sparse_inner_product(entries: dict, stored) -> float:
    """The one exact reduction kernel: ``sum(q[i] * stored[i])``.

    Every exact answer in the engine — plain, degradable, and the batch
    evaluator's vectorized path — reduces through this same
    ``np.dot`` over arrays laid out in ``entries``' iteration order.
    Float addition is not associative, so funneling all paths through
    one kernel (same operand order, same BLAS reduction) is what makes
    their answers *bitwise*-identical rather than merely close.

    Args:
        entries: Sparse query transform (key -> query coefficient).
        stored: Mapping from the same keys to stored coefficients.
    """
    count = len(entries)
    if count == 0:
        return 0.0
    qvals = np.fromiter(entries.values(), dtype=float, count=count)
    dvals = np.fromiter(
        (stored[idx] for idx in entries), dtype=float, count=count
    )
    return float(np.dot(qvals, dvals))


def _translate_axes(
    query: RangeSumQuery,
    original_shape: tuple[int, ...],
    padded_shape: tuple[int, ...],
    levels: tuple[int, ...],
    filt,
) -> tuple[list[np.ndarray], np.ndarray]:
    """The one per-axis translation step (§3.3): the lazy transform of
    each dimension, as the per-axis coefficient index arrays and the
    prefix-major outer product of the per-axis values.  Exact-zero
    products are still in it; masking them once, at the end, keeps what
    a mask after every axis would, in the same order — a zero partial
    product stays zero."""
    if query.ndim != len(padded_shape):
        raise QueryError(
            f"query has {query.ndim} dimensions, cube has {len(padded_shape)}"
        )
    if query.max_degree >= filt.vanishing_moments:
        raise QueryError(
            f"measure degree {query.max_degree} needs a filter with more "
            f"than {filt.vanishing_moments} vanishing moments"
        )
    if query.is_empty():
        return [np.empty(0, dtype=np.intp)] * query.ndim, np.empty(0)
    indices = []
    values = np.ones(1)
    for axis, ((lo, hi), poly) in enumerate(zip(query.ranges, query.polys)):
        if hi >= original_shape[axis]:
            raise QueryError(
                f"dimension {axis}: range [{lo}, {hi}] exceeds domain size "
                f"{original_shape[axis]}"
            )
        if levels[axis] == 0:
            # Axis too small for the cascade: stored in the standard
            # basis (§3.1.1's multi-bases rule), so the "transform" of
            # the query vector is the vector itself.
            idx = np.arange(lo, hi + 1, dtype=np.intp)
            vals = np.asarray(
                np.polynomial.polynomial.polyval(
                    idx.astype(float), np.asarray(poly)
                ),
                dtype=float,
            )
            nonzero = vals != 0.0
            idx, vals = idx[nonzero], vals[nonzero]
        else:
            # Memoized per-dimension transform: group-by / drill-down
            # workloads repeat dimension ranges constantly, and the memo
            # turns those repeats into a lookup of the cached vector's
            # (shared, read-only) index/value arrays.
            idx, vals = cached_range_query_transform(
                list(poly), lo, hi, padded_shape[axis],
                wavelet=filt, levels=levels[axis],
            ).arrays
        indices.append(idx)
        values = np.multiply.outer(values, vals).ravel()
    return indices, values


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
    baseline).  Every evaluator answers it unkeyed
    (:meth:`ProPolyneEngine.query_located`).

    Returns:
        ``(keys, values)``: the ``(N, ndim)`` coefficient multi-indices
        and their ``N`` query coefficients, prefix-major (the first
        axis's entries vary slowest).
    """
    indices, values = _translate_axes(
        query, original_shape, padded_shape, levels, filt
    )
    keys = product_keys(indices)
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

    def confidence_interval(self, z: float = 2.0) -> tuple[float, float]:
        """Forecast interval ``estimate ± z * error_estimate``, clipped to
        the guaranteed bound."""
        half = min(z * self.error_estimate, self.error_bound)
        return (self.estimate - half, self.estimate + half)


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

    def query_located(
        self, query: RangeSumQuery
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`query_arrays` with ``allocation.locate(keys)`` in place
        of the keys — ``(values, codes, slots)``, same entries, same
        order — located per axis (``locate_product``): no key is built."""
        indices, values = _translate_axes(
            query, self.original_shape, self.shape, self.levels, self.filter
        )
        codes, slots = self.store.allocation.locate_product(indices)
        keep = values != 0.0
        if keep.all():
            return values, codes, slots
        return values[keep], codes[keep], slots[keep]

    def n_query_coefficients(self, query: RangeSumQuery) -> int:
        """Size of the sparse query transform (the E5 metric)."""
        return len(self.query_arrays(query)[1])

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
            # Same np.dot, same operand order as sparse_inner_product.
            return float(np.dot(values, self.store.gather_located(codes, slots)))

    def _progressive_steps(
        self, values, codes, slots, skip_unavailable: bool = False,
    ) -> Iterator[tuple]:
        """The progressive evaluation loop over one located translation
        (:meth:`query_located`), one step per scheduled block.

        Yields ``(estimate, entries, found, remaining)`` tuples —
        ``entries`` indexes the block's coefficients in translation
        order and ``found`` is their stored values; the first yield is
        a zero-I/O priming step (``entries``/``found`` ``None``)
        carrying the total a-priori error bound, and ``remaining``
        counts the blocks still unprocessed after the step.  Both
        :meth:`evaluate_progressive` (which drops the priming step and
        the values) and :meth:`evaluate_degradable` (which needs the
        values for the exact final sum and the priming bound for
        zero-block degradation) consume this generator, so the two
        paths can never drift apart numerically.

        With ``skip_unavailable`` True, a block whose read raises
        :class:`~repro.core.errors.StorageUnavailable` is *skipped*
        instead of aborting the loop: its Cauchy–Schwarz mass stays in
        the running error bound, the step yields ``found`` ``None``
        (with ``entries`` set) as the skip marker, and evaluation
        continues — on a sharded device this is exactly per-shard
        degradation, since only the failed shard's blocks skip.
        """
        # Most valuable I/O first: a block's worth is the error-bound mass
        # it removes, ||q_block|| * ||data_block|| — query importance alone
        # would chase boundary details that the (smooth) data never stored
        # any energy in.
        schedule = schedule_blocks(
            values, codes, self.store.allocation, self._block_norms
        )
        masses = schedule.masses.tolist()
        # Forecast variance: unseen block's contribution modeled as
        # ||q_B||^2 * ||d_B||^2 / |B| (energy spread evenly, random signs).
        variances = [
            mass**2 / size for mass, size in zip(
                masses, self.store.allocation.block_len(schedule.codes).tolist()
            )
        ]
        remaining_bound = schedule.bound
        remaining_variance = float(np.cumsum(variances)[-1])
        estimate = 0.0
        used = 0
        reads = 0

        def state() -> ProgressiveEstimate:
            bound = max(0.0, remaining_bound)
            return ProgressiveEstimate(
                estimate=estimate,
                error_bound=bound,
                # The forecast can never legitimately exceed the hard
                # guarantee; clamping also absorbs accumulator float dust.
                error_estimate=min(
                    math.sqrt(max(0.0, remaining_variance)), bound
                ),
                blocks_read=reads,
                coefficients_used=used,
            )

        obs_counter("query.progressive.queries").inc()
        obs_histogram(
            "query.blocks_per_query", DEFAULT_COUNT_BUCKETS
        ).observe(len(schedule))
        yield state(), None, None, len(schedule)
        for step, code in enumerate(schedule.codes.tolist()):
            obs_counter("query.progressive.blocks").inc()
            entries = schedule.entries(step)
            try:
                found = self.store.block_values(code, slots[entries])
            except StorageUnavailable:
                if not skip_unavailable:
                    raise
                # Skip marker: the block's bound mass stays in the
                # running totals, since its contribution is unknown.
                found = None
            if found is not None:
                # Strictly left to right on every interpreter (builtin
                # ``sum`` is compensated from 3.12 on), so estimates
                # keep their bits.
                estimate += float(np.cumsum(values[entries] * found)[-1])
                used += len(entries)
                reads += 1
                remaining_bound -= masses[step]
                remaining_variance -= variances[step]
            yield state(), entries, found, len(schedule) - step - 1

    def evaluate_progressive(
        self, query: RangeSumQuery
    ) -> Iterator[ProgressiveEstimate]:
        """Progressive evaluation: one estimate per fetched block.

        Blocks arrive in decreasing error-bound mass (ties in block-code
        order); each estimate's ``error_bound`` is the summed per-block
        Cauchy–Schwarz ceiling for everything not yet fetched — a
        guarantee, not a heuristic.
        """
        located = self.query_located(query)
        if not len(located[0]):
            yield ProgressiveEstimate(0.0, 0.0, 0.0, 0, 0)
            return
        steps = self._progressive_steps(*located)
        next(steps)  # the zero-I/O priming step is not an estimate
        for est, _entries, _found, _remaining in steps:
            yield est

    def evaluate_degradable(
        self,
        query: RangeSumQuery,
        deadline_s: float | None = None,
        clock=time.monotonic,
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
            deadline_s: Wall-clock allowance, measured from this call.
            clock: Injectable monotonic clock (tests pin time).
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
            return self.as_of_view(as_of).evaluate_degradable(
                query, deadline_s=deadline_s, clock=clock,
            )
        values, codes, slots = self.query_located(query)
        if not len(values):
            return QueryOutcome(0.0, False, 0.0, 0.0, 0, None)
        started = clock()
        steps = self._progressive_steps(
            values, codes, slots, skip_unavailable=True
        )
        stored = np.empty(len(values))
        last: ProgressiveEstimate | None = None
        reason: str | None = None
        skipped = 0
        while True:
            try:
                est, entries, found, remaining = next(steps)
            except StopIteration:
                break
            except StorageUnavailable:
                # Defensive: per-block faults are skipped inside the
                # generator; this catches failures outside a fetch.
                reason = "storage_unavailable"
                break
            last = est
            if entries is not None:
                if found is None:
                    skipped += 1
                else:
                    stored[entries] = found
            if (
                reason is None
                and deadline_s is not None
                and remaining > 0
                and clock() - started >= deadline_s
            ):
                reason = "deadline"
                break
        if reason is None and skipped:
            reason = "storage_unavailable"
        if reason is None:
            # Same np.dot, same operands in the same order as
            # evaluate_exact: bitwise-identical value.
            value = float(np.dot(values, stored))
            return QueryOutcome(
                value, False, 0.0, 0.0,
                last.blocks_read if last is not None else 0, None,
            )
        # The priming step precedes any I/O, so a storage fault or
        # deadline can only fire with ``last`` populated.
        obs_counter("query.degraded").inc()
        obs_counter(f"query.degraded.{reason}").inc()
        return QueryOutcome(
            value=last.estimate,
            degraded=True,
            error_bound=last.error_bound,
            error_estimate=last.error_estimate,
            blocks_read=last.blocks_read,
            reason=reason,
            blocks_skipped=skipped,
        )

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
            weight: Count increment (can be negative for deletion).

        Returns:
            The number of stored coefficients touched.
        """
        # A batch of one through the vectorized kernel: scalar and
        # batched appends share one code path (validation and the engine
        # update lock included), so they can never drift apart.
        return self.inserter.insert_batch(
            [tuple(int(p) for p in point)], [float(weight)]
        )

    @property
    def inserter(self):
        """The engine's one :class:`~repro.query.ingest.BatchInserter`,
        built on first use; every append path (``insert``, the ingest
        service, replay) shares it and so its delta memo."""
        if self._inserter is None:
            from repro.query.ingest import BatchInserter

            self._inserter = BatchInserter(self)
        return self._inserter

    def evaluate_approximate(
        self, query: RangeSumQuery, block_budget: int
    ) -> ProgressiveEstimate:
        """Best estimate achievable within a block-I/O budget."""
        if block_budget < 1:
            raise QueryError(f"block budget must be >= 1, got {block_budget}")
        last = ProgressiveEstimate(0.0, float("inf"), float("inf"), 0, 0)
        for est in self.evaluate_progressive(query):
            last = est
            if est.blocks_read >= block_budget:
                break
        return last
