"""Hundred-scale live ingestion: sessions, group commits, back-pressure.

§1.2's motivating deployments are not one glove: they are classrooms
and tele-immersion floors with *hundreds* of concurrent sensor-rich
sessions feeding one frequency cube.  This module is that tier, built
on the two mechanisms underneath it:

* every commit is a **vectorized batch append**
  (:class:`~repro.query.ingest.BatchInserter`), so N queued samples
  cost one coalesced read and one group-commit write per touched-block
  union, not N read-modify-writes;
* overload **degrades fidelity instead of dropping data**: a
  :class:`BandwidthCoordinator` watches the shared commit queue and,
  under sustained pressure, caps every registered sampler's recording
  rate (:meth:`StreamingAdaptiveSampler.set_max_rate_hz
  <repro.acquisition.streaming.StreamingAdaptiveSampler.set_max_rate_hz>`)
  — the paper's "level of activity" knob, pulled globally — then
  restores the rates step by step once the queue drains.

The flow: each :class:`IngestSession` runs its own causal sampler,
maps recorded samples to cube points, and submits them to the
service's bounded commit queue (``put`` blocks when full — back-
pressure reaches the producer, nothing is silently discarded).  One
committer thread drains the queue into group commits of up to
``commit_batch`` points.  Write-fault resilience belongs to the device
stack (a retry policy in the engine's
:class:`~repro.storage.device.StorageSpec` re-drives idempotent block
overwrites); a commit that still fails is kept, with its points, in
:attr:`IngestService.failed_batches` — never double-applied, never
silently dropped.

Metrics (the ``ingest.*`` family in DESIGN.md's catalogue):
``ingest.sessions`` / ``ingest.queue_depth`` / ``ingest.rate_scale``
gauges, ``ingest.commits`` / ``ingest.committed_points`` /
``ingest.commit_failures`` / ``ingest.degraded_rate_seconds``
counters, and the ``ingest.commit_batch_size`` histogram.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field

from repro.core import clock
from repro.core.errors import StreamError
from repro.lint.lockwatch import watched_lock
from repro.obs import DEFAULT_COUNT_BUCKETS
from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.obs import histogram as obs_histogram
from repro.obs import span

__all__ = ["BandwidthCoordinator", "IngestService", "IngestSession"]

#: What ``IngestService.stop`` queues: it wakes the committer out of its
#: idle ``poll_seconds`` wait, and the committer — which cannot leave
#: without consuming it — then exits once the queue is empty.
_STOP = object()


@dataclass
class BandwidthCoordinator:
    """Global degrade-don't-drop controller over every live sampler.

    The committer loop reports queue fullness through :meth:`observe`.
    Fullness above :attr:`high_watermark` for :attr:`sustain_ticks`
    consecutive observations means the consumer is persistently behind
    the producers, so the coordinator multiplies its rate scale by
    :attr:`degrade_factor` (never below :attr:`min_scale`) and caps
    every registered sampler at ``scale * sampler.rate_hz``.  Fullness
    below :attr:`low_watermark` undoes one degradation step per
    observation; at scale 1.0 the caps are lifted entirely and
    activity-driven rates return.

    Time spent at any degraded scale accumulates into the
    ``ingest.degraded_rate_seconds`` counter — the acceptance signal
    that overload was absorbed by fidelity, not by data loss.

    Attributes:
        high_watermark: Queue-fullness fraction that counts as pressure.
        low_watermark: Fullness below which rates step back up.
        sustain_ticks: Consecutive pressured observations before the
            first degradation (one spike must not halve every stream).
        degrade_factor: Per-step rate multiplier in ``(0, 1)``.
        min_scale: Floor on the cumulative scale (degrade, don't mute).
    """

    high_watermark: float = 0.75
    low_watermark: float = 0.25
    sustain_ticks: int = 3
    degrade_factor: float = 0.5
    min_scale: float = 0.125
    #: Current cumulative rate scale in ``[min_scale, 1.0]``.
    scale: float = field(default=1.0, init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.low_watermark < self.high_watermark <= 1.0:
            raise StreamError(
                f"watermarks must satisfy 0 <= low < high <= 1, got "
                f"low={self.low_watermark} high={self.high_watermark}"
            )
        if not 0.0 < self.degrade_factor < 1.0:
            raise StreamError(
                f"degrade_factor must be in (0, 1), got "
                f"{self.degrade_factor}"
            )
        if not 0.0 < self.min_scale <= 1.0:
            raise StreamError(
                f"min_scale must be in (0, 1], got {self.min_scale}"
            )
        if self.sustain_ticks < 1:
            raise StreamError(
                f"sustain_ticks must be >= 1, got {self.sustain_ticks}"
            )
        self._lock = watched_lock("streams.coordinator")
        self._samplers: list = []
        self._pressured = 0
        self._degraded_since: float | None = None

    def register(self, sampler) -> None:
        """Put a sampler under coordination (applies the current cap)."""
        with self._lock:
            self._samplers.append(sampler)
            scale = self.scale
        if scale < 1.0:
            sampler.set_max_rate_hz(scale * sampler.rate_hz)

    def unregister(self, sampler) -> None:
        """Release a sampler (its cap is lifted on the way out)."""
        with self._lock:
            if sampler in self._samplers:
                self._samplers.remove(sampler)
        sampler.set_max_rate_hz(None)

    def _apply(self, scale: float, samplers: list) -> None:
        obs_gauge("ingest.rate_scale").set(scale)
        for sampler in samplers:
            sampler.set_max_rate_hz(
                None if scale >= 1.0 else scale * sampler.rate_hz
            )

    def _credit_degraded_time(self, now: float) -> None:
        # Called under the lock.  Accrues the clock's time spent degraded.
        if self._degraded_since is not None:
            obs_counter("ingest.degraded_rate_seconds").inc(
                now - self._degraded_since
            )
            self._degraded_since = now

    def observe(self, fullness: float) -> float:
        """Feed one queue-fullness reading; returns the current scale.

        Args:
            fullness: Commit-queue occupancy as a fraction of capacity.
        """
        now = clock.now()
        with self._lock:
            self._credit_degraded_time(now)
            if fullness >= self.high_watermark:
                self._pressured += 1
                if (
                    self._pressured >= self.sustain_ticks
                    and self.scale > self.min_scale
                ):
                    self.scale = max(
                        self.min_scale, self.scale * self.degrade_factor
                    )
                    self._pressured = 0
                    if self._degraded_since is None:
                        self._degraded_since = now
                    obs_counter("ingest.degradations").inc()
                    self._apply(self.scale, list(self._samplers))
            elif fullness <= self.low_watermark:
                self._pressured = 0
                if self.scale < 1.0:
                    self.scale = min(1.0, self.scale / self.degrade_factor)
                    if self.scale >= 1.0:
                        self._degraded_since = None
                    obs_counter("ingest.restorations").inc()
                    self._apply(self.scale, list(self._samplers))
            else:
                self._pressured = 0
            return self.scale

    @property
    def degraded(self) -> bool:
        """Whether any rate cap is currently in force."""
        with self._lock:
            return self.scale < 1.0


class IngestSession:
    """One live acquisition session feeding the shared ingest service.

    Ticks its own causal sampler, maps every recorded
    :class:`~repro.streams.sample.Sample` to a cube point, and submits
    the points to the service's commit queue (blocking there under
    back-pressure, which is how pressure reaches this producer).

    Args:
        service: The owning :class:`IngestService`.
        session_id: Stable identifier (used in errors and stats).
        sampler: A causal sampler with ``push(values) -> list[Sample]``
            (e.g. :class:`~repro.acquisition.streaming.StreamingAdaptiveSampler`).
        to_point: Maps one recorded sample to a cube point tuple.
        weight_of: Optional map from sample to insert weight
            (default 1.0 per recorded sample).
    """

    def __init__(
        self, service: "IngestService", session_id: str, sampler,
        to_point, weight_of=None,
    ) -> None:
        self.service = service
        self.session_id = session_id
        self.sampler = sampler
        self._to_point = to_point
        self._weight_of = weight_of
        self.submitted = 0
        self.closed = False

    def push(self, values) -> int:
        """Feed one device tick; returns how many points were enqueued."""
        if self.closed:
            raise StreamError(
                f"session {self.session_id!r} is closed"
            )
        samples = self.sampler.push(values)
        points = [self._to_point(sample) for sample in samples]
        weights = [
            1.0 if self._weight_of is None else self._weight_of(sample)
            for sample in samples
        ]
        # Record before submitting: the log captures what the sampler
        # decided (including the current rate cap), independent of how
        # long the bounded queue back-pressures the submits below.
        recorder = self.service.recorder
        if recorder is not None:
            recorder.on_push(
                self.session_id, self.sampler, samples, points, weights
            )
        self.service.submit_many(points, weights)
        self.submitted += len(samples)
        return len(samples)

    def close(self) -> None:
        """Detach from the service (idempotent)."""
        if not self.closed:
            self.closed = True
            self.service._release(self)


class IngestService:
    """Shared multi-session ingest front end over one ProPolyne engine.

    Hundreds of :class:`IngestSession` producers feed one bounded
    commit queue; a single committer thread drains it into vectorized
    group commits (:class:`~repro.query.ingest.BatchInserter`), and a
    :class:`BandwidthCoordinator` turns sustained queue pressure into
    global sampler-rate caps instead of sample loss.

    Args:
        engine: The target :class:`~repro.query.propolyne.ProPolyneEngine`.
        queue_capacity: Commit-queue bound in points; ``submit`` blocks
            when full (back-pressure, not drops).
        commit_batch: Maximum points folded into one group commit.
        coordinator: Optional :class:`BandwidthCoordinator`; ``None``
            disables adaptation (queue pressure then only blocks).
        poll_seconds: Committer wait for the first point of a batch.
        recorder: Optional
            :class:`~repro.streams.replay.SessionRecorder`; when set,
            every session's points, weights, timestamps and sampler
            rate changes are logged into a replayable
            :class:`~repro.streams.replay.SessionRecord`.
    """

    def __init__(
        self, engine, queue_capacity: int = 4096, commit_batch: int = 256,
        coordinator: BandwidthCoordinator | None = None,
        poll_seconds: float = 0.02,
        recorder=None,
    ) -> None:
        if queue_capacity < 1:
            raise StreamError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if commit_batch < 1:
            raise StreamError(
                f"commit_batch must be >= 1, got {commit_batch}"
            )
        self.engine = engine
        self.coordinator = coordinator
        self.recorder = recorder
        self.commit_batch = commit_batch
        self.poll_seconds = poll_seconds
        self.queue_capacity = queue_capacity
        self._queue: queue.Queue = queue.Queue(maxsize=queue_capacity)
        self._sessions: dict[str, IngestSession] = {}
        self._lock = watched_lock("streams.ingest")
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: Commits the device stack could not complete even after its
        #: own retries, kept with their points: inspectable, re-playable
        #: by an operator, never double-applied or silently dropped.
        self.failed_batches: list[tuple[list, list]] = []
        self.committed_points = 0
        self.commits = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "IngestService":
        """Launch the committer thread (idempotent)."""
        with self._lock:
            if self._thread is None:
                self._stop.clear()
                self._thread = threading.Thread(
                    target=self._run, name="ingest-committer", daemon=True
                )
                self._thread.start()
        return self

    def stop(self) -> None:
        """Drain the queue, commit everything pending, stop the thread."""
        with self._lock:
            thread, self._thread = self._thread, None
        if thread is None:
            return
        self._queue.put(_STOP)
        thread.join()

    def __enter__(self) -> "IngestService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- producer side -----------------------------------------------------

    def open_session(
        self, session_id: str, sampler, to_point, weight_of=None
    ) -> IngestSession:
        """Register one producer session (its sampler joins the
        coordinator's control group).

        Args:
            session_id: Unique session identifier.
            sampler: Causal sampler with ``push``/``rate_hz``/
                ``set_max_rate_hz``.
            to_point: Sample-to-cube-point mapping.
            weight_of: Optional per-sample insert weight.
        """
        session = IngestSession(
            self, session_id, sampler, to_point, weight_of
        )
        with self._lock:
            if session_id in self._sessions:
                raise StreamError(
                    f"session {session_id!r} already open"
                )
            self._sessions[session_id] = session
            n = len(self._sessions)
        if self.coordinator is not None:
            self.coordinator.register(sampler)
        if self.recorder is not None:
            # The record's snapshot anchor: the engine's storage epoch
            # right now, before this session appends anything.
            self.recorder.begin(
                session_id, sampler,
                start_epoch=getattr(self.engine, "epoch", 0),
            )
        obs_gauge("ingest.sessions").set(n)
        return session

    def _release(self, session: IngestSession) -> None:
        with self._lock:
            self._sessions.pop(session.session_id, None)
            n = len(self._sessions)
        if self.coordinator is not None:
            self.coordinator.unregister(session.sampler)
        if self.recorder is not None:
            self.recorder.end(session.session_id)
        obs_gauge("ingest.sessions").set(n)

    @property
    def sessions(self) -> int:
        """Currently open producer sessions."""
        with self._lock:
            return len(self._sessions)

    def submit(self, point, weight: float = 1.0) -> None:
        """Enqueue one point for commit; blocks when the queue is full.

        Blocking is the back-pressure contract: a producer that outruns
        the committer waits (and, with a coordinator, gets its rate
        capped) — its samples are never discarded.
        """
        self.submit_many([point], [weight])

    def submit_many(self, points, weights) -> None:
        """Enqueue points in order, under :meth:`submit`'s blocking
        contract; the queue-depth gauge is set once for the call."""
        for item in zip(points, weights):
            self._queue.put(item)
        obs_gauge("ingest.queue_depth").set(self._queue.qsize())

    def flush(self) -> None:
        """Block until every point enqueued so far has been committed."""
        self._queue.join()

    @property
    def queue_depth(self) -> int:
        """Points currently waiting in the commit queue."""
        return self._queue.qsize()

    # -- committer side ----------------------------------------------------

    def _drain_batch(self) -> tuple[list, list]:
        """Up to ``commit_batch`` queued points (first get may block)."""
        points: list = []
        weights: list = []
        try:
            item = self._queue.get(timeout=self.poll_seconds)
            while True:
                if item is _STOP:
                    self._stop.set()
                    self._queue.task_done()
                else:
                    points.append(item[0])
                    weights.append(item[1])
                    if len(points) == self.commit_batch:
                        break
                item = self._queue.get_nowait()
        except queue.Empty:
            pass
        return points, weights

    def _commit(self, points: list, weights: list) -> None:
        with span("ingest.commit"):
            obs_histogram(
                "ingest.commit_batch_size", DEFAULT_COUNT_BUCKETS
            ).observe(len(points))
            try:
                self.engine.inserter.insert_batch(points, weights)
            except Exception:
                # The device stack already retried (its StorageSpec
                # owns resilience); a commit failing past that is kept,
                # not re-driven: insert_batch is a read-modify-write,
                # so re-applying after a partial write would double-
                # count.  Nothing is silently lost either way.
                obs_counter("ingest.commit_failures").inc()
                self.failed_batches.append((points, weights))
            else:
                obs_counter("ingest.commits").inc()
                obs_counter("ingest.committed_points").inc(len(points))
                self.commits += 1
                self.committed_points += len(points)
            finally:
                for _ in points:
                    self._queue.task_done()

    def _run(self) -> None:
        while True:
            points, weights = self._drain_batch()
            if points:
                self._commit(points, weights)
            obs_gauge("ingest.queue_depth").set(self._queue.qsize())
            if self.coordinator is not None:
                self.coordinator.observe(
                    self._queue.qsize() / self.queue_capacity
                )
            if self._stop.is_set() and self._queue.empty():
                return
