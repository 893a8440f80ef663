"""Session record and replay: immersidata sessions as durable artifacts.

The paper's framing is "store once, re-analyze many times" — a session
is not just rows in a cube, it is the *stream* that produced them:
points, weights, timestamps, and the fidelity decisions the system made
while recording (the
:class:`~repro.streams.ingest.BandwidthCoordinator`'s sampler-rate caps
under load).  This module persists that whole story and plays it back:

* :class:`SessionRecord` — the durable artifact: a snapshot header
  (session id, sampler rate, the storage epoch the session started at)
  plus an append-only event log.  Two event kinds: ``point`` (cube
  point + weight + sample timestamp) and ``rate_change`` (the sampler's
  cap changed — a degradation or restoration is part of the record,
  not lost context).  Framing is JSON-lines: one header line, one line
  per event (``repro.replay/v1``; spec in ``docs/REPLAY.md``).
* :class:`SessionRecorder` — hooks into
  :class:`~repro.streams.ingest.IngestService` /
  :class:`~repro.streams.ingest.IngestSession` (pass ``recorder=`` to
  the service) and builds one record per open session as traffic
  flows.
* :class:`SessionReplayer` — streams a record back out at a chosen
  speed (×0.5 / ×1 / ×N / as-fast-as-possible): through a paced event
  iterator (:meth:`SessionReplayer.events`, for recognizer-style
  consumers), directly into an engine
  (:meth:`SessionReplayer.replay_into`, batched appends), or through a
  live ingest service (:meth:`SessionReplayer.replay_through`).

**Fidelity contract.**  Replaying a record into an engine seeded with
the same starting coefficients leaves **bitwise-identical** stored
coefficients to the original run.  This leans on PR 7's invariant:
:meth:`~repro.query.ingest.BatchInserter.insert_batch` is
bitwise-identical to the same points applied sequentially *in the same
order*, regardless of how they were grouped into commits — so the
record only needs to preserve point order, not the original run's
commit boundaries.

Metrics (the ``replay.*`` family in DESIGN.md's catalogue):
``replay.recorded_sessions`` / ``replay.recorded_points`` /
``replay.rate_changes`` counters on the record side;
``replay.sessions`` / ``replay.points`` / ``replay.events`` counters
and the ``replay.speed`` gauge on the replay side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from repro.core import clock
from repro.core.errors import StreamError
from repro.lint.lockwatch import watched_lock
from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.obs import get_registry
from repro.obs import span

__all__ = [
    "REPLAY_SCHEMA",
    "ReplayEvent",
    "SessionRecord",
    "SessionRecorder",
    "SessionReplayer",
]

#: Version tag carried in every record's header line.
REPLAY_SCHEMA = "repro.replay/v1"


class ReplayEvent(NamedTuple):
    """One logged moment of a recorded session.

    A NamedTuple, not a dataclass: the recorder constructs one per
    recorded sample on the live push path (recorder cost: 21–27 % of
    the push path and 6–9 % of an ``ingest_cpu``-shaped round, time
    inside ``on_push``; not gated), which rules out frozen-dataclass
    construction costs.  Type normalization (numpy
    scalars → native int/float) happens at serialization time, off the
    hot path.

    Attributes:
        kind: ``"point"`` (a sample reached the ingest queue) or
            ``"rate_change"`` (the sampler's max-rate cap changed —
            coordinator degradations/restorations land here).
        t: Seconds since session start, on the *sampler's* clock
            (sample timestamps), so replay pacing reproduces the
            recorded cadence deterministically.
        point: Cube point tuple (``point`` events; else ``None``).
        weight: Insert weight (``point`` events; else ``None``).
        max_rate_hz: The new cap (``rate_change`` events; ``None``
            inside a ``rate_change`` means the cap was lifted).
    """

    kind: str
    t: float
    point: tuple | None = None
    weight: float | None = None
    max_rate_hz: float | None = None

    def to_dict(self) -> dict:
        """One JSON-lines log entry (numpy scalars normalized here)."""
        out: dict = {"kind": self.kind, "t": float(self.t)}
        if self.kind == "point":
            out["point"] = [int(p) for p in self.point]
            out["weight"] = float(self.weight)
        else:
            cap = self.max_rate_hz
            out["max_rate_hz"] = None if cap is None else float(cap)
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "ReplayEvent":
        """Parse one log entry back into an event."""
        kind = payload["kind"]
        if kind == "point":
            return cls(
                kind="point",
                t=float(payload["t"]),
                point=tuple(int(p) for p in payload["point"]),
                weight=float(payload["weight"]),
            )
        if kind == "rate_change":
            cap = payload.get("max_rate_hz")
            return cls(
                kind="rate_change",
                t=float(payload["t"]),
                max_rate_hz=None if cap is None else float(cap),
            )
        raise StreamError(f"unknown replay event kind {kind!r}")


@dataclass
class SessionRecord:
    """Snapshot header + append-only event log of one ingest session.

    Attributes:
        session_id: The session's stable identifier.
        rate_hz: The sampler's nominal recording rate at open.
        start_epoch: The engine's storage epoch when the session
            opened (0 on unversioned engines) — the as-of anchor for
            "what did the cube look like before this session".
        events: The ordered event log.
        closed: Whether the session was closed cleanly.
    """

    session_id: str
    rate_hz: float = 0.0
    start_epoch: int = 0
    events: list[ReplayEvent] = field(default_factory=list)
    closed: bool = False

    @property
    def points(self) -> int:
        """Point events in the log."""
        return sum(1 for e in self.events if e.kind == "point")

    @property
    def rate_changes(self) -> int:
        """Rate-change events in the log (degradations + restorations)."""
        return sum(1 for e in self.events if e.kind == "rate_change")

    @property
    def duration_s(self) -> float:
        """Recorded span on the sampler clock (0.0 for empty logs)."""
        return self.events[-1].t if self.events else 0.0

    def header(self) -> dict:
        """The snapshot header (the record's first JSON line)."""
        return {
            "schema": REPLAY_SCHEMA,
            "session_id": self.session_id,
            "rate_hz": self.rate_hz,
            "start_epoch": self.start_epoch,
            "events": len(self.events),
            "points": self.points,
            "closed": self.closed,
        }

    def to_json(self) -> str:
        """Full JSON-lines serialization (header + one line per event)."""
        lines = [json.dumps(self.header())]
        lines.extend(json.dumps(e.to_dict()) for e in self.events)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SessionRecord":
        """Parse a JSON-lines record (the inverse of :meth:`to_json`)."""
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise StreamError("empty session record")
        header = json.loads(lines[0])
        if header.get("schema") != REPLAY_SCHEMA:
            raise StreamError(
                f"unsupported record schema {header.get('schema')!r} "
                f"(expected {REPLAY_SCHEMA})"
            )
        record = cls(
            session_id=str(header["session_id"]),
            rate_hz=float(header.get("rate_hz", 0.0)),
            start_epoch=int(header.get("start_epoch", 0)),
            closed=bool(header.get("closed", False)),
        )
        record.events = [
            ReplayEvent.from_dict(json.loads(line)) for line in lines[1:]
        ]
        return record

    def save(self, path) -> Path:
        """Write the record to ``path`` (JSON lines); returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json())
        return target

    @classmethod
    def load(cls, path) -> "SessionRecord":
        """Read a record previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())


class SessionRecorder:
    """Builds one :class:`SessionRecord` per live ingest session.

    Pass an instance as ``recorder=`` to
    :class:`~repro.streams.ingest.IngestService`; the service calls
    :meth:`begin` / :meth:`on_push` / :meth:`end` as sessions open,
    push and close.  Rate caps are observed on every push (the
    sampler's current ``max_rate_hz``), so a
    :class:`~repro.streams.ingest.BandwidthCoordinator` degradation
    lands in the log as a ``rate_change`` event the moment the capped
    session next pushes.

    Records for closed sessions stay retrievable via :meth:`record`
    until :meth:`pop` removes them.
    """

    def __init__(self) -> None:
        self._records: dict[str, SessionRecord] = {}
        self._last_caps: dict[str, float | None] = {}
        self._last_t: dict[str, float] = {}
        self._lock = watched_lock("streams.recorder")
        # Hot-path counter cache, keyed on the active registry so
        # use_registry() swaps are honoured (the per-push name lookup
        # is measurable in the recorder's share of a push).
        self._counter_registry = None
        self._points_counter = None

    def begin(self, session_id: str, sampler, start_epoch: int = 0) -> None:
        """Open a record for one session (called at ``open_session``)."""
        with self._lock:
            if session_id in self._records and not (
                self._records[session_id].closed
            ):
                raise StreamError(
                    f"session {session_id!r} is already being recorded"
                )
            self._records[session_id] = SessionRecord(
                session_id=session_id,
                rate_hz=float(getattr(sampler, "rate_hz", 0.0)),
                start_epoch=int(start_epoch),
            )
            self._last_caps[session_id] = getattr(
                sampler, "max_rate_hz", None
            )
            self._last_t[session_id] = 0.0
        obs_counter("replay.recorded_sessions").inc()

    def on_push(
        self, session_id: str, sampler, samples, points, weights
    ) -> None:
        """Log one session push: cap changes first, then its points.

        Args:
            session_id: The pushing session.
            sampler: Its sampler (the current rate cap is read here).
            samples: The recorded samples (timestamps pace the replay).
            points: Cube points, aligned with ``samples``.
            weights: Insert weights, aligned with ``samples``.
        """
        cap = getattr(sampler, "max_rate_hz", None)
        # Point events are built outside the lock: this runs on the
        # live push path, one event per point.  In 16 sessions pushing
        # the e2e benchmark's ticks (seed 2003, 2-CPU box, in process)
        # it is 21-27 % of the push path's time and 6-9 % of a round
        # with its flush; not gated.
        make = ReplayEvent
        events = [
            make("point", sample.timestamp, tuple(point), weight)
            for sample, point, weight in zip(samples, points, weights)
        ]
        with self._lock:
            record = self._records.get(session_id)
            if record is None or record.closed:
                return
            if cap != self._last_caps[session_id]:
                t = events[0].t if events else self._last_t[session_id]
                record.events.append(
                    ReplayEvent("rate_change", t, max_rate_hz=cap)
                )
                self._last_caps[session_id] = cap
                obs_counter("replay.rate_changes").inc()
            if events:
                record.events.extend(events)
                self._last_t[session_id] = events[-1].t
        if events:
            registry = get_registry()
            if registry is not self._counter_registry:
                self._counter_registry = registry
                self._points_counter = registry.counter(
                    "replay.recorded_points"
                )
            self._points_counter.inc(len(events))

    def end(self, session_id: str) -> None:
        """Close a session's record (called at session close)."""
        with self._lock:
            record = self._records.get(session_id)
            if record is not None:
                record.closed = True

    def record(self, session_id: str) -> SessionRecord:
        """The (live or closed) record of one session."""
        with self._lock:
            record = self._records.get(session_id)
        if record is None:
            raise StreamError(f"no record for session {session_id!r}")
        return record

    def pop(self, session_id: str) -> SessionRecord:
        """Remove and return one session's record (retention hygiene)."""
        record = self.record(session_id)
        with self._lock:
            self._records.pop(session_id, None)
            self._last_caps.pop(session_id, None)
            self._last_t.pop(session_id, None)
        return record

    def sessions(self) -> list[str]:
        """Session ids with a retained record, in insertion order."""
        with self._lock:
            return list(self._records)


class SessionReplayer:
    """Streams one :class:`SessionRecord` back out, at a chosen speed.

    Args:
        record: The session to replay.
        speed: Playback multiplier — ``1.0`` reproduces the recorded
            cadence, ``0.5`` half speed, ``2.0`` double, ``None``
            (default) as fast as possible (no sleeping at all).
    """

    def __init__(
        self, record: SessionRecord, speed: float | None = None
    ) -> None:
        if speed is not None and speed <= 0:
            raise StreamError(f"speed must be > 0 or None, got {speed}")
        self.record = record
        self.speed = speed

    def events(self):
        """Yield the record's events, paced to ``speed``.

        The pacing target for an event recorded at ``t`` is
        ``(t - t0) / speed`` seconds after iteration starts, on the
        installed clock; with ``speed=None`` events stream back-to-back.
        This is the recognizer-facing surface: feed the yielded
        ``point`` events to any consumer that wants to re-live the
        session.
        """
        obs_gauge("replay.speed").set(
            0.0 if self.speed is None else self.speed
        )
        events = self.record.events
        if not events:
            return
        t0 = events[0].t
        started = clock.now()
        for event in events:
            if self.speed is not None:
                target = (event.t - t0) / self.speed
                wait = target - (clock.now() - started)
                if wait > 0:
                    clock.sleep(wait)
            obs_counter("replay.events").inc()
            yield event

    def replay_into(self, engine, commit_batch: int = 256) -> int:
        """Re-apply the recorded points directly to an engine.

        Points are grouped into batches of up to ``commit_batch`` and
        applied through the engine's vectorized append path
        (:meth:`~repro.query.ingest.BatchInserter.insert_batch`) in
        recorded order — grouping is free to differ from the original
        run's commit boundaries because the batch kernel is
        order-preserving, so the stored coefficients come out
        **bitwise-identical** either way.

        Args:
            engine: Target :class:`~repro.query.propolyne.ProPolyneEngine`
                (seed it with the same starting state as the original
                run for fidelity).
            commit_batch: Max points per applied batch.

        Returns:
            Points applied.
        """
        if commit_batch < 1:
            raise StreamError(
                f"commit_batch must be >= 1, got {commit_batch}"
            )
        with span("replay.session"):
            obs_counter("replay.sessions").inc()
            inserter = engine.inserter
            points: list = []
            weights: list = []
            applied = 0

            def _flush() -> None:
                nonlocal applied
                if points:
                    inserter.insert_batch(points, weights)
                    applied += len(points)
                    obs_counter("replay.points").inc(len(points))
                    points.clear()
                    weights.clear()

            for event in self.events():
                if event.kind != "point":
                    continue
                points.append(event.point)
                weights.append(event.weight)
                if len(points) >= commit_batch:
                    _flush()
            _flush()
            return applied

    def replay_through(self, service) -> int:
        """Re-submit the recorded points through a live ingest service.

        The replayed traffic takes the full ingest path — bounded
        queue, group commits, back-pressure — so it exercises exactly
        what live sessions exercise; a replay into storage with a dead
        shard lands in ``service.failed_batches`` (kept, auditable)
        instead of vanishing.

        Args:
            service: A started
                :class:`~repro.streams.ingest.IngestService`.

        Returns:
            Points submitted.
        """
        with span("replay.session"):
            obs_counter("replay.sessions").inc()
            submitted = 0
            for event in self.events():
                if event.kind != "point":
                    continue
                service.submit(event.point, event.weight)
                submitted += 1
            obs_counter("replay.points").inc(submitted)
            return submitted
