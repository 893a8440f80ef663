"""Double-buffered asynchronous acquisition, simulated.

§3.1 of the AIMS paper describes the authors' recording strategy: "a simple
multi-threaded double buffering approach — one thread answering the handler
call and copying sensor data into a region of system memory, a second
thread working asynchronously to process and store that data to disk."

This module reproduces that design as a discrete-event simulation (real
threads would add nondeterminism without adding fidelity: the paper's point
is about buffer sizing and loss, not OS scheduling).  The producer fills
the active buffer at the device rate; whenever a buffer fills, the roles
swap and the consumer drains the full buffer at its own throughput.  If the
consumer has not finished by the next swap, incoming frames are dropped —
the overload statistic the experiment reports.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.errors import StreamError
from repro.streams.sample import Frame

__all__ = ["DoubleBuffer", "AcquisitionStats"]


@dataclass
class AcquisitionStats:
    """Bookkeeping from one simulated acquisition run."""

    produced: int = 0
    stored: int = 0
    dropped: int = 0
    swaps: int = 0


@dataclass
class DoubleBuffer:
    """Simulated two-buffer asynchronous recorder.

    Args:
        capacity: Frames each buffer holds before a swap.
        drain_rate: Frames the storage thread can persist per produced
            frame (>= 1.0 means storage keeps up, < 1.0 models a slow
            disk).
    """

    capacity: int
    drain_rate: float = 2.0
    _active: list[Frame] = field(default_factory=list)
    _draining: list[Frame] = field(default_factory=list)
    _drain_credit: float = 0.0
    stats: AcquisitionStats = field(default_factory=AcquisitionStats)
    stored_frames: list[Frame] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise StreamError(f"buffer capacity must be positive, got {self.capacity}")
        if self.drain_rate <= 0:
            raise StreamError(f"drain rate must be positive, got {self.drain_rate}")

    def push(self, frame: Frame) -> None:
        """Producer side: called once per device tick."""
        self.stats.produced += 1
        # The storage thread gets drain_rate frames of progress per tick.
        self._drain_credit += self.drain_rate
        while self._draining and self._drain_credit >= 1.0:
            self.stored_frames.append(self._draining.pop(0))
            self.stats.stored += 1
            self._drain_credit -= 1.0

        if len(self._active) < self.capacity:
            self._active.append(frame)
            return
        # Active buffer full: swap if the drain buffer is empty, else drop.
        if self._draining:
            self.stats.dropped += 1
            return
        self._draining = self._active
        self._active = [frame]
        self._drain_credit = 0.0
        self.stats.swaps += 1

    def flush(self) -> None:
        """End of session: persist whatever remains in both buffers."""
        for frame in self._draining + self._active:
            self.stored_frames.append(frame)
            self.stats.stored += 1
        self._draining = []
        self._active = []

    def record(self, stream: Iterable[Frame]) -> AcquisitionStats:
        """Run a whole stream through the recorder and flush."""
        for frame in stream:
            self.push(frame)
        self.flush()
        return self.stats
