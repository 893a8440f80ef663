"""Runtime lock-order race detector: the dynamic half of ``repro.lint``.

The static rules bound what happens *inside* a critical section; this
module watches the *order* critical sections nest in.  Every lock
created through :func:`watched_lock` records, at acquisition time, an
ordering edge from each lock the acquiring thread already holds to the
lock being taken.  The edges accumulate in a process-wide
:class:`LockOrderGraph`; the first edge that closes a cycle — thread 1
takes A then B while thread 2 ever took B then A — is reported as a
:class:`LockOrderViolation` carrying *both* acquisition stacks, which
is exactly the evidence needed to fix a potential deadlock before it
ever manifests as one.

Cost model: the watcher is **opt-in**.  When ``REPRO_LOCKWATCH`` is not
``1``, :func:`watched_lock` returns a plain :class:`threading.Lock` —
the NullLock fast path, zero overhead, indistinguishable from
pre-watcher code.  When enabled, each acquisition while other locks are
held captures a stack and updates the graph; that is for stress tests,
the ``REPRO_LOCKWATCH=1`` suite run (whose session graph
``tests/conftest.py`` gates on) and debugging sessions, not production
serving.  A test that builds a deliberate cycle does so on a private
:class:`LockOrderGraph` (``InstrumentedLock(name, graph)``), never on
the process-wide one.

Notes on fidelity:

* Edges are keyed by lock *name* (one name per lock site, e.g.
  ``storage.caching``), so the graph speaks the architecture's
  vocabulary and two instances of the same layer share a node.
* Self-edges (``A -> A``) are ignored: per-shard instances of the same
  layer are siblings, not nesting hazards, and the stack's layering
  rule (never hold a lock across ``self.inner``) already forbids true
  same-layer nesting.
* Detection is ordering-based, not wait-for-based: the inversion is
  caught even when the two schedules never actually overlap, which is
  what makes it usable from deterministic tests.
"""

from __future__ import annotations

import os
import threading
import traceback
from dataclasses import dataclass, field

from repro.core.errors import AIMSError

__all__ = [
    "InstrumentedLock",
    "LockOrderError",
    "LockOrderGraph",
    "LockOrderViolation",
    "OrderingEdge",
    "assert_clean",
    "enabled",
    "global_graph",
    "violations",
    "watched_lock",
]

ENV_FLAG = "REPRO_LOCKWATCH"


class LockOrderError(AIMSError):
    """Raised by :func:`assert_clean` when ordering cycles were seen."""


def enabled() -> bool:
    """Whether new :func:`watched_lock` locks will be instrumented:
    ``REPRO_LOCKWATCH=1`` in the environment."""
    return os.environ.get(ENV_FLAG, "") == "1"


@dataclass(frozen=True)
class OrderingEdge:
    """``first`` was held while ``second`` was acquired, at ``stack``."""

    first: str
    second: str
    stack: tuple[str, ...]

    def format(self) -> str:
        """Render the edge with its captured acquisition stack."""
        lines = [f"  {self.first} -> {self.second}, acquired at:"]
        lines.extend("    " + ln.rstrip() for ln in self.stack)
        return "\n".join(lines)


@dataclass
class LockOrderViolation:
    """One ordering cycle, with the acquisition stack of every edge."""

    cycle: tuple[str, ...]
    edges: list[OrderingEdge] = field(default_factory=list)

    def format(self) -> str:
        """Render the cycle and every edge's acquisition stack."""
        header = " -> ".join(self.cycle + (self.cycle[0],))
        parts = [f"lock-order cycle: {header}"]
        parts.extend(edge.format() for edge in self.edges)
        return "\n".join(parts)


class LockOrderGraph:
    """A lock-ordering graph and its cycle detector (the process-wide
    one is :func:`global_graph`).

    ``record`` is called by instrumented locks with the names the
    acquiring thread already holds; each *new* edge is checked for a
    path back from the acquired lock to the held one, and a hit becomes
    a :class:`LockOrderViolation`.  The graph's own mutex is a plain
    leaf lock: nothing is acquired while it is held.
    """

    def __init__(self) -> None:
        self._graph_lock = threading.Lock()
        self._edges: dict[tuple[str, str], OrderingEdge] = {}
        self._adjacent: dict[str, set[str]] = {}
        self.violations: list[LockOrderViolation] = []

    def record(
        self, held: list[str], name: str, stack: tuple[str, ...]
    ) -> None:
        """Record edges ``held[i] -> name`` from one acquisition."""
        with self._graph_lock:
            for first in held:
                if first == name:
                    continue
                key = (first, name)
                if key in self._edges:
                    continue
                edge = OrderingEdge(first, name, stack)
                self._edges[key] = edge
                self._adjacent.setdefault(first, set()).add(name)
                path = self._path(name, first)
                if path is not None:
                    # path runs name -> ... -> first; the cycle node
                    # list keeps each lock once.
                    cycle = (first,) + tuple(path[:-1])
                    edges = [edge] + [
                        self._edges[(a, b)]
                        for a, b in zip(path, path[1:])
                        if (a, b) in self._edges
                    ]
                    self.violations.append(
                        LockOrderViolation(cycle=cycle, edges=edges)
                    )

    def _path(self, src: str, dst: str) -> list[str] | None:
        """A directed path ``src -> ... -> dst``, or ``None``."""
        stack = [(src, [src])]
        seen = {src}
        while stack:
            node, path = stack.pop()
            if node == dst:
                return path
            for nxt in self._adjacent.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None

    def edges(self) -> list[tuple[str, str]]:
        """Distinct ordering edges recorded so far, sorted."""
        with self._graph_lock:
            return sorted(self._edges)

    def assert_clean(self) -> None:
        """Raise :class:`LockOrderError` if any ordering cycle was seen."""
        found = list(self.violations)
        if found:
            report = "\n\n".join(v.format() for v in found)
            raise LockOrderError(
                f"{len(found)} lock-order violation(s) detected:\n{report}"
            )


class _HeldStack(threading.local):
    """Per-thread stack of instrumented-lock names currently held."""

    def __init__(self) -> None:
        self.names: list[str] = []


_held = _HeldStack()
_GLOBAL = LockOrderGraph()


class InstrumentedLock:
    """A lock wrapper that feeds the ordering graph.

    Context-manager drop-in for :class:`threading.Lock`.  Ordering
    edges are recorded *before* blocking on the underlying lock, so an
    inversion is captured even if the schedule then deadlocks for real.
    """

    __slots__ = ("name", "_graph", "_lock")

    def __init__(
        self, name: str, graph: LockOrderGraph | None = None
    ) -> None:
        self.name = name
        self._graph = graph if graph is not None else _GLOBAL
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the underlying lock, recording ordering edges."""
        if _held.names:
            # format_stack is only paid when the acquisition actually
            # nests inside other watched locks.
            stack = tuple(traceback.format_stack()[:-1])
            self._graph.record(list(_held.names), self.name, stack)
        # The wrapper IS the `with` implementation the rule points to.
        ok = self._lock.acquire(blocking, timeout)  # lint: ignore[lock-with-only, lock-no-blocking]
        if ok:
            _held.names.append(self.name)
        return ok

    def release(self) -> None:
        """Release the underlying lock and pop the held stack."""
        self._lock.release()  # lint: ignore[lock-with-only]
        names = _held.names
        for i in range(len(names) - 1, -1, -1):
            if names[i] == self.name:
                del names[i]
                break

    def locked(self) -> bool:
        """Whether the underlying lock is currently held."""
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"InstrumentedLock({self.name!r})"


def watched_lock(name: str) -> threading.Lock | InstrumentedLock:
    """A lock participating in lock-order watching when it is enabled.

    The decision is taken at creation time: with the watcher off
    (``REPRO_LOCKWATCH`` not ``1``), this returns a plain
    :class:`threading.Lock` — the NullLock fast path with zero
    steady-state overhead.  A test that wants watching sets the
    variable (``monkeypatch.setenv``) *before* constructing the
    components under test.

    Args:
        name: Stable lock-site name (e.g. ``"storage.caching"``); all
            instances created at one site share a graph node.
    """
    if not enabled():
        return threading.Lock()
    return InstrumentedLock(name, _GLOBAL)


def global_graph() -> LockOrderGraph:
    """The process-wide ordering graph."""
    return _GLOBAL


def violations() -> list[LockOrderViolation]:
    """Every ordering cycle the process-wide graph has observed."""
    return list(_GLOBAL.violations)


def assert_clean() -> None:
    """:meth:`LockOrderGraph.assert_clean` of the process-wide graph."""
    _GLOBAL.assert_clean()
