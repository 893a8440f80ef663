"""Per-shard replication: a primary plus N replicas behind one device.

:class:`ReplicatedDevice` is the failover rung of the degradation
ladder.  Before it, a shard whose breaker opened could only answer
*degradably* — the query layer skipped its blocks and widened the error
bound.  With replication the same outage heals to **bitwise-exact**
answers: every write lands on all members, so when the primary fails a
read, any in-sync replica holds the identical payload and the device
fails over (and promotes) instead of surfacing the error.

Member anatomy: each member is a full middleware sub-stack
(``resilient > caching > crc > faulty > disk``) built by
:meth:`StorageSpec.build <repro.storage.device.StorageSpec.build>`,
with its own breaker, fault plan and latency model — members must fail
independently, so they share no stateful middleware.

The failure model is crash/unavailability (the member's resilient layer
raising :class:`~repro.core.errors.StorageUnavailable` after retries,
or any :class:`OSError`/:class:`~repro.core.errors.StorageError`
escaping the sub-stack), not byzantine divergence: members that accept
a write are assumed to hold the written payload.  A member that *fails*
a write becomes **stale** — excluded from reads (it may miss data)
until :meth:`resync` copies the current primary's blocks back onto it.

Promotion is driven two ways: *reactively*, when a read fails on the
primary and a replica answers (the answering member becomes primary so
subsequent reads skip the dead member's retry cost), and *proactively*,
when the primary's breaker is already open before the read starts.
Both paths tick ``replica.promotions``.
"""

from __future__ import annotations

from repro.core.errors import StorageError
from repro.lint.lockwatch import watched_lock
from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.storage.disk import BlockGroup, IOStats

__all__ = ["ReplicatedDevice"]

#: What counts as a member being *unavailable* (vs. a bug): injected
#: device errors are OSError subclasses, retry/breaker exhaustion is
#: StorageUnavailable, torn frames surface as CorruptedBlockError —
#: all StorageError/OSError.  Anything else propagates unwrapped.
MEMBER_FAILURES = (OSError, StorageError)


class ReplicatedDevice:
    """N+1 synchronously-written member devices behind one
    :class:`~repro.storage.device.BlockDevice` surface.

    Args:
        members: The member sub-stacks, in member order; member 0 is
            the initial primary.
        breakers: Optional per-member circuit breakers (entries may be
            ``None``) — used for proactive promotion when the primary's
            breaker is already open, and reported in :meth:`stats`.
    """

    def __init__(self, members, breakers=None) -> None:
        self.members = list(members)
        if len(self.members) < 2:
            raise StorageError(
                f"a replicated device needs at least 2 members "
                f"(primary + replica), got {len(self.members)}"
            )
        sizes = {m.block_size for m in self.members}
        if len(sizes) != 1:
            raise StorageError(
                f"replica members disagree on block size: {sorted(sizes)}"
            )
        self.breakers = list(breakers) if breakers is not None else [
            None for _ in self.members
        ]
        if len(self.breakers) != len(self.members):
            raise StorageError(
                f"{len(self.breakers)} breakers for "
                f"{len(self.members)} members"
            )
        self._primary = 0
        self._stale: set[int] = set()
        self._lock = watched_lock("storage.replicated")

    # -- membership ---------------------------------------------------

    @property
    def n_members(self) -> int:
        """Total member count (primary + replicas)."""
        return len(self.members)

    @property
    def primary(self) -> int:
        """Index of the current primary member."""
        with self._lock:
            return self._primary

    def stale_members(self) -> list[int]:
        """Members excluded from reads until :meth:`resync` (sorted)."""
        with self._lock:
            return sorted(self._stale)

    def promote(self, member: int) -> None:
        """Make ``member`` the primary (manual or failover-driven).

        A stale member cannot be promoted — it may miss writes, and the
        primary is the resync source of truth.
        """
        with self._lock:
            if not 0 <= member < len(self.members):
                raise StorageError(
                    f"no member {member} (have {len(self.members)})"
                )
            if member in self._stale:
                raise StorageError(
                    f"member {member} is stale; resync before promoting"
                )
            if member == self._primary:
                return
            self._primary = member
        obs_counter("replica.promotions").inc()
        obs_gauge("replica.primary").set(member)

    def _breaker_open(self, member: int) -> bool:
        breaker = self.breakers[member]
        return breaker is not None and breaker.state == "open"

    def _read_order(self) -> list[int]:
        """Members to try for a read: current primary first, then every
        other in-sync member; when the primary's breaker is already open
        the first in-sync member with a non-open breaker is promoted
        before the read even starts (proactive failover).  Stale members
        never serve reads — they may miss writes."""
        with self._lock:
            primary = self._primary
            candidates = [primary] + [
                m for m in range(len(self.members))
                if m != primary and m not in self._stale
            ]
        if self._breaker_open(candidates[0]):
            for m in candidates[1:]:
                if not self._breaker_open(m):
                    self.promote(m)
                    candidates.remove(m)
                    candidates.insert(0, m)
                    break
        return candidates

    # -- reads: primary with failover fan-out -------------------------

    def read_many(self, codes) -> BlockGroup:
        """Bulk fetch with whole-group failover.

        The group runs against one member at a time in read order
        (members hold identical data, so there is nothing to fan out
        *across* members); a member failing any block fails the group
        over to the next in-sync member, keeping the answer internally
        consistent — never half one member, half another — and the
        member that answers is promoted when it is not the primary.
        """
        op = f"read_many({len(codes)} blocks)"
        order = self._read_order()
        first_error: Exception | None = None
        for member in order:
            try:
                result = self.members[member].read_many(codes)
            except MEMBER_FAILURES as exc:
                obs_counter("replica.member_read_failures").inc()
                if first_error is None:
                    first_error = exc
                else:
                    first_error.add_note(
                        f"member {member} also failed {op}: "
                        f"{type(exc).__name__}: {exc}"
                    )
                continue
            if member != order[0]:
                obs_counter("replica.failovers").inc()
                self.promote(member)
            return result
        assert first_error is not None
        first_error.add_note(
            f"all {len(order)} in-sync members failed {op}"
        )
        raise first_error

    # -- writes: synchronous fan-in to every member --------------------

    def write_many(self, codes, payloads: list) -> None:
        """Group-commit the blocks to every member; in-sync members
        that fail go stale (excluded from reads until resync).

        Each member sees the group as one coalesced ``write_many`` (so
        its own framing/caching layers keep their group semantics); a
        member failing the group goes stale as a whole — block
        overwrites are idempotent, so resync restores it exactly.

        Two invariants keep this safe:

        * the in-sync set never empties — when a write fails on *every*
          in-sync member it raises instead of staling them, so at least
          one member always holds the complete write history;
        * the primary is always in-sync — when the primary itself goes
          stale the first surviving in-sync member is promoted, so
          reads and :meth:`resync` never trust a member that missed
          a write.

        Already-stale members are still written best-effort (it keeps
        their resync delta small) but their failures are ignored — they
        are excluded from reads either way.
        """
        op = f"write_many({len(payloads)} blocks)"
        with self._lock:
            in_sync = [
                m for m in range(len(self.members)) if m not in self._stale
            ]
        errors: list[tuple[int, Exception]] = []
        newly_stale: list[int] = []
        for member, device in enumerate(self.members):
            try:
                device.write_many(codes, payloads)
            except MEMBER_FAILURES as exc:
                if member in in_sync:
                    errors.append((member, exc))
                    newly_stale.append(member)
        if len(newly_stale) == len(in_sync):
            # Refusing to stale the last complete copies: the caller
            # retries the (idempotent) write instead.
            _, first = errors[0]
            for member, exc in errors[1:]:
                first.add_note(
                    f"member {member} also failed {op}: "
                    f"{type(exc).__name__}: {exc}"
                )
            first.add_note(
                f"all {len(in_sync)} in-sync members failed {op}"
            )
            raise first
        if newly_stale:
            with self._lock:
                self._stale.update(newly_stale)
                stale_count = len(self._stale)
                primary_stale = self._primary in self._stale
            obs_counter("replica.write_failures").inc(len(newly_stale))
            obs_gauge("replica.stale_members").set(stale_count)
            if primary_stale:
                survivor = next(
                    m for m in in_sync if m not in newly_stale
                )
                self.promote(survivor)

    def resync(self) -> int:
        """Copy the current primary's blocks onto every stale member.

        Returns the number of members restored to the in-sync set.
        Blocks are read through the primary's stack (cache hits apply)
        and group-committed to each stale member.  With no stale
        members this is a no-op.
        """
        with self._lock:
            stale = sorted(self._stale)
            primary = self._primary
        if not stale:
            return 0
        source = self.members[primary]
        group = source.read_many(source.block_ids())
        restored = 0
        for member in stale:
            self.members[member].write_many(group.codes, group.payloads)
            with self._lock:
                self._stale.discard(member)
                stale_count = len(self._stale)
            restored += 1
            obs_counter("replica.resyncs").inc()
            obs_gauge("replica.stale_members").set(stale_count)
        return restored

    # -- passthroughs (primary is the source of truth) -----------------

    @property
    def block_size(self) -> int:
        """Item capacity of one block (uniform across members)."""
        return self.members[0].block_size

    def has_block(self, code: int) -> bool:
        """Existence check on the current primary."""
        return self.members[self.primary].has_block(code)

    def block_ids(self) -> list:
        """Codes of all allocated blocks, per the current primary."""
        return self.members[self.primary].block_ids()

    def n_blocks(self) -> int:
        """Allocated blocks, per the current primary."""
        return self.members[self.primary].n_blocks()

    def occupancy(self) -> float:
        """Mean block occupancy, per the current primary."""
        return self.members[self.primary].occupancy()

    def io_totals(self) -> IOStats:
        """Summed leaf I/O across every member (writes fan in, so the
        write count is roughly ``logical_writes * n_members``)."""
        totals = IOStats()
        for member in self.members:
            member_io = member.io_totals()
            totals.reads += member_io.reads
            totals.writes += member_io.writes
        return totals

    def stats(self) -> dict:
        """Replication state plus every member's nested statistics."""
        with self._lock:
            primary = self._primary
            stale = sorted(self._stale)
        return {
            "layer": "replicated",
            "members": len(self.members),
            "primary": primary,
            "stale": stale,
            "breakers": [
                breaker.state if breaker is not None else None
                for breaker in self.breakers
            ],
            "per_member": [member.stats() for member in self.members],
        }

    def __len__(self) -> int:
        return self.n_blocks()
