"""Tests for the per-shard replication layer.

:class:`~repro.storage.replication.ReplicatedDevice` turns member
outages into failover instead of degradation.  The invariants pinned
here: writes fan in to every member, reads fail over (and promote) to
in-sync replicas, stale members never serve reads, the in-sync set
never empties, and the ``replicas=`` spec field builds the whole thing
declaratively with answers bitwise-identical to an unreplicated stack.
"""

import numpy as np
import pytest

from repro.core.errors import StorageError
from repro.faults import CircuitBreaker, FaultPlan, RetryPolicy
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.storage.device import StorageSpec
from repro.storage.disk import SimulatedDisk
from repro.storage.replication import ReplicatedDevice
from tests._blocks import (
    codes_table,
    read_block,
    read_map,
    write_block,
    write_map,
)

PAYLOADS = {
    0: np.array([1.5, -2.25]),
    1: np.array([4.0]),
    2: np.array([0.125, 9.0]),
}


def same(got, want) -> bool:
    """Payloads (or ``{block_id: payload}`` maps) equal value for value."""
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(
            same(got[block_id], want[block_id]) for block_id in want
        )
    return got.tolist() == want.tolist()


class FlakyMember:
    """Member wrapper that fails reads/writes on demand (OSError —
    the unavailability family the device treats as a member failure)."""

    def __init__(self, inner):
        self.inner = inner
        self.fail_reads = False
        self.fail_writes = False

    @property
    def block_size(self):
        return self.inner.block_size

    def _gate(self, failing, op):
        if failing:
            raise OSError(f"injected {op} failure")

    def read_many(self, codes):
        self._gate(self.fail_reads, "read")
        return self.inner.read_many(codes)

    def write_many(self, codes, payloads):
        self._gate(self.fail_writes, "write")
        self.inner.write_many(codes, payloads)

    def has_block(self, block_id):
        return self.inner.has_block(block_id)

    def block_ids(self):
        return self.inner.block_ids()

    def n_blocks(self):
        return self.inner.n_blocks()

    def occupancy(self):
        return self.inner.occupancy()

    def io_totals(self):
        return self.inner.io_totals()

    def stats(self):
        return self.inner.stats()


def group(n_members=2, block_size=8):
    members = [
        FlakyMember(SimulatedDisk(block_size=block_size))
        for _ in range(n_members)
    ]
    return ReplicatedDevice(members), members


class TestConstruction:
    def test_needs_at_least_two_members(self):
        with pytest.raises(StorageError):
            ReplicatedDevice([SimulatedDisk(block_size=8)])

    def test_members_must_agree_on_block_size(self):
        with pytest.raises(StorageError):
            ReplicatedDevice(
                [SimulatedDisk(block_size=8), SimulatedDisk(block_size=4)]
            )

    def test_breaker_count_must_match(self):
        members = [SimulatedDisk(block_size=8) for _ in range(2)]
        with pytest.raises(StorageError):
            ReplicatedDevice(members, breakers=[None])


class TestWriteFanIn:
    def test_every_member_holds_every_write(self):
        device, members = group(3)
        for block_id, items in PAYLOADS.items():
            write_block(device, block_id, items)
        for member in members:
            for block_id, items in PAYLOADS.items():
                assert same(read_block(member.inner, block_id), items)
        assert device.n_blocks() == len(PAYLOADS)

    def test_write_many_group_commits_to_all(self):
        device, members = group(2)
        write_map(device, PAYLOADS)
        for member in members:
            assert same(read_map(member.inner, list(PAYLOADS)), PAYLOADS)

    def test_failed_member_goes_stale_and_primary_survives(self):
        device, members = group(3)
        write_block(device, 0, PAYLOADS[0])
        members[1].fail_writes = True
        write_block(device, 1, PAYLOADS[1])
        assert device.stale_members() == [1]
        assert device.primary == 0
        # The stale member missed the write; the others hold it.
        assert not members[1].inner.has_block(1)
        assert same(read_block(members[2].inner, 1), PAYLOADS[1])

    def test_stale_primary_hands_off_to_a_survivor(self):
        device, members = group(2)
        members[0].fail_writes = True
        write_block(device, 0, PAYLOADS[0])
        assert device.stale_members() == [0]
        assert device.primary == 1

    def test_in_sync_set_never_empties(self):
        device, members = group(2)
        write_block(device, 0, PAYLOADS[0])
        for member in members:
            member.fail_writes = True
        with pytest.raises(OSError):
            write_block(device, 1, PAYLOADS[1])
        # Refused to stale the last complete copies.
        assert device.stale_members() == []
        assert device.primary == 0


class TestReadFailover:
    def test_primary_failure_fails_over_and_promotes(self):
        device, members = group(2)
        write_map(device, PAYLOADS)
        members[0].fail_reads = True
        assert same(read_block(device, 0), PAYLOADS[0])
        assert device.primary == 1
        # Subsequent reads go straight to the promoted member.
        assert same(read_block(device, 1), PAYLOADS[1])

    def test_read_many_fails_over_as_a_whole_group(self):
        device, members = group(2)
        write_map(device, PAYLOADS)
        members[0].fail_reads = True
        assert same(read_map(device, list(PAYLOADS)), PAYLOADS)
        assert device.primary == 1

    def test_all_members_failing_raises_the_first_error(self):
        device, members = group(2)
        write_map(device, PAYLOADS)
        for member in members:
            member.fail_reads = True
        with pytest.raises(OSError):
            read_block(device, 0)

    def test_stale_members_never_serve_reads(self):
        device, members = group(2)
        write_block(device, 0, PAYLOADS[0])
        members[1].fail_writes = True
        write_block(device, 1, PAYLOADS[1])  # member 1 goes stale
        members[1].fail_writes = False
        members[0].fail_reads = True
        # Member 1 is the only other member but it is stale: the read
        # must fail rather than return possibly-missing data.
        with pytest.raises(OSError):
            read_block(device, 1)

    @pytest.mark.usefixtures("sim_clock")  # time stands still: stays open
    def test_open_breaker_promotes_proactively(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_timeout_s=1e9)
        members = [
            FlakyMember(SimulatedDisk(block_size=8)) for _ in range(2)
        ]
        device = ReplicatedDevice(members, breakers=[breaker, None])
        write_map(device, PAYLOADS)
        breaker.record_failure()
        assert breaker.state == "open"
        assert same(read_block(device, 0), PAYLOADS[0])
        assert device.primary == 1
        # The dead member's sub-stack was never touched by the read.


class TestPromotionAndResync:
    def test_manual_promote(self):
        device, _ = group(3)
        device.promote(2)
        assert device.primary == 2
        device.promote(2)  # idempotent
        assert device.primary == 2

    def test_promote_validates(self):
        device, members = group(2)
        with pytest.raises(StorageError):
            device.promote(5)
        members[1].fail_writes = True
        write_block(device, 0, PAYLOADS[0])
        with pytest.raises(StorageError):
            device.promote(1)  # stale

    def test_resync_restores_stale_members(self):
        device, members = group(2)
        write_block(device, 0, PAYLOADS[0])
        members[1].fail_writes = True
        write_block(device, 1, PAYLOADS[1])
        members[1].fail_writes = False
        assert device.resync() == 1
        assert device.stale_members() == []
        assert same(read_block(members[1].inner, 1), PAYLOADS[1])
        # Restored member serves reads again.
        members[0].fail_reads = True
        assert same(read_block(device, 1), PAYLOADS[1])

    def test_resync_without_stale_members_is_a_noop(self):
        device, _ = group(2)
        write_map(device, PAYLOADS)
        assert device.resync() == 0

    def test_stats_report_replication_state(self):
        device, members = group(2)
        write_block(device, 0, PAYLOADS[0])
        members[1].fail_writes = True
        write_block(device, 1, PAYLOADS[1])
        stats = device.stats()
        assert stats["layer"] == "replicated"
        assert stats["members"] == 2
        assert stats["primary"] == 0
        assert stats["stale"] == [1]
        assert len(stats["per_member"]) == 2


class TestSpecIntegration:
    def test_spec_replicas_build_and_answer_identically(self):
        plain = StorageSpec().build(block_size=8)
        replicated = StorageSpec(replicas=1).build(block_size=8)
        for block_id, items in PAYLOADS.items():
            write_block(plain.device, block_id, items)
            write_block(replicated.device, block_id, items)
        for block_id in PAYLOADS:
            assert same(
                read_block(replicated.device, block_id),
                read_block(plain.device, block_id),
            )
        assert len(replicated.replica_groups) == 1
        assert plain.replica_groups == []

    def test_spec_validates_fault_replicas(self):
        with pytest.raises(StorageError):
            StorageSpec(replicas=1, fault_replicas=(2,))
        with pytest.raises(StorageError):
            StorageSpec(replicas=-1)

    def test_per_member_breakers_are_independent_clones(self):
        built = StorageSpec(
            shards=2, replicas=1,
            breaker=CircuitBreaker(failure_threshold=3),
            retry_policy=RetryPolicy(max_attempts=1),
        ).build(block_size=8, placement=codes_table(2))
        # Shard-major, member-minor: 2 shards x 2 members.
        assert len(built.breakers) == 4
        assert len(set(map(id, built.breakers))) == 4

    def test_kill_primary_drill_heals_to_exact_answers(self):
        spec = StorageSpec(
            replicas=1,
            fault_plan=FaultPlan(seed=9, read_error_rate=1.0),
            fault_replicas=(0,),
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay_s=0.0, budget_s=0.0
            ),
            breaker=CircuitBreaker(
                failure_threshold=3, recovery_timeout_s=1e9
            ),
        )
        built = spec.build(block_size=8)
        built.set_injecting(False)
        for block_id, items in PAYLOADS.items():
            write_block(built.device, block_id, items)
        built.set_injecting(True)
        (group_device,) = built.replica_groups
        # Every primary read fails; the replica answers exactly.
        for block_id, items in PAYLOADS.items():
            assert same(read_block(built.device, block_id), items)
        assert group_device.primary == 1

    def test_resync_replicas_sums_over_shards(self):
        built = StorageSpec(replicas=1).build(block_size=8)
        for block_id, items in PAYLOADS.items():
            write_block(built.device, block_id, items)
        assert built.resync_replicas() == 0

    def test_a_promotion_leaves_the_store_cache_warm(self):
        rng = np.random.default_rng(2003)
        engine = ProPolyneEngine(
            rng.poisson(3.0, (32, 32)).astype(float), max_degree=1,
            block_size=7,
            storage=StorageSpec(shards=2, replicas=1, cache_blocks=64),
        )
        store = engine.store
        query = RangeSumQuery.count([(3, 29), (4, 30)])

        def leaf_reads():
            """Each disk's reads for one query, shard-major, member-minor."""
            before = [disk.io.reads for disk in store._built.disks]
            engine.evaluate_exact(query)
            return [disk.io.reads - was
                    for disk, was in zip(store._built.disks, before)]

        cold = leaf_reads()
        assert cold[1::2] == [0, 0] and all(cold[0::2])  # primaries read
        assert leaf_reads() == [0, 0, 0, 0]
        # The one cache sits above every replica group: a promotion
        # leaves it warm.
        for replica_group in store._built.replica_groups:
            replica_group.promote(1)
        assert leaf_reads() == [0, 0, 0, 0]
        # Cold again, the promoted members serve every read.
        store.cache.clear()
        assert leaf_reads() == [0, cold[0], 0, cold[2]]
