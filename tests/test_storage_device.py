"""Property-style tests for the device middleware stack.

Three sweeps anchor the layering contract:

* **every** combination of the storage features a
  :class:`~repro.storage.device.StorageSpec` can switch on builds a
  stack that preserves write→read identity end to end, with its layers
  in the one canonical order;
* **every** (shard, member) leaf of a built stack draws its faults and
  latency spikes from its own cell of the seed grid, so a second party
  rebuilds the same stack draw for draw from the one spec;
* **every** single-bit corruption of a CRC frame must be detected by
  the codec — no bit position may slip through the checksum.
"""

import itertools

import numpy as np
import pytest

from repro.core.errors import CorruptedBlockError, StorageError
from repro.faults import CircuitBreaker, FaultPlan, RetryPolicy
from repro.faults.plan import FaultyDevice, InjectedReadError
from repro.storage.codec import decode_block, encode_block
from repro.storage.device import (
    CachingDevice,
    MeteredDevice,
    ResilientDevice,
    StorageSpec,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.latency import LatencyModel
from tests._blocks import codes_table, read_block, write_block


def layer_chain(stats):
    """Outermost-to-innermost layer kinds of a ``stats()`` tree, down
    the first shard and the first replica member."""
    kinds = []
    while stats is not None:
        kinds.append(stats["layer"])
        below = stats.get("per_shard") or stats.get("per_member")
        stats = below[0] if below else stats.get("inner")
    return kinds


def member_layers(built):
    """``{(shard, member): {layer class: instance}}``, read by walking
    the built device tree (``inner`` chains, the fan-out layer's
    ``devices``, a replica group's ``members``) — no builder handle, so
    the same walk holds for any way of building the same stack."""
    grid = {}

    def walk(device, shard, member, found):
        if hasattr(device, "devices"):
            for index, sub in enumerate(device.devices):
                walk(sub, index, 0, {})
        elif hasattr(device, "members"):
            for index, sub in enumerate(device.members):
                walk(sub, shard, index, {})
        else:
            found[type(device)] = device  # innermost of a type wins
            if isinstance(device, SimulatedDisk):
                grid[shard, member] = found
            else:
                walk(device.inner, shard, member, found)

    walk(built.device, 0, 0, {})
    return grid


class TestLayerOrderProperty:
    def test_every_accepted_stack_preserves_write_read_identity(self):
        payloads = {
            0: np.array([1.5, -2.25]),
            1: np.array([0.0]),
            23: np.array([7.125]),
        }
        for cache, crc, faulted, resilient, replicas, shards in (
            itertools.product(
                (None, 4), (False, True), (False, True), (False, True),
                (0, 1), (1, 2),
            )
        ):
            spec = StorageSpec(
                shards=shards, replicas=replicas, cache_blocks=cache,
                crc=crc,
                fault_plan=FaultPlan() if faulted else None,
                retry_policy=RetryPolicy() if resilient else None,
                breaker=CircuitBreaker() if resilient else None,
            )
            device = spec.build(
                block_size=8, placement=codes_table(shards)
            ).device
            for block_id, items in payloads.items():
                write_block(device, block_id, items)
            for block_id, items in payloads.items():
                got = read_block(device, block_id)
                assert got.tolist() == items.tolist(), spec
                assert not got.flags.writeable, spec
            assert device.n_blocks() == len(payloads)
            # Absent features drop out; what is present keeps its place.
            assert layer_chain(device.stats()) == [
                "metered",
                *["sharded"] * (shards > 1),
                *["replicated"] * replicas,
                *["resilient"] * resilient,
                *["caching"] * (cache is not None),
                *["crc"] * crc,
                *["faulty"] * faulted,
                "metered", "disk",
            ], spec

    def test_layer_handles_are_reachable_after_build(self):
        built = StorageSpec(
            shards=2, replicas=1, cache_blocks=4, crc=True
        ).build(block_size=8, placement=codes_table(2))
        # Flat, shard-major then member-minor: 2 shards x 2 members.
        grid = member_layers(built)
        assert built.caches == [
            grid[cell][CachingDevice] for cell in sorted(grid)
        ]
        assert built.disks == [
            grid[cell][SimulatedDisk] for cell in sorted(grid)
        ]
        assert built.breakers == [] and built.faulty == []
        assert built.replica_groups == built.sharded.devices
        # The leaf meter sits directly above each disk.
        for layers in grid.values():
            meter = layers[MeteredDevice]
            assert meter.prefix == "storage.disk"
            assert meter.inner is layers[SimulatedDisk]


class TestCrcDetectsEverySingleBitCorruption:
    def test_every_flipped_bit_is_detected(self):
        frame = encode_block(np.arange(6) * 1.75)
        assert decode_block(frame) is not None  # sanity: intact decodes
        for byte_pos in range(len(frame)):
            for bit in range(8):
                torn = bytearray(frame)
                torn[byte_pos] ^= 1 << bit
                with pytest.raises(CorruptedBlockError):
                    decode_block(bytes(torn))


class TestStorageSpec:
    def test_full_spec_builds_the_canonical_stack(self):
        spec = StorageSpec(
            cache_blocks=8,
            fault_plan=FaultPlan(seed=1),
            retry_policy=RetryPolicy(max_attempts=2),
            breaker=CircuitBreaker(),
        )
        built = spec.build(block_size=8)
        assert layer_chain(built.device.stats()) == [
            "metered", "resilient", "caching", "crc", "faulty",
            "metered", "disk",
        ]
        assert built.breakers == [spec.breaker]
        assert [layer.plan for layer in built.faulty] == [spec.fault_plan]
        assert [cache.capacity for cache in built.caches] == [8]

    def test_minimal_spec_is_a_bare_disk(self):
        built = StorageSpec().build(block_size=4)
        assert layer_chain(built.device.stats()) == [
            "metered", "metered", "disk"
        ]
        (disk,) = built.disks
        assert isinstance(disk, SimulatedDisk) and disk.latency is None
        assert built.sharded is None
        assert not (built.caches or built.breakers or built.faulty
                    or built.replica_groups)

    def test_crc_follows_the_fault_plan_unless_forced(self):
        assert not StorageSpec().crc_enabled()
        assert StorageSpec(fault_plan=FaultPlan()).crc_enabled()
        assert StorageSpec(crc=True).crc_enabled()
        assert not StorageSpec(fault_plan=FaultPlan(),
                               crc=False).crc_enabled()

    def test_spec_validates_its_fields(self):
        with pytest.raises(StorageError):
            StorageSpec(shards=0)
        with pytest.raises(StorageError):
            StorageSpec(cache_blocks=0)
        with pytest.raises(StorageError):
            StorageSpec(shards=2, fault_shards=(2,))


class TestSeedGrid:
    """The reproducibility contract of a built stack: which seed every
    (shard, member) leaf draws its faults and latency spikes from, which
    stateful objects are the caller's own instances, and that 200 reads
    per leaf replay the schedule of equal-seed objects built by hand."""

    PLAN_SEED, LATENCY_SEED = 9, 11

    @pytest.mark.parametrize("fields, targets", [
        (dict(shards=2, replicas=1), [(0, 0), (1, 0), (0, 1), (1, 1)]),
        (dict(shards=2, replicas=1, fault_shards=(1,)), [(1, 0), (1, 1)]),
        (dict(shards=2, replicas=1, fault_replicas=(0,)), [(0, 0), (1, 0)]),
        (dict(shards=2, replicas=1, fault_shards=(1,), fault_replicas=(0,)),
         [(1, 0)]),
        (dict(replicas=1), [(0, 0), (0, 1)]),
        (dict(), [(0, 0)]),
    ])
    def test_every_leaf_draws_from_its_cell_of_the_grid(self, fields, targets):
        spec = StorageSpec(
            fault_plan=FaultPlan(seed=self.PLAN_SEED, read_error_rate=0.3),
            latency=LatencyModel(
                base_s=0, spike_rate=0.2, spike_s=0.0, seed=self.LATENCY_SEED
            ),
            breaker=CircuitBreaker(),
            retry_policy=RetryPolicy(max_attempts=1),
            **fields,
        )
        grid = member_layers(
            spec.build(block_size=8, placement=codes_table(spec.shards))
        )
        assert sorted(grid) == [
            (s, m) for s in range(spec.shards)
            for m in range(spec.replicas + 1)
        ]
        breakers = set()
        for (shard, member), layers in grid.items():
            cell = shard + spec.shards * member
            faulty = layers.get(FaultyDevice)
            plan = faulty.plan if faulty is not None else None
            want_plan = None
            if (shard, member) not in targets:
                assert plan is None
            elif len(targets) == 1:
                assert plan is spec.fault_plan
                want_plan = FaultPlan(
                    seed=self.PLAN_SEED, read_error_rate=0.3
                )
            else:
                assert plan is not spec.fault_plan
                want_plan = FaultPlan(
                    seed=self.PLAN_SEED + 1 + 7919 * cell,
                    read_error_rate=0.3,
                )
                assert plan.seed == want_plan.seed
            disk = layers[SimulatedDisk]
            breaker = layers[ResilientDevice].breaker
            unsharded_primary = spec.shards == 1 and member == 0
            assert (disk.latency is spec.latency) == unsharded_primary
            assert (breaker is spec.breaker) == unsharded_primary
            want_latency = LatencyModel(
                base_s=0, spike_rate=0.2, spike_s=0.0,
                seed=self.LATENCY_SEED + (0 if unsharded_primary else cell),
            )
            assert disk.latency.seed == want_latency.seed
            breakers.add(id(breaker))

            # A clean read draws the fault first and then the leaf's
            # spike; an injected error never reaches the leaf.
            write_block(disk, 0, np.zeros(1))
            want, got = [], []
            for _ in range(200):
                if want_plan is None or want_plan.read_fault() is None:
                    want_latency.delay()
                want.append(want_latency.spikes)
                try:
                    (disk if plan is None else faulty).read_many([0])
                except InjectedReadError:
                    pass
                got.append(disk.latency.spikes)
            assert got == want and want[-1] > 0
            if plan is not None:
                assert list(plan.history) == list(want_plan.history)
                assert {kind for _, kind in plan.history} == {None, "error"}
        assert len(breakers) == len(grid)
