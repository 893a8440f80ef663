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
                *["caching"] * (cache is not None),
                *["sharded"] * (shards > 1),
                *["replicated"] * replicas,
                *["resilient"] * resilient,
                *["crc"] * crc,
                *["faulty"] * faulted,
                "metered", "disk",
            ], spec

    def test_layer_handles_are_reachable_after_build(self):
        built = StorageSpec(
            shards=2, replicas=1, cache_blocks=4, crc=True
        ).build(block_size=8, placement=codes_table(2))
        # One cache, directly under the store's meter and above the
        # fan-out; no (shard, member) sub-stack has one of its own.
        assert built.device.inner is built.cache
        assert built.cache.inner is built.sharded
        assert built.cache.capacity == 4
        # Flat, shard-major then member-minor: 2 shards x 2 members.
        grid = member_layers(built)
        assert len(grid) == 4
        assert not any(CachingDevice in layers for layers in grid.values())
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
            "metered", "caching", "resilient", "crc", "faulty",
            "metered", "disk",
        ]
        assert built.breakers == [spec.breaker]
        assert [layer.plan for layer in built.faulty] == [spec.fault_plan]
        assert built.cache.capacity == 8

    def test_minimal_spec_is_a_bare_disk(self):
        built = StorageSpec().build(block_size=4)
        assert layer_chain(built.device.stats()) == [
            "metered", "metered", "disk"
        ]
        (disk,) = built.disks
        assert isinstance(disk, SimulatedDisk) and disk.latency is None
        assert built.sharded is None
        assert built.cache is None
        assert not (built.breakers or built.faulty
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
    """Which (shard, member) leaves of a built stack get a fault layer,
    and what it decides by: every targeted leaf holds the spec's own
    plan (no seed is derived, so the shard is in no key), an untargeted
    leaf has none, two replica members of a shard decide independently
    on the same block, and every leaf shares the spec's latency model."""

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
            fault_plan=FaultPlan(seed=9, read_error_rate=0.3),
            latency=LatencyModel(),
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
        breakers, by_member = set(), {}
        for (shard, member), layers in grid.items():
            disk = layers[SimulatedDisk]
            breaker = layers[ResilientDevice].breaker
            assert disk.latency is spec.latency
            assert (breaker is spec.breaker) == (
                spec.shards == 1 and member == 0
            )
            breakers.add(id(breaker))
            faulty = layers.get(FaultyDevice)
            assert (faulty is not None) == ((shard, member) in targets)
            if faulty is None:
                continue
            assert faulty.plan is spec.fault_plan and faulty.member == member
            write_block(disk, 0, np.zeros(1))
            for _ in range(200):
                try:
                    faulty.read_many([0])
                except InjectedReadError:
                    pass
            kinds = [kind for *_, kind in faulty.history()]
            assert set(kinds) == {None, "error"}
            # Equal members on different shards decide alike.
            assert by_member.setdefault(member, kinds) == kinds
        assert len(breakers) == len(grid)
        if len(by_member) == 2:
            assert by_member[0] != by_member[1]
