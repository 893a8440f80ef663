"""Deterministic fault injection: FaultPlan schedules, FaultyDevice
middleware behaviour, and the CRC block codec.

The load-bearing property is *replayability*: a seeded plan driving the
same operation sequence must inject the identical fault schedule, or no
failure found under chaos testing could ever be reproduced.
"""

import numpy as np
import pytest

from repro.core.errors import CorruptedBlockError, StorageError
from repro.faults import (
    FaultPlan,
    FaultyDevice,
    InjectedFault,
    InjectedReadError,
    InjectedWriteError,
)
from repro.storage.codec import (
    BLOCK_MAGIC,
    block_crc,
    decode_block,
    encode_block,
)
from repro.storage.disk import SimulatedDisk
from tests._blocks import read_block, write_block, write_map


def vals(*values):
    """A block payload: the block's values, nothing else."""
    return np.array(values, dtype=float)


class TestBlockCodec:
    def test_roundtrip_preserves_payload_exactly(self):
        items = vals(1.5, -3.25, 0.0)
        decoded = decode_block(encode_block(items))
        assert decoded.tobytes() == items.tobytes()
        assert decoded.dtype == np.float64 and not decoded.flags.writeable

    def test_frame_starts_with_magic_and_crc(self):
        frame = encode_block(vals(1.0))
        assert frame[:4] == BLOCK_MAGIC
        assert int.from_bytes(frame[4:8], "little") == block_crc(vals(1.0))
        assert frame[8:] == vals(1.0).astype("<f8").tobytes()

    @pytest.mark.parametrize("position", [4, 8, 12, -1])
    def test_any_flipped_byte_is_detected(self, position):
        frame = bytearray(encode_block(np.arange(5.0)))
        frame[position] ^= 0xFF
        with pytest.raises(CorruptedBlockError):
            decode_block(bytes(frame))

    def test_truncated_or_foreign_frames_are_rejected(self):
        with pytest.raises(CorruptedBlockError):
            decode_block(b"AI")  # shorter than the header
        with pytest.raises(CorruptedBlockError):
            decode_block(b"XXXX" + encode_block(vals(1.0))[4:])

    def test_corruption_never_reaches_unpickling(self):
        # A frame whose body is not what was checksummed must fail at
        # the CRC — and the codec has no deserializer to reach anyway:
        # a body is raw float64, never a pickle.
        import repro.storage.codec as codec

        bad_body = b"\x00not a pickle"
        frame = encode_block(vals(1.0))[:8] + bad_body
        with pytest.raises(CorruptedBlockError):
            decode_block(frame)
        assert not hasattr(codec, "pickle")


class TestFaultPlan:
    def test_rates_validate(self):
        with pytest.raises(StorageError):
            FaultPlan(read_error_rate=-0.1)
        with pytest.raises(StorageError):
            FaultPlan(read_error_rate=0.7, torn_rate=0.4)
        with pytest.raises(StorageError):
            FaultPlan(latency_spike_s=-1.0)

    def test_zero_rates_never_inject(self):
        plan = FaultPlan(seed=3)
        assert all(plan.read_fault() is None for _ in range(200))
        assert not any(plan.write_fault() for _ in range(200))

    def test_same_seed_replays_identical_schedule(self):
        kwargs = dict(read_error_rate=0.2, torn_rate=0.1,
                      latency_spike_rate=0.1, latency_spike_s=0.0)
        a = FaultPlan(seed=42, **kwargs)
        b = FaultPlan(seed=42, **kwargs)
        for _ in range(500):
            a.read_fault()
            b.read_fault()
        assert list(a.history) == list(b.history)
        assert any(kind for _, kind in a.history)  # schedule is non-trivial

    def test_reset_rewinds_the_schedule(self):
        plan = FaultPlan(seed=9, read_error_rate=0.3, latency_spike_s=0.0)
        first = [plan.read_fault() for _ in range(100)]
        plan.reset()
        assert [plan.read_fault() for _ in range(100)] == first

    def test_history_records_operation_order(self):
        plan = FaultPlan(seed=1, read_error_rate=0.5)
        for _ in range(10):
            plan.read_fault()
        assert [op for op, _ in plan.history] == list(range(10))


def make_disk(plan=None) -> FaultyDevice:
    disk = FaultyDevice(SimulatedDisk(block_size=8), plan=plan)
    for b in range(4):
        write_block(disk, b, vals(float(b)))
    return disk


class TestFaultyDevice:
    def test_no_plan_behaves_like_base_disk(self):
        plain = SimulatedDisk(block_size=8)
        write_block(plain, 0, vals(0.0))
        faulty = make_disk(plan=None)
        assert read_block(faulty, 0).tolist() == read_block(plain, 0).tolist()

    def test_injected_read_error_raises_and_counts(self):
        disk = make_disk(FaultPlan(seed=0, read_error_rate=1.0))
        with pytest.raises(InjectedReadError):
            read_block(disk, 0)
        # The read never reached the directory, so no I/O was charged.
        assert disk.io_totals().reads == 0

    def test_torn_read_surfaces_as_crc_failure(self):
        disk = make_disk(FaultPlan(seed=0, torn_rate=1.0))
        with pytest.raises(CorruptedBlockError):
            read_block(disk, 0)

    def test_latency_spike_returns_correct_data(self):
        disk = make_disk(
            FaultPlan(seed=0, latency_spike_rate=1.0, latency_spike_s=0.0)
        )
        assert read_block(disk, 2).tolist() == [2.0]

    def test_injected_write_error(self):
        disk = make_disk(None)
        disk.plan = FaultPlan(seed=0, write_error_rate=1.0)
        with pytest.raises(InjectedWriteError):
            write_block(disk, 9, vals(9.0))
        assert not disk.has_block(9)

    def test_injecting_flag_disables_the_plan(self):
        disk = make_disk(FaultPlan(seed=0, read_error_rate=1.0))
        disk.injecting = False
        assert read_block(disk, 1).tolist() == [1.0]
        disk.injecting = True
        with pytest.raises(InjectedReadError):
            read_block(disk, 1)

    def test_injected_faults_are_oserrors(self):
        # Retry machinery and production-style handlers both catch
        # OSError; the library hierarchy catches StorageError.
        assert issubclass(InjectedFault, OSError)
        assert issubclass(InjectedFault, StorageError)

    def test_latency_spikes_overlap_across_threads(self):
        # Regression: fault decisions and spike sleeps must happen
        # outside the device lock, or concurrent reads serialize.
        import threading
        import time

        spike = 0.02
        disk = make_disk(
            FaultPlan(seed=0, latency_spike_rate=1.0, latency_spike_s=spike)
        )
        n = 4
        threads = [
            threading.Thread(target=lambda: read_block(disk, 0))
            for _ in range(n)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        # Serial spikes would cost n * spike; overlap must beat that by a
        # wide margin (generous bound for slow CI).
        assert elapsed < n * spike * 0.8

    def test_faulty_store_values_match_clean_store(self):
        # End-to-end determinism guard: with injection producing only
        # latency, the data read back is untouched.
        rng = np.random.default_rng(5)
        values = rng.normal(size=16)
        plan = FaultPlan(seed=1, latency_spike_rate=0.5, latency_spike_s=0.0)
        disk = FaultyDevice(SimulatedDisk(block_size=4), plan=plan)
        for b in range(4):
            write_block(disk, b, values[4 * b:4 * b + 4])
        for b in range(4):
            assert read_block(disk, b).tolist() == (
                values[4 * b:4 * b + 4].tolist()
            )

    @pytest.mark.parametrize("op", ["read", "write"])
    def test_group_draws_the_schedule_of_n_groups_of_one(self, op):
        # One seeded draw per member, in group order: a group raises at
        # the member N sequential groups of one would have raised at,
        # having let the same members through to the leaf.
        blocks = {b: vals(float(b)) for b in range(12)}

        def drive(grouped):
            plan = FaultPlan(seed=3, read_error_rate=0.1, torn_rate=0.1,
                             write_error_rate=0.2)
            disk = FaultyDevice(
                SimulatedDisk(block_size=8), plan=plan, injecting=False
            )
            write_map(disk, blocks)
            disk.injecting = True
            groups = [blocks] if grouped else [{b: blocks[b]} for b in blocks]
            raised = None
            try:
                for group in groups:
                    if op == "read":
                        disk.read_many(list(group))
                    else:
                        write_map(disk, group)
            except (InjectedFault, CorruptedBlockError) as exc:
                raised = type(exc)
            return raised, list(plan.history), disk.io_totals()

        raised, history, io = drive(grouped=True)
        assert (raised, history, io) == drive(grouped=False)
        assert raised is not None and 1 < len(history) < len(blocks)


class TestDeprecationShimAndLatency:
    def test_plan_spikes_live_in_one_latency_model(self):
        # Consolidation guard: spike rate/duration are owned by the
        # plan's LatencyModel, the same mechanism as the leaf seek time,
        # so delay budgets cannot be configured twice in contradiction.
        plan = FaultPlan(seed=4, latency_spike_rate=0.25,
                         latency_spike_s=0.001)
        assert plan.latency.spike_rate == 0.25
        assert plan.latency.spike_s == 0.001
        assert plan.latency.seed == plan.seed
