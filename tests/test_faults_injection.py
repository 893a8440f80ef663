"""Deterministic fault injection: FaultPlan schedules, FaultyDevice
middleware behaviour, and the CRC block codec.

The load-bearing property is *replayability*: a decision is a pure
function of its key ``(seed, stream, member, code, k)``, so a failure
found under chaos testing reproduces whatever else was read around it,
and the rates still hold: a χ² test over 10⁵ keys per stream.
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
from repro.faults.plan import READ, SPIKE, WRITE
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


#: χ² critical values at p = 0.001, by degrees of freedom.
CHI2_CRITICAL = {1: 10.828, 2: 13.816}


def chi2(observed, expected) -> float:
    return sum((o - e) ** 2 / e for o, e in zip(observed, expected))


#: 10⁵ keys: 1000 blocks read (or written) 100 times each.
KEYS = [(code, k) for code in range(1000) for k in range(100)]
STREAMS = (READ, SPIKE, WRITE)


@pytest.fixture(scope="module")
def uniforms():
    """Every key's uniform on each stream, for seed 2026 and member 0."""
    plan = FaultPlan(seed=2026)
    return [np.array([plan.uniform(stream, 0, code, k) for code, k in KEYS])
            for stream in STREAMS]


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
        keys = [(m, code, k) for m in (0, 1) for code, k in KEYS[:2000]]
        assert all(plan.read_fault(*key) is None for key in keys)
        assert not any(plan.spiked(*key) for key in keys)
        assert not any(plan.write_fault(*key) for key in keys)

    def test_same_seed_replays_identical_schedule(self):
        # A key always gets the same decision: from an equal plan, and
        # from the same plan asked in any order.
        kwargs = dict(read_error_rate=0.2, torn_rate=0.1,
                      latency_spike_rate=0.1, write_error_rate=0.2)
        a, b = FaultPlan(seed=42, **kwargs), FaultPlan(seed=42, **kwargs)
        keys = [(m, code, k) for m in (0, 1) for code, k in KEYS[:500]]

        def decide(plan, order):
            return {key: (plan.read_fault(*key), plan.spiked(*key),
                          plan.write_fault(*key)) for key in order}

        first = decide(a, keys)
        assert decide(b, keys[::-1]) == first == decide(a, sorted(keys))
        assert {kind for kind, _, _ in first.values()} == {None, "error", "torn"}
        assert decide(FaultPlan(seed=43, **kwargs), keys) != first

    @pytest.mark.parametrize("rate", [0.05, 0.4])
    def test_every_stream_keeps_its_rate(self, uniforms, rate):
        # A decision fires when its key's uniform is below the stream's
        # rate (the read stream partitions it into error, torn, clean),
        # and each stream passes a χ² test over 10⁵ keys.
        plan = FaultPlan(seed=2026, read_error_rate=rate, torn_rate=rate / 2,
                         latency_spike_rate=rate, write_error_rate=rate)
        for code, k in KEYS[:1000]:
            u = [plan.uniform(stream, 0, code, k) for stream in STREAMS]
            assert plan.read_fault(0, code, k) == (
                "error" if u[READ] < rate else
                "torn" if u[READ] < rate + rate / 2 else None)
            assert plan.spiked(0, code, k) == (u[SPIKE] < rate)
            assert plan.write_fault(0, code, k) == (u[WRITE] < rate)
        n = len(KEYS)
        error = int(np.count_nonzero(uniforms[READ] < rate))
        torn = int(np.count_nonzero(uniforms[READ] < rate + rate / 2)) - error
        assert chi2([error, torn, n - error - torn],
                    [n * rate, n * rate / 2, n * (1 - 1.5 * rate)]
                    ) < CHI2_CRITICAL[2]
        for stream in (SPIKE, WRITE):
            fired = int(np.count_nonzero(uniforms[stream] < rate))
            assert chi2([fired, n - fired],
                        [n * rate, n * (1 - rate)]) < CHI2_CRITICAL[1]

    def test_read_and_spike_streams_are_independent(self, uniforms):
        # A 2×2 table of (read below ½, spike below ½) over 10⁵ keys:
        # χ² against the product of its margins.
        read, spike = uniforms[READ] < 0.5, uniforms[SPIKE] < 0.5
        cells = [int(np.count_nonzero(r & s)) for r in (read, ~read)
                 for s in (spike, ~spike)]
        n = len(KEYS)
        rows = [cells[0] + cells[1], cells[2] + cells[3]]
        cols = [cells[0] + cells[2], cells[1] + cells[3]]
        want = [rows[r] * cols[c] / n for r in (0, 1) for c in (0, 1)]
        assert chi2(cells, want) < CHI2_CRITICAL[1]


def make_disk(plan=None, injecting=True) -> FaultyDevice:
    disk = FaultyDevice(SimulatedDisk(block_size=8), plan, injecting=injecting)
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
        # A group meets exactly the decisions its members meet alone, in
        # any order or grouping: every member takes its own next ordinal.
        blocks = {b: vals(float(b)) for b in range(12)}

        def drive(groups):
            plan = FaultPlan(seed=3, read_error_rate=0.1, torn_rate=0.1,
                             write_error_rate=0.2)
            disk = FaultyDevice(
                SimulatedDisk(block_size=8), plan=plan, injecting=False
            )
            write_map(disk, blocks)
            disk.injecting = True
            raised = 0
            for _ in range(3):
                for group in groups:
                    try:
                        if op == "read":
                            disk.read_many(group)
                        else:
                            write_map(disk, {b: blocks[b] for b in group})
                    except (InjectedFault, CorruptedBlockError):
                        raised += 1
            return disk.history(), raised

        history, raised = drive([list(blocks)])
        assert raised > 0 and len(history) == 3 * len(blocks)
        assert {kind for _, _, kind in history} > {None}
        for groups in ([[b] for b in blocks], [list(blocks)[::-1]],
                       [[3, 7, 1], [0, 11, 2, 8], [10, 4, 5, 9, 6]]):
            assert drive(groups)[0] == history

    def test_history_is_every_ordinal_decided(self):
        plan = FaultPlan(seed=5, read_error_rate=0.3, write_error_rate=0.3)
        disk = make_disk(plan, injecting=False)
        disk.injecting = True
        for _ in range(2):
            for group in ([0, 1], [2]):
                try:
                    disk.read_many(group)
                except InjectedReadError:
                    pass
        try:
            write_block(disk, 3, vals(3.0))
        except InjectedWriteError:
            pass
        assert disk.ordinals() == ({0: 2, 1: 2, 2: 2}, {3: 1})
        assert disk.history() == [
            (0, 0, plan.read_fault(0, 0, 0)), (0, 1, plan.read_fault(0, 0, 1)),
            (1, 0, plan.read_fault(0, 1, 0)), (1, 1, plan.read_fault(0, 1, 1)),
            (2, 0, plan.read_fault(0, 2, 0)), (2, 1, plan.read_fault(0, 2, 1)),
            (3, 0, "write_error" if plan.write_fault(0, 3, 0) else None),
        ]
        assert disk.fired == sum(kind is not None for *_, kind in disk.history())
