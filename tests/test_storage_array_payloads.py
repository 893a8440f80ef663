"""Array block payloads: slot addressing, immutability, the raw-float64
codec, wrong-length payloads, the occupancy gauges, and bitwise history.

A block payload is a read-only 1-D ``float64`` array of the block's
values in row-major key order; keys are implicit in the allocation
(``locate`` / ``block_keys``).  What is pinned here:

* ``TensorAllocation.locate`` against the per-key reference (scalar
  ``block_of`` plus the key's index in the block's member list);
* immutability through every stack, on the way in and on the way out;
* a payload of the wrong length is a ``StorageError`` on every path
  that packs payloads (a payload has no keys to go missing any more);
* the codec round-trips bits and rejects everything that is not a frame;
* the occupancy gauges still count array payloads;
* insert → as-of → replay reproduces, bit for bit, what the
  ``dict``-payload engine of the parent commit answered for the same
  seed.  ``array_payloads_parent.json`` was recorded by running this
  file as a script against that commit
  (``PYTHONPATH=<parent>/src python tests/test_storage_array_payloads.py``).
"""

import hashlib
import json
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import CorruptedBlockError, StorageError
from repro.obs import MetricsRegistry, use_registry
from repro.query.batch import BatchEvaluator
from repro.query.ingest import BatchInserter
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.storage.allocation import (
    TensorAllocation,
    index_tuples,
    subtree_tiling_allocation,
)
from repro.storage.codec import decode_block, encode_block
from repro.storage.device import StorageSpec
from tests._blocks import block_of

FIXTURE = Path(__file__).with_name("array_payloads_parent.json")

# Size 2 is an axis too small for the db2 cascade (depth 0).
axis_sizes = st.sampled_from([2, 4, 8, 16, 32])
shapes = st.lists(axis_sizes, min_size=1, max_size=3).map(tuple)
block_sizes = st.sampled_from([2, 3, 7, 15])

STACKS = {
    "plain": {},
    "cached": {"cache_blocks": 4},
    "crc": {"crc": True},
    "sharded": {"shards": 3},
    "replicated": {"shards": 2, "replicas": 2},
}


def tiling(shape, block_size):
    return TensorAllocation(
        axes=tuple(subtree_tiling_allocation(n, block_size) for n in shape)
    )


def members_of(allocation) -> dict:
    """Reference: every block's member keys, row-major, by a cube scan."""
    members: dict = {}
    for key in np.ndindex(*allocation.shape):
        members.setdefault(block_of(allocation, key), []).append(key)
    return members


class TestLocate:
    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, block_size=block_sizes, data=st.data())
    def test_matches_block_of_and_rank_in_member_list(
        self, shape, block_size, data
    ):
        allocation = tiling(shape, block_size)
        members = members_of(allocation)
        keys = data.draw(st.lists(
            st.tuples(*(st.integers(0, n - 1) for n in shape)), max_size=40,
        ))
        array = np.array(keys).reshape(-1, len(shape))
        codes, slots = allocation.locate(array)
        assert np.array_equal(codes, allocation.blocks_of(array))
        homes = [block_of(allocation, key) for key in keys]
        assert [allocation.block_tuple(c) for c in codes] == homes
        assert slots.tolist() == [
            members[home].index(key) for home, key in zip(homes, keys)
        ]

    @settings(max_examples=25, deadline=None)
    @given(shape=shapes, block_size=block_sizes)
    def test_block_keys_round_trip_through_locate(self, shape, block_size):
        allocation = tiling(shape, block_size)
        members = members_of(allocation)
        codes = np.arange(allocation.n_codes)
        assert allocation.block_len(codes).tolist() == [
            len(members[allocation.block_tuple(code)]) for code in codes
        ]
        for code in codes:
            keys = allocation.block_keys(code)
            assert index_tuples(keys) == members[allocation.block_tuple(code)]
            got_codes, got_slots = allocation.locate(keys)
            assert (got_codes == code).all()
            assert got_slots.tolist() == list(range(len(keys)))

    @settings(max_examples=25, deadline=None)
    @given(shape=shapes, block_size=block_sizes, data=st.data())
    def test_same_storage_errors_as_blocks_of(self, shape, block_size, data):
        allocation = tiling(shape, block_size)
        key = list(data.draw(st.tuples(*(st.integers(0, n - 1) for n in shape))))
        axis = data.draw(st.integers(0, len(shape) - 1))
        key[axis] = data.draw(st.sampled_from([-1, -shape[axis], shape[axis]]))
        for bad in ([key], np.zeros((3, len(shape) + 1), dtype=int),
                    np.zeros(len(shape) + 2, dtype=int)):
            with pytest.raises(StorageError) as located:
                allocation.locate(bad)
            with pytest.raises(StorageError) as assigned:
                allocation.blocks_of(bad)
            assert str(located.value) == str(assigned.value)

    def test_build_blocks_emits_block_keys_order(self):
        allocation = tiling((8, 2, 16), 3)
        cube = np.random.default_rng(3).normal(size=(8, 2, 16))
        for code, payload in allocation.build_blocks(cube).items():
            keys = allocation.block_keys(code)
            assert payload.tolist() == cube[tuple(keys.T)].tolist()


def build_engine(seed=31, **spec):
    cube = np.random.default_rng(seed).poisson(3.0, size=(8, 2, 16))
    return ProPolyneEngine(
        cube.astype(float), max_degree=1, block_size=3,
        storage=StorageSpec(**spec),
    )


class TestImmutability:
    @pytest.mark.parametrize("stack", STACKS)
    def test_reads_are_read_only_and_writes_are_detached(self, stack):
        engine = build_engine(**STACKS[stack])
        store = engine.store
        try:
            ids = store.device.block_ids()[:3]
            for payload in (
                store.fetch_block(ids[0]),
                *store.fetch_blocks(ids).values(),
                *store.device.read_many(ids).payloads,
            ):
                assert payload.dtype == np.float64
                assert not payload.flags.writeable
                with pytest.raises(ValueError):
                    payload[0] = 1.0
            # The caller's buffer, mutated after the write, is not what
            # is stored — single and group writes alike.
            mine = store.fetch_block(ids[0]) + 1.0
            expected = mine.tolist()
            store.store_blocks({ids[0]: mine})
            mine[:] = -7.0
            assert store.fetch_block(ids[0]).tolist() == expected
            group = {b: store.fetch_block(b) * 2.0 for b in ids[1:]}
            wanted = {b: items.tolist() for b, items in group.items()}
            store.store_blocks(group)
            for items in group.values():
                items[:] = -7.0
            assert {
                b: store.fetch_block(b).tolist() for b in group
            } == wanted
        finally:
            store.close()

    def test_concurrent_reader_keeps_its_pre_write_snapshot(self):
        engine = build_engine()
        store = engine.store
        block_id = store.device.block_ids()[0]
        held = store.fetch_block(block_id)
        before = held.tolist()
        wrote = threading.Event()

        def writer():
            store.store_blocks({block_id: held + 5.0})
            wrote.set()

        thread = threading.Thread(target=writer)
        thread.start()
        thread.join(timeout=10)
        assert wrote.is_set() and not thread.is_alive()
        assert held.tolist() == before
        assert store.fetch_block(block_id).tolist() == [v + 5.0 for v in before]


class TestWrongLengthPayload:
    """Replaces the missing-coefficient case: ``payload.pop(key)`` has
    no array equivalent, a payload of the wrong length is what is left."""

    @pytest.fixture()
    def broken(self):
        engine = build_engine()
        store = engine.store
        query = RangeSumQuery.count([(1, 6), (0, 1), (2, 13)])
        block_id = sorted(store.blocks_for(engine.query_arrays(query)[0]))[0]
        good = store.fetch_block(block_id)
        store.store_blocks({block_id: good[:-1]})
        yield engine, query, block_id
        store.close()

    def test_gather_names_the_block(self, broken):
        engine, query, block_id = broken
        with pytest.raises(StorageError, match="holds") as caught:
            engine.evaluate_exact(query)
        assert repr(block_id) in str(caught.value)

    def test_batch_evaluator_raises(self, broken):
        engine, query, _ = broken
        evaluator = BatchEvaluator(engine)
        with pytest.raises(StorageError, match="holds"):
            evaluator.evaluate_exact([query])
        with pytest.raises(StorageError, match="holds"):
            evaluator.evaluate_degradable([query])
        with pytest.raises(StorageError, match="holds"):
            list(evaluator.evaluate_progressive([query]))
        with pytest.raises(StorageError, match="holds"):
            list(engine.evaluate_progressive(query))

    def test_insert_batch_raises_and_leaves_the_store_untouched(self, broken):
        engine, _, block_id = broken
        store = engine.store
        keys = store.allocation.block_keys(block_id)
        point = tuple(int(k) for k in keys[0])
        before = {b: store.fetch_block(b) for b in store.device.block_ids()}
        writes = store.io_snapshot().writes
        with pytest.raises(StorageError, match="holds"):
            BatchInserter(engine).insert_batch([(0, 0, 0), point, (7, 1, 15)])
        assert store.io_snapshot().writes == writes
        for b, payload in before.items():
            assert store.fetch_block(b) is payload


class TestCodec:
    def test_round_trip_is_bitwise_for_special_values(self):
        payload = np.array([
            np.nan, -np.nan, -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
            np.inf, -np.inf, 1.0 / 3.0,
        ])
        decoded = decode_block(encode_block(payload))
        assert decoded.tobytes() == payload.tobytes()
        assert decoded.dtype == np.float64 and not decoded.flags.writeable
        assert len(decode_block(encode_block(np.empty(0)))) == 0

    def test_damaged_frames_raise_and_tick_the_counter(self):
        frame = encode_block(np.arange(4.0))
        flipped = bytearray(frame)
        flipped[13] ^= 0x40
        odd = encode_block(np.arange(4.0))[:8] + b"\x01\x02\x03"
        # A body of odd length whose CRC holds: only the length check
        # can reject it.
        import struct
        import zlib

        odd_valid = struct.pack("<4sI", b"AIMS", zlib.crc32(b"\x01\x02\x03")) \
            + b"\x01\x02\x03"
        with use_registry(MetricsRegistry()) as reg:
            for bad in (bytes(flipped), frame[:-5], frame[:6], odd, odd_valid):
                with pytest.raises(CorruptedBlockError):
                    decode_block(bad)
            assert reg.counter("faults.crc_failures").value == 5


class TestOccupancyGauges:
    @pytest.mark.parametrize("crc", [False, True])
    def test_store_occupancy_counts_array_payloads(self, crc):
        engine = build_engine(crc=crc)
        store = engine.store
        allocation = store.allocation
        lens = allocation.block_len(np.arange(allocation.n_codes))
        expected = lens.sum() / (len(lens) * allocation.block_capacity)
        assert expected > 0
        assert store.device.occupancy() == pytest.approx(expected, rel=1e-12)
        store.close()

    def test_pool_occupancy_gauge_moves_under_a_cache(self):
        with use_registry(MetricsRegistry()) as reg:
            engine = build_engine(cache_blocks=8)
            engine.evaluate_exact(RangeSumQuery.count([(0, 7), (0, 1), (0, 15)]))
            (cache,) = engine.store.caches
            assert cache.cached_blocks() > 0
            assert reg.gauge("storage.pool.occupancy").value == (
                cache.cached_blocks() / cache.capacity
            )
            assert engine.store.device.occupancy() > 0
            engine.store.close()


# -- insert -> as-of -> replay, against the parent commit's answers -------

HISTORY_SHAPE = (8, 2, 16)
HISTORY_QUERIES = [
    RangeSumQuery.count([(0, 7), (0, 1), (0, 15)]),
    RangeSumQuery.count([(2, 5), (1, 1), (3, 12)]),
    RangeSumQuery.weighted([(1, 6), (0, 1), (0, 15)], {0: 1}),
    RangeSumQuery.weighted([(0, 7), (0, 0), (4, 9)], {2: 1}),
]


def history_engine(seed):
    cube = np.random.default_rng(seed).poisson(2.0, size=HISTORY_SHAPE)
    engine = ProPolyneEngine(cube.astype(float), max_degree=1, block_size=3)
    engine.enable_versioning()
    return engine


def history_batches(seed):
    """Weighted batches; odd rounds repeat half their points."""
    rng = np.random.default_rng([seed, 1])
    for round_ in range(4):
        n = int(rng.integers(3, 14))
        points = np.column_stack(
            [rng.integers(0, size, size=n) for size in HISTORY_SHAPE]
        )
        if round_ % 2:
            points = np.concatenate([points, points[: n // 2]])
        yield points, rng.normal(size=len(points))


def observe(engine) -> dict:
    """What one epoch answers, as hex floats and a cube digest."""
    return {
        "exact": [engine.evaluate_exact(q).hex() for q in HISTORY_QUERIES],
        "progressive": [
            [
                [step.estimate.hex(), step.error_bound.hex()]
                for step in engine.evaluate_progressive(q)
            ]
            for q in HISTORY_QUERIES
        ],
        "coefficients": hashlib.sha256(
            np.ascontiguousarray(engine.to_coefficients()).tobytes()
        ).hexdigest(),
    }


def record_history(seed) -> list:
    """One observation per epoch, taken while that epoch was live."""
    engine = history_engine(seed)
    inserter = BatchInserter(engine)
    epochs = [observe(engine)]
    for points, weights in history_batches(seed):
        inserter.insert_batch(points, weights)
        epochs.append(observe(engine))
    engine.store.close()
    return epochs


def neumaier_sum(iterable, start=0):
    """CPython >= 3.12's ``sum``: compensated once a float is met."""
    items = list(iterable)
    if not any(isinstance(item, float) for item in items):
        return sum(items, start)
    total, lost = float(start), 0.0
    for item in items:
        partial = total + item
        if abs(total) >= abs(item):
            lost += (total - partial) + item
        else:
            lost += (item - partial) + total
        total = partial
    return total + lost


class TestBitwiseHistory:
    SEED = 1913

    def test_live_and_as_of_epochs_match_the_parent_commit(self):
        recorded = json.loads(FIXTURE.read_text())[str(self.SEED)]
        engine = history_engine(self.SEED)
        inserter = BatchInserter(engine)
        assert observe(engine) == recorded[0]
        for epoch, (points, weights) in enumerate(
            history_batches(self.SEED), start=1
        ):
            inserter.insert_batch(points, weights)
            assert engine.epoch == epoch
            assert observe(engine) == recorded[epoch]
        # Every past epoch, reconstructed from pre-images.
        for epoch, expected in enumerate(recorded):
            assert observe(engine.as_of_view(epoch)) == expected
        engine.store.close()

    def test_bits_do_not_depend_on_the_interpreters_sum(self, monkeypatch):
        # Builtin ``sum`` over floats is compensated from CPython 3.12
        # on; nothing the fixture pins may reduce through it.
        import repro.query.batch
        import repro.query.explain
        import repro.query.propolyne
        import repro.storage.blockstore

        for module in (
            repro.query.propolyne, repro.query.batch,
            repro.query.explain, repro.storage.blockstore,
        ):
            monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)
        self.test_live_and_as_of_epochs_match_the_parent_commit()

    def test_replay_of_the_same_batches_is_deterministic(self):
        assert record_history(self.SEED) == json.loads(
            FIXTURE.read_text()
        )[str(self.SEED)]

    def test_preimages_are_the_objects_the_device_held(self):
        engine = history_engine(self.SEED)
        store = engine.store
        held = {b: store.fetch_block(b) for b in store.device.block_ids()}
        points, weights = next(history_batches(self.SEED))
        BatchInserter(engine).insert_batch(points, weights)
        (record,) = engine.epoch_log._records
        assert record.preimages
        for block_id, preimage in record.preimages.items():
            assert preimage is held[block_id]
            assert engine.as_of_view(0).store.fetch_block(block_id) is preimage
            stored = store.fetch_block(block_id)
            # The new payload owns its values: it does not pin the
            # inserter's whole batch buffer.
            assert stored is not preimage and stored.base is None
        store.close()


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {str(TestBitwiseHistory.SEED): record_history(TestBitwiseHistory.SEED)},
        indent=1,
    ) + "\n")
