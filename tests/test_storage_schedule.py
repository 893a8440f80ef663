"""The one block schedule (§3.2.1), against the definition it replaced.

``schedule_blocks`` is differential-tested against a test-local
reference that does what ``plan_blocks`` + ``_progressive_steps`` did:
group the entries per key through the per-axis ``Allocation.block_of``
tables and sum squares in a plain Python loop, left to right.  Same
block set, same in-block entry order, ``||q_B||`` equal to the last
bit, and the fetch order exactly *mass descending, code ascending* —
for a tensor allocation, a one-axis one over a 1-D tiling, and a
CSR-stacked batch.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.batch import BatchEvaluator
from repro.query.explain import explain, provenance_of
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.storage.allocation import (
    TensorAllocation,
    subtree_tiling_allocation,
)
from repro.storage.device import StorageSpec
from repro.storage.scheduler import schedule_blocks
from tests._blocks import block_of

# 2 is an axis too small for any cascade (depth 0, standard basis).
shapes = st.lists(
    st.sampled_from([2, 4, 8, 16, 32]), min_size=1, max_size=3
).map(tuple)
block_sizes = st.sampled_from([2, 3, 7, 15])
# Exact zeros, a square that underflows, repeats that tie.
coefficients = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-200, 1.0, -1.0, 0.5]),
    st.floats(-1e3, 1e3, allow_nan=False),
)
# Few distinct norms, so equal (and zero) masses are common.
data_norms = st.sampled_from([0.0, 1.0, 2.5])


def reference(homes: list, values: list, norms: dict):
    """The parent's definition, per key and in Python: ``(order,
    members, q_norm)`` — block ids in fetch order, each block's entry
    positions in translation order, and its ``||q_B||``."""
    members: dict = {}
    for position, home in enumerate(homes):
        members.setdefault(home, []).append(position)
    q_norm = {}
    for home, positions in members.items():
        energy = 0.0
        for position in positions:
            energy += values[position] * values[position]
        q_norm[home] = math.sqrt(energy)
    order = sorted(
        members, key=lambda b: (-(q_norm[b] * norms.get(b, 0.0)), b)
    )
    return order, members, q_norm


def check_against_reference(allocation, homes, keys, values, norms):
    """``norms`` is keyed by block code, as the engine's norm table is;
    the reference reads the same norms by block id."""
    values = np.array(values, dtype=float)
    codes, _slots = allocation.locate(keys)
    schedule = schedule_blocks(values, codes, allocation, norms)
    norms = {allocation.block_tuple(code): n for code, n in norms.items()}
    order, members, q_norm = reference(homes, values.tolist(), norms)
    assert [allocation.block_tuple(c) for c in schedule.codes] == order
    assert np.array_equal(schedule.codes, codes[[
        members[block_id][0] for block_id in order
    ]])
    for position, block_id in enumerate(order):
        assert schedule.entries(position).tolist() == members[block_id]
        assert float(schedule.query_norms[position]).hex() == (
            q_norm[block_id].hex()
        )
        assert schedule.data_norms[position] == norms.get(block_id, 0.0)
        assert schedule.masses[position] == (
            q_norm[block_id] * norms.get(block_id, 0.0)
        )
    bound = 0.0
    for mass in schedule.masses.tolist():
        bound += mass
    assert schedule.bound.hex() == bound.hex()
    return schedule


def tiling(shape, block_size):
    return TensorAllocation(
        axes=tuple(subtree_tiling_allocation(n, block_size) for n in shape)
    )


class TestAgainstThePerKeyReference:
    @settings(max_examples=60, deadline=None)
    @given(shape=shapes, block_size=block_sizes, data=st.data())
    def test_tensor_allocation(self, shape, block_size, data):
        allocation = tiling(shape, block_size)
        keys = data.draw(st.lists(
            st.tuples(*(st.integers(0, n - 1) for n in shape)),
            min_size=1, max_size=60,
        ))
        values = data.draw(st.lists(
            coefficients, min_size=len(keys), max_size=len(keys)
        ))
        norms = {
            code: data.draw(data_norms)
            for code in range(0, allocation.n_codes, 2)
        }  # the other half is unrecorded: 0.0
        check_against_reference(
            allocation, [block_of(allocation, key) for key in keys],
            np.array(keys), values, norms,
        )

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([4, 16, 64]), block_size=block_sizes,
        data=st.data(),
    )
    def test_one_dimensional_allocation(self, n, block_size, data):
        allocation = tiling((n,), block_size)
        keys = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=40)
        )
        values = data.draw(st.lists(
            coefficients, min_size=len(keys), max_size=len(keys)
        ))
        norms = {
            code: data.draw(data_norms) for code in range(allocation.n_codes)
        }
        check_against_reference(
            allocation, [block_of(allocation, (key,)) for key in keys],
            np.array(keys)[:, None], values, norms,
        )

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, block_size=block_sizes, data=st.data())
    def test_stacked_batch_has_per_query_norms(self, shape, block_size, data):
        allocation = tiling(shape, block_size)
        key = st.tuples(*(st.integers(0, n - 1) for n in shape))
        queries = data.draw(st.lists(
            st.lists(st.tuples(key, coefficients), max_size=25),
            min_size=1, max_size=6,
        ))
        stacked = [entry for query in queries for entry in query]
        if not stacked:
            return
        offsets = np.cumsum([0] + [len(query) for query in queries])
        keys = [key for key, _ in stacked]
        values = [value for _, value in stacked]
        norms = dict.fromkeys(range(allocation.n_codes), 1.0)
        homes = [block_of(allocation, key) for key in keys]
        schedule = check_against_reference(
            allocation, homes, np.array(keys), values, norms
        )
        by_id = dict.fromkeys(map(allocation.block_tuple, norms), 1.0)
        counts, per_query = schedule.per_query(offsets)
        assert counts.shape == per_query.shape == (
            len(queries), len(schedule)
        )
        for qi in range(len(queries)):
            lo, hi = offsets[qi], offsets[qi + 1]
            _, members, q_norm = reference(homes[lo:hi], values[lo:hi], by_id)
            for position, code in enumerate(schedule.codes.tolist()):
                block_id = allocation.block_tuple(code)
                assert counts[qi, position] == len(members.get(block_id, []))
                assert float(per_query[qi, position]).hex() == (
                    q_norm.get(block_id, 0.0).hex()
                )


class TestPresenceIsNotEnergy:
    def test_underflowing_square_still_schedules_its_block(self):
        allocation = tiling((8, 8), 3)
        keys = np.array([(0, 0), (7, 7)])
        values = np.array([1.0, 1e-200])
        codes, _ = allocation.locate(keys)
        norms = dict.fromkeys(range(allocation.n_codes), 1.0)
        schedule = schedule_blocks(values, codes, allocation, norms)
        assert [allocation.block_tuple(c) for c in schedule.codes] == [
            block_of(allocation, (0, 0)), block_of(allocation, (7, 7))
        ]
        assert schedule.query_norms.tolist() == [1.0, 0.0]
        assert schedule.entries(1).tolist() == [1]
        counts, per_query = schedule.per_query(np.array([0, 1, 2]))
        assert counts.tolist() == [[1, 0], [0, 1]]
        assert per_query.tolist() == [[1.0, 0.0], [0.0, 0.0]]


class TestEmptyTranslation:
    def test_empty_schedule(self):
        allocation = tiling((8, 8), 3)
        schedule = schedule_blocks(
            np.empty(0), np.empty(0, dtype=np.intp), allocation, {}
        )
        assert len(schedule) == 0
        assert schedule.codes.tolist() == []
        assert schedule.bound == 0.0
        counts, per_query = schedule.per_query(np.array([0, 0, 0]))
        assert counts.shape == per_query.shape == (2, 0)

    def test_no_consumer_calls_the_device(self):
        cube = np.random.default_rng(5).poisson(3.0, (16, 16)).astype(float)
        engine = ProPolyneEngine(
            cube, max_degree=1, block_size=3, storage=StorageSpec(shards=2)
        )
        empty = RangeSumQuery.count([(5, 4), (0, 15)])
        batcher = BatchEvaluator(engine)
        before = engine.store.io_snapshot()
        assert [e.blocks_read for e in engine.evaluate_progressive(empty)] == [0]
        outcome = engine.evaluate_degradable(empty)
        assert (outcome.value, outcome.degraded) == (0.0, False)
        assert explain(engine, empty).blocks_to_read == 0
        assert provenance_of(engine, empty, outcome).blocks_planned == 0
        assert batcher.evaluate_exact([empty, empty]) == [0.0, 0.0]
        assert [o.value for o in batcher.evaluate_degradable([empty])] == [0.0]
        assert list(batcher.evaluate_progressive([empty])) == []
        assert batcher.shared_block_count([empty]) == 0
        assert engine.store.io_since(before).reads == 0
        engine.store.close()
