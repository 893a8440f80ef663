"""The one reduction order (``repro.core.reduce``) and the bits it buys.

Unit tests pin the module's contract: a segment of ``segmented_dot``
is the ``dot`` of that segment, shuffled among others or in runs of
one length, ``sum_squares`` reads scattered
segments as ``segmented_dot`` reads packed ones, a stacked ``dot`` is the ``dot`` of each
row, ``dot_columns`` adds its columns in the order ``dot`` adds a row
and ``dot_row`` adds a row of Python floats in that order, empty input sums to ``0.0`` and a strided view reduces like its
copy.  ``test_bits_do_not_depend_on_the_blas_kernel`` then digests
exact, batch and progressive answers, an ``insert_batch``, the block
norms, ``to_coefficients`` and a lazy transform in this process and in
two children that run another BLAS kernel (``OPENBLAS_CORETYPE``) and
numpy without its AVX2/AVX-512 loops (``NPY_DISABLE_CPU_FEATURES``),
and requires one digest.  Run as a script, the file prints its digest.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reduce import (
    dot,
    dot_columns,
    dot_row,
    segmented_dot,
    sum_squares,
    total,
)
from repro.query.batch import BatchEvaluator
from repro.query.propolyne import ProPolyneEngine
from repro.query.rangesum import RangeSumQuery
from repro.wavelets.lazy import lazy_range_query_transform

RNG = np.random.default_rng(41)

KERNELS = (
    {"OPENBLAS_CORETYPE": "Sandybridge"},
    {"NPY_DISABLE_CPU_FEATURES": "AVX512F,AVX512CD,AVX512_SKX,AVX512_CLX,"
     "AVX512_CNL,AVX512_ICL,AVX512_SPR,AVX2,FMA3"},
)

SEGMENT_LENGTHS = st.one_of(
    st.just(0), st.just(1), st.integers(2, 20), st.integers(129, 400)
)


def per_segment_reference(a, b, offsets) -> np.ndarray:
    """Each segment's own ``np.add.reduce`` of the products."""
    products = a * b
    return np.array([
        np.add.reduce(products[lo:hi]) for lo, hi in zip(offsets, offsets[1:])
    ], dtype=float)


class TestReduce:
    def test_each_segment_is_the_dot_of_that_segment(self):
        a, b = RNG.normal(size=(2, 300))
        offsets = np.array([0, 0, 1, 7, 8, 9, 150, 300])
        got = segmented_dot(a, b, offsets)
        assert got.tolist() == [
            dot(a[lo:hi], b[lo:hi]) for lo, hi in zip(offsets, offsets[1:])
        ]
        assert segmented_dot(a, b, [0, 300]).tolist() == [dot(a, b)]

    @settings(max_examples=150, deadline=None)
    @given(
        lengths=st.lists(SEGMENT_LENGTHS, max_size=24),
        repeated=st.tuples(SEGMENT_LENGTHS, st.integers(0, 40)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_segments_match_the_per_segment_reference(
        self, lengths, repeated, seed
    ):
        # Empty segments, length 1, lengths past numpy's 128-element
        # pairwise block, and many segments of one length, shuffled.
        length, count = repeated
        rng = np.random.default_rng(seed)
        lengths = rng.permutation(lengths + [length] * count).astype(np.intp)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        a, b = rng.normal(size=(2, offsets[-1])) * 10.0 ** rng.integers(
            -8, 8, (2, offsets[-1])
        )
        want = per_segment_reference(a, b, offsets)
        assert segmented_dot(a, b, offsets).tobytes() == want.tobytes()

    def test_each_length_class_in_adjacent_runs(self):
        # Unshuffled: runs of each length class side by side, empty
        # runs between non-empty ones, before them and at the end.
        lengths = [0, 0, 1, 1, 1, 0, 5, 5, 5, 5, 0, 0, 200, 200, 1, 7, 0]
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        a, b = RNG.normal(size=(2, offsets[-1]))
        got = segmented_dot(a, b, offsets)
        assert got.tobytes() == per_segment_reference(a, b, offsets).tobytes()
        assert got[np.array(lengths) == 0].tobytes() == bytes(8 * lengths.count(0))

    @settings(max_examples=100, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(SEGMENT_LENGTHS, st.integers(1, 8), st.integers(0, 3)),
            max_size=8,
        ),
        trailing=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_adjacent_runs_match_the_per_segment_reference(
        self, runs, trailing, seed
    ):
        # Each run: ``count`` segments of one length, then ``empties``
        # empty ones; the stack ends in a run of empty segments.
        lengths = [0] * trailing
        for length, count, empties in reversed(runs):
            lengths = [length] * count + [0] * empties + lengths
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(2, offsets[-1])) * 10.0 ** rng.integers(
            -8, 8, (2, offsets[-1])
        )
        want = per_segment_reference(a, b, offsets)
        assert segmented_dot(a, b, offsets).tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(SEGMENT_LENGTHS, min_size=1, max_size=24),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sum_squares_reads_scattered_segments_like_packed_ones(
        self, lengths, seed
    ):
        # The segments scattered in a larger array, in shuffled order,
        # with gaps: bitwise the dots of the same segments packed.
        rng = np.random.default_rng(seed)
        lengths = np.array(lengths, dtype=np.intp)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        packed = rng.normal(size=offsets[-1]) * 10.0 ** rng.integers(
            -8, 8, offsets[-1]
        )
        gaps = rng.integers(0, 5, len(lengths))
        starts = np.cumsum(lengths + gaps) - lengths
        spread = np.full(int(starts[-1] + lengths[-1] + 3), np.nan)
        for start, lo, hi in zip(starts, offsets, offsets[1:]):
            spread[start:start + hi - lo] = packed[lo:hi]
        order = rng.permutation(len(lengths))
        want = segmented_dot(packed, packed, offsets)[order]
        got = sum_squares(spread, starts[order], lengths[order])
        assert got.tobytes() == want.tobytes()

    def test_a_stacked_dot_is_the_dot_of_each_row(self):
        windows = RNG.normal(size=(50, 4, 9))
        taps = RNG.normal(size=(2, 1, 9))
        got = dot(windows[:, None], taps)
        assert got.shape == (50, 2, 4)
        for i, j, k in np.ndindex(got.shape):
            assert got[i, j, k] == dot(windows[i, k], taps[j, 0])
        # Whatever the operands' memory layout.
        fortran = np.asfortranarray(windows)
        assert dot(fortran, taps[0]).tolist() == dot(windows, taps[0]).tolist()

    def test_columns_add_in_the_order_dot_adds_a_row(self):
        # Every length up to 300 crosses numpy's three regimes (under 8
        # terms, 8 to 128, the halving split).  Rows of signed zeros,
        # infinities, NaNs, subnormals and 1e+-300 magnitudes; columns
        # are strided views.  A NaN's payload is the one thing not
        # compared: which operand's NaN survives is the SIMD loop's pick.
        rng = np.random.default_rng(46)
        special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324,
                            -5e-324, 2.2e-308, 1e-300, 1e300, -1e300])
        for length in range(1, 301):
            grid = rng.normal(size=(12, 2 * length)) * 10.0 ** rng.integers(
                -300, 300, (12, 2 * length)
            )
            grid[0] = -0.0
            grid[1] = rng.choice([0.0, -0.0], 2 * length)
            grid[2:5] = rng.choice(special, (3, 2 * length))
            grid[5] = rng.choice(special[5:9], 2 * length)
            taps = rng.normal(size=length)
            taps[rng.random(length) < 0.1] = -0.0
            columns = [grid[:, 2 * m] for m in range(length)]
            with np.errstate(all="ignore"):
                want = dot(np.stack(columns, -1), taps)
                got = dot_columns(columns, taps)
            assert np.isnan(got).tolist() == np.isnan(want).tolist(), length
            got[np.isnan(got)] = want[np.isnan(want)] = 0.0
            assert got.tobytes() == want.tobytes(), length
        assert dot_columns([np.array([-0.0])] * 3, [1.0] * 3).tobytes() == (
            np.array([0.0]).tobytes()
        )

    def test_a_row_of_python_floats_adds_in_the_order_dot_adds_it(self):
        # The same rows as above, one at a time as Python floats, under
        # every dispatch numpy's dot may take; NaN payloads not compared.
        rng = np.random.default_rng(49)
        special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324,
                            -5e-324, 2.2e-308, 1e-300, 1e300, -1e300])
        for length in range(1, 301):
            rows = rng.normal(size=(8, length)) * 10.0 ** rng.integers(
                -300, 300, (8, length)
            )
            rows[0] = -0.0
            rows[1] = rng.choice([0.0, -0.0], length)
            rows[2:5] = rng.choice(special, (3, length))
            rows[5] = rng.choice(special[5:9], length)
            taps = rng.normal(size=length)
            taps[rng.random(length) < 0.1] = -0.0
            for row in rows:
                with np.errstate(all="ignore"):
                    want = float(dot(row, taps))
                    got = dot_row(row.tolist(), taps.tolist())
                assert type(got) is float
                if np.isnan(want):
                    assert np.isnan(got), length
                else:
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), length
        assert dot_row([], []) == 0.0
        assert np.float64(dot_row([-0.0] * 3, [1.0] * 3)).tobytes() == (
            np.float64(0.0).tobytes()
        )

    def test_empty_input_sums_to_zero(self):
        empty = np.empty(0)
        assert dot(empty, empty) == 0.0
        assert total(empty) == 0.0 and total([]) == 0.0
        assert segmented_dot(empty, empty, [0, 0]).tolist() == [0.0]
        assert segmented_dot(empty, empty, [0]).tolist() == []

    def test_a_strided_view_reduces_like_its_copy(self):
        a, b = RNG.normal(size=(2, 2001))
        view_a, view_b = a[::3], b[1::3]
        assert dot(view_a, view_b) == dot(view_a.copy(), view_b.copy())
        assert total(view_a) == total(view_a.copy())
        offsets = [0, 5, 400, len(view_a)]
        assert segmented_dot(view_a, view_b, offsets).tolist() == (
            segmented_dot(view_a.copy(), view_b.copy(), offsets).tolist()
        )

    def test_total_adds_left_to_right_along_the_last_axis(self):
        rows = RNG.normal(size=(3, 40)) * 10.0 ** RNG.integers(-8, 8, 40)
        for row, got in zip(rows, total(rows)):
            acc = 0.0
            for value in row.tolist():
                acc += value
            assert got == acc


def kernel_digest() -> str:
    """One sha256 over every reduction a query, an insert and a populate
    perform on a small cube."""
    cube = np.random.default_rng(7).poisson(3.0, (16, 16, 8)).astype(float)
    engine = ProPolyneEngine(cube, max_degree=2, block_size=3)
    queries = [
        RangeSumQuery.count([(0, 15), (0, 15), (0, 7)]),
        RangeSumQuery.count([(2, 13), (5, 9), (1, 6)]),
        RangeSumQuery.weighted([(1, 14), (0, 15), (2, 7)], {0: 1, 2: 2}),
    ]
    sha = hashlib.sha256()

    def put(values):
        sha.update(np.asarray(values, dtype=float).tobytes())

    def observe():
        put([engine.evaluate_exact(q) for q in queries])
        put(BatchEvaluator(engine).evaluate_exact(queries))
        for step in engine.evaluate_progressive(queries[2]):
            put([step.estimate, step.error_bound, step.error_estimate])
        put(list(engine._block_norms.values()))
        put([engine.store.data_norm])
        put(engine.to_coefficients())

    observe()
    points = np.random.default_rng(8).integers(0, 8, (24, 3)) * [2, 2, 1]
    engine.inserter.insert_batch(points, np.linspace(-2.0, 3.0, 24))
    observe()
    put(lazy_range_query_transform([2.0, -3.0, 1.0], 17, 101, 128, "db3").arrays[1])
    return sha.hexdigest()


def test_bits_do_not_depend_on_the_blas_kernel():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    children = [
        subprocess.Popen(
            [sys.executable, __file__], env={**env, **kernel},
            stdout=subprocess.PIPE, text=True,
        )
        for kernel in KERNELS
    ]
    here = kernel_digest()
    for child, kernel in zip(children, KERNELS):
        out, _ = child.communicate(timeout=120)
        assert child.returncode == 0, kernel
        assert out.strip() == here, kernel


if __name__ == "__main__":
    print(kernel_digest())
