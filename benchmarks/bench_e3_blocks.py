"""E3 — §3.2.1: for block size B, the expected number of needed items per
retrieved block is below 1 + lg B, and error-tree subtree tiling
approaches that ceiling where naive allocations do not.

Workload: a full Haar decomposition of a length-2^14 signal; 200 random
point queries (root-to-leaf paths) and 200 random range-sums (boundary
path unions); block sizes B in {3, 7, 15, 31, 63}.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.storage.allocation import (
    depth_first_allocation,
    measure_utilization,
    point_query_workload,
    random_allocation,
    range_query_workload,
    sequential_allocation,
    subtree_tiling_allocation,
    utilization_bound,
)

from _util import format_table

N = 2**14
BLOCK_SIZES = (3, 7, 15, 31, 63)


def run_study():
    rng = np.random.default_rng(3)
    workloads = {
        "point": point_query_workload(N, rng, count=200),
        "range": range_query_workload(N, rng, count=200),
    }
    rows = []
    measures = {}
    for block in BLOCK_SIZES:
        allocations = {
            "sequential": sequential_allocation(N, block),
            "depth_first": depth_first_allocation(N, block),
            "random": random_allocation(N, block, np.random.default_rng(9)),
            "tiling": subtree_tiling_allocation(N, block),
        }
        for workload_name, workload in workloads.items():
            cells = {}
            for alloc_name, alloc in allocations.items():
                cells[alloc_name] = measure_utilization(alloc, workload)
            measures[(block, workload_name)] = cells
            rows.append(
                [
                    block,
                    workload_name,
                    f"{cells['sequential']:.2f}",
                    f"{cells['depth_first']:.2f}",
                    f"{cells['random']:.2f}",
                    f"{cells['tiling']:.2f}",
                    f"{utilization_bound(block):.2f}",
                ]
            )
    return measures, rows


def test_e3_tiling_meets_bound(emit, benchmark):
    measures, rows = benchmark.pedantic(run_study, rounds=1, iterations=1)
    emit(
        "E3_block_utilization",
        format_table(
            ["B", "workload", "sequential", "depth_first", "random",
             "tiling", "1+lgB bound"],
            rows,
        ),
    )
    for (block, workload), cells in measures.items():
        # The theoretical ceiling holds for every allocation.
        for name, value in cells.items():
            assert value <= utilization_bound(block) + 1e-9, (
                f"{name} exceeded the bound at B={block}"
            )
        # Tiling dominates every baseline on both workloads.
        for baseline in ("sequential", "depth_first", "random"):
            assert cells["tiling"] >= cells[baseline] - 1e-9, (
                f"tiling lost to {baseline} at B={block}/{workload}"
            )
    # On point queries every path's J + 1 items lie in ceil(J/h) tiles
    # of height h = lg(B+1) — the partial one is the root tile, which
    # node 0 joins — plus node 0's own block when h divides J (each B
    # here is 2**h - 1, so a full root tile has no free slot).
    levels = N.bit_length() - 1
    for block in BLOCK_SIZES:
        height = int(math.log2(block + 1))
        blocks = -(-levels // height) + (levels % height == 0)
        got = measures[(block, "point")]["tiling"]
        assert got == pytest.approx((levels + 1) / blocks)
