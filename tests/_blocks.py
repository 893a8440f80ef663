"""Scalar spellings for device tests: the protocol is ``read_many`` /
``write_many`` over block codes, and a single block is a group of one."""

import numpy as np

from repro.storage.sharding import placement_table


def read_block(device, code):
    """One block's payload through ``device.read_many``."""
    return device.read_many([code]).payloads[0]


def write_block(device, code, items) -> None:
    """Store one block through ``device.write_many``."""
    device.write_many([code], [items])


def read_map(device, codes) -> dict:
    """``{code: payload}`` of one group read, in the order it came back."""
    group = device.read_many(codes)
    assert len(group.codes) == len(group.payloads) == len(group.lens)
    assert group.lens.tolist() == [len(p) for p in group.payloads]
    return dict(zip(group.codes.tolist(), group.payloads))


def write_map(device, blocks: dict) -> None:
    """Store ``{code: payload}`` as one group write."""
    device.write_many(
        np.fromiter(blocks, dtype=np.intp, count=len(blocks)),
        list(blocks.values()),
    )


def codes_table(n_shards, n_codes=256):
    """The placement table of codes ``0 .. n_codes - 1`` (each its own
    block id), for stacks built without a store."""
    return placement_table(range(n_codes), n_shards)


def block_of(allocation, key) -> tuple:
    """Reference block id of one multi-index, straight from the per-axis
    ``Allocation.block_of`` tables (the scalar form ``locate`` replaced)."""
    return tuple(int(a.block_of[i]) for a, i in zip(allocation.axes, key))
