"""Scalar spellings for device tests: the protocol is ``read_many`` /
``write_many``, and a single block is a group of one."""


def read_block(device, block_id):
    """One block's payload through ``device.read_many``."""
    return device.read_many([block_id])[block_id]


def write_block(device, block_id, items) -> None:
    """Store one block through ``device.write_many``."""
    device.write_many({block_id: items})


def block_of(allocation, key) -> tuple:
    """Reference block id of one multi-index, straight from the per-axis
    ``Allocation.block_of`` tables (the scalar form ``locate`` replaced)."""
    return tuple(int(a.block_of[i]) for a, i in zip(allocation.axes, key))
