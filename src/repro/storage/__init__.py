"""Storage subsystem: the layered block-device stack (simulated disk +
composable middleware + sharding), wavelet block allocation, BLOB
catalog and progressive I/O scheduling (§3.2 of the paper)."""

from repro.storage.allocation import (
    Allocation,
    TensorAllocation,
    depth_first_allocation,
    measure_utilization,
    point_query_workload,
    random_allocation,
    range_query_workload,
    sequential_allocation,
    subtree_tiling_allocation,
    utilization_bound,
)
from repro.storage.blobstore import BlobRef, BlobStore
from repro.storage.blockstore import TensorBlockStore, WaveletBlockStore
from repro.storage.device import (
    BlockDevice,
    BuiltStorage,
    CachingDevice,
    CrcFramedDevice,
    DeviceLayer,
    MeteredDevice,
    PoolStats,
    ResilientDevice,
    StorageSpec,
)
from repro.storage.disk import IOStats, SimulatedDisk
from repro.storage.epochs import AsOfStore, EpochLog, EpochRecord
from repro.storage.latency import LatencyModel
from repro.storage.retrieval import ProgressiveSignal, SignalArchive
from repro.storage.scheduler import BlockSchedule, schedule_blocks
from repro.storage.sharding import ShardedDevice, place

__all__ = [
    "SimulatedDisk",
    "IOStats",
    "LatencyModel",
    "BlockDevice",
    "DeviceLayer",
    "StorageSpec",
    "BuiltStorage",
    "CachingDevice",
    "CrcFramedDevice",
    "MeteredDevice",
    "ResilientDevice",
    "ShardedDevice",
    "place",
    "Allocation",
    "TensorAllocation",
    "sequential_allocation",
    "random_allocation",
    "depth_first_allocation",
    "subtree_tiling_allocation",
    "utilization_bound",
    "measure_utilization",
    "point_query_workload",
    "range_query_workload",
    "WaveletBlockStore",
    "TensorBlockStore",
    "PoolStats",
    "BlobStore",
    "BlobRef",
    "BlockSchedule",
    "AsOfStore",
    "EpochLog",
    "EpochRecord",
    "SignalArchive",
    "ProgressiveSignal",
    "schedule_blocks",
]
