"""A BLOB store with location ids.

§4 of the paper: "currently, these blocks are stored as BLOBs (using
Teradata's BYTE data type) within Teradata.  However, we plan to store
them as disk blocks on raw disk and instead only store their location IDs
in Teradata."  This module models that catalog: named binary objects
addressed by opaque location ids, with byte accounting, so the AIMS facade
can persist packed coefficient blocks either way — BLOBs in the in-memory
catalog, or (the paper's "raw disk" plan) as blocks on any
:class:`~repro.storage.device.BlockDevice` passed as ``device``,
addressed by their location id, with only the name/size catalog kept
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import StorageError

__all__ = ["BlobRef", "BlobStore"]


@dataclass(frozen=True)
class BlobRef:
    """Opaque location id handed back by :meth:`BlobStore.put`."""

    location_id: int
    name: str
    n_bytes: int


@dataclass
class BlobStore:
    """BLOB catalog: in-memory, or backed by any block device.

    With ``device`` ``None`` payload bytes live in the catalog itself;
    with a :class:`~repro.storage.device.BlockDevice` (or a full
    middleware stack) each blob is the block whose code is its location
    id, and only names/sizes stay here.  The block holds the blob's
    bytes, zero-padded to whole words, viewed as the ``float64`` payload
    every layer stores (never computed on, so every bit comes back; a
    blob is at most ``8 * block_size`` bytes).
    """

    device: object = None
    _blobs: dict[int, bytes] = field(default_factory=dict)
    _names: dict[int, str] = field(default_factory=dict)
    _sizes: dict[int, int] = field(default_factory=dict)
    _next_id: int = 0

    def put(self, name: str, payload: bytes) -> BlobRef:
        """Store a blob, returning its location id."""
        if not isinstance(payload, (bytes, bytearray)):
            raise StorageError(
                f"blob payload must be bytes, got {type(payload).__name__}"
            )
        location = self._next_id
        self._next_id += 1
        if self.device is not None:
            words = np.frombuffer(bytes(payload) + bytes(-len(payload) % 8))
            self.device.write_many([location], [words])
        else:
            self._blobs[location] = bytes(payload)
        self._names[location] = name
        self._sizes[location] = len(payload)
        return BlobRef(location_id=location, name=name, n_bytes=len(payload))

    def put_array(self, name: str, array: np.ndarray) -> BlobRef:
        """Store a float array as a blob (little-endian float64)."""
        data = np.asarray(array, dtype="<f8")
        return self.put(name, data.tobytes())

    def get(self, ref: BlobRef | int) -> bytes:
        """Fetch a blob by reference or raw location id."""
        location = ref.location_id if isinstance(ref, BlobRef) else ref
        if location not in self._names:
            raise StorageError(f"no blob at location {location}")
        if self.device is not None:
            (words,) = self.device.read_many([location]).payloads
            return words.tobytes()[:self._sizes[location]]
        return self._blobs[location]

    def get_array(self, ref: BlobRef | int) -> np.ndarray:
        """Fetch a blob stored with :meth:`put_array`."""
        return np.frombuffer(self.get(ref), dtype="<f8").copy()

    def __len__(self) -> int:
        return len(self._names)

    @property
    def total_bytes(self) -> int:
        """Bytes held across all blobs."""
        return sum(self._sizes.values())
