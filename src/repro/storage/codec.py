"""Block codec: a self-verifying wire/disk format for block payloads.

§4 of the paper plans to move packed coefficient blocks from Teradata
BLOBs to "disk blocks on raw disk".  Raw blocks have no database
underneath to notice bit rot or torn writes, so the codec frames every
payload with a CRC32 and refuses to decode anything that fails the
check — a corrupted block surfaces as a typed
:class:`~repro.core.errors.CorruptedBlockError` instead of silently
wrong coefficients.  The fault-injection layer (:mod:`repro.faults`)
routes "torn block" reads through this codec, which is how the retry
machinery distinguishes a damaged payload (retryable: re-read the
block) from a missing one (not retryable).

Format: ``MAGIC (4 bytes) | CRC32 of body (4 bytes, little-endian) |
body (the block's values as raw little-endian float64)``.  Nothing read
back from a device is ever unpickled.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.core.errors import CorruptedBlockError
from repro.obs import counter as obs_counter

__all__ = ["BLOCK_MAGIC", "FRAME_HEADER_BYTES", "block_crc",
           "decode_block", "encode_block"]

#: Leading frame marker; a payload that does not start with it was
#: overwritten or truncated at rest.
BLOCK_MAGIC = b"AIMS"

_HEADER = struct.Struct("<4sI")

#: A frame of ``n`` bytes holds ``(n - FRAME_HEADER_BYTES) // 8`` values.
FRAME_HEADER_BYTES = _HEADER.size


def block_crc(items: np.ndarray) -> int:
    """CRC32 of a block payload's encoded body (the stored checksum)."""
    return zlib.crc32(_body(items)) & 0xFFFFFFFF


def _body(items: np.ndarray) -> bytes:
    return np.ascontiguousarray(items, dtype="<f8").tobytes()


def encode_block(items: np.ndarray) -> bytes:
    """Frame one block payload as ``MAGIC | CRC32(body) | body`` bytes."""
    body = _body(items)
    return _HEADER.pack(BLOCK_MAGIC, zlib.crc32(body) & 0xFFFFFFFF) + body


def _corrupted(message: str) -> CorruptedBlockError:
    obs_counter("faults.crc_failures").inc()
    return CorruptedBlockError(message)


def decode_block(data: bytes) -> np.ndarray:
    """Decode an :func:`encode_block` frame, verifying its CRC first.

    Returns a read-only array viewing the frame's body.  Raises
    :class:`~repro.core.errors.CorruptedBlockError` (and ticks the
    ``faults.crc_failures`` counter) on anything that is not a frame: a
    bad magic, a short frame, a CRC mismatch, or a body that is not a
    whole number of float64 values.
    """
    if (
        not isinstance(data, bytes)
        or len(data) < _HEADER.size
        or data[:4] != BLOCK_MAGIC
    ):
        raise _corrupted(
            "block frame is truncated or its magic marker is gone"
        )
    _magic, stored = _HEADER.unpack_from(data)
    computed = zlib.crc32(memoryview(data)[_HEADER.size:]) & 0xFFFFFFFF
    if computed != stored:
        raise _corrupted(
            f"block payload failed its CRC check "
            f"(stored {stored:#010x}, computed {computed:#010x})"
        )
    if (len(data) - _HEADER.size) % 8:
        raise _corrupted(
            f"block body of {len(data) - _HEADER.size} bytes is not a "
            f"whole number of float64 values"
        )
    return np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
