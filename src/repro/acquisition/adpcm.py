"""IMA ADPCM codec — the quantization baseline of §3.1.

The paper's follow-up study [29] "investigated other conventional
compression techniques, such as quantization techniques (e.g., Adaptive
DPCM)" and combined them with the sampling strategies, finding "only
marginal improvement by combining ADPCM with adaptive sampling" —
experiment E2 reproduces that finding with this codec.

This is the standard IMA/DVI ADPCM scheme: 4 bits per sample, a step-size
table walked by a per-sample index adaptation, encoding the *difference*
between consecutive samples.  Signals are scaled into int16 before
encoding, so the codec achieves a fixed 4:1 ratio over 16-bit PCM (8:1
over the 4-byte floats the sampling strategies account in).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import AcquisitionError

__all__ = ["AdpcmCodec", "AdpcmBlock"]

# Standard IMA ADPCM tables.
_STEP_TABLE = np.array([
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
    41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
    190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
    724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
    2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
    6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
    16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
], dtype=np.int64)

_INDEX_TABLE = np.array(
    [-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8], dtype=np.int64
)

BITS_PER_CODE = 4


@dataclass
class AdpcmBlock:
    """An encoded channel: 4-bit codes plus the scaling/seed header."""

    codes: np.ndarray  # uint8 array of 4-bit codes
    scale: float  # float -> int16 scaling used
    offset: float  # mean removed before scaling
    seed: int  # first predictor value (int16 domain)

    @property
    def encoded_bytes(self) -> int:
        """Payload size: 4 bits per code plus a 12-byte header."""
        return (self.codes.size * BITS_PER_CODE + 7) // 8 + 12


class AdpcmCodec:
    """Encoder/decoder for one float channel."""

    def encode(self, signal: np.ndarray) -> AdpcmBlock:
        """Encode a 1-D float signal.

        The signal is centred, scaled to span the int16 range, then
        delta-encoded with the IMA step adaptation.
        """
        arr = np.asarray(signal, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise AcquisitionError(
                f"ADPCM needs a 1-D signal of >= 2 samples, got {arr.shape}"
            )
        offset = float(arr.mean())
        peak = float(np.max(np.abs(arr - offset)))
        scale = 30000.0 / peak if peak > 0 else 1.0
        pcm = np.clip((arr - offset) * scale, -32768, 32767).astype(np.int64)

        codes = np.empty(pcm.size - 1, dtype=np.uint8)
        predictor = int(pcm[0])
        index = 0
        for i in range(1, pcm.size):
            diff = int(pcm[i]) - predictor
            step = int(_STEP_TABLE[index])
            code = 0
            if diff < 0:
                code = 8
                diff = -diff
            delta = step >> 3
            if diff >= step:
                code |= 4
                diff -= step
                delta += step
            if diff >= step >> 1:
                code |= 2
                diff -= step >> 1
                delta += step >> 1
            if diff >= step >> 2:
                code |= 1
                delta += step >> 2
            predictor += -delta if code & 8 else delta
            predictor = int(np.clip(predictor, -32768, 32767))
            index = int(np.clip(index + _INDEX_TABLE[code], 0, 88))
            codes[i - 1] = code
        return AdpcmBlock(
            codes=codes, scale=scale, offset=offset, seed=int(pcm[0])
        )

    def decode(self, block: AdpcmBlock) -> np.ndarray:
        """Decode back to a float signal of length ``len(codes) + 1``."""
        out = np.empty(block.codes.size + 1, dtype=np.int64)
        predictor = block.seed
        index = 0
        out[0] = predictor
        for i, code in enumerate(block.codes):
            step = int(_STEP_TABLE[index])
            delta = step >> 3
            if code & 4:
                delta += step
            if code & 2:
                delta += step >> 1
            if code & 1:
                delta += step >> 2
            predictor += -delta if code & 8 else delta
            predictor = int(np.clip(predictor, -32768, 32767))
            index = int(np.clip(index + _INDEX_TABLE[code], 0, 88))
            out[i + 1] = predictor
        return out.astype(float) / block.scale + block.offset
