"""Progressive retrieval of stored signals from wavelet blocks (§3.2.1).

The storage section's payoff is not only aggregate queries: "we can define
a query dependent importance function on disk blocks ... which would allow
us to perform the most valuable I/O's first and deliver approximate
results progressively".  Applied to *signal retrieval*, that means a
stored sensor stream can be streamed back coarse-to-fine: fetch the blocks
carrying the most coefficient energy first, reconstruct after every fetch,
and hand the application a monotonically improving signal with a known
residual-energy bound (orthonormality makes the unfetched energy exactly
the squared reconstruction error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.errors import StorageError
from repro.core.reduce import total
from repro.storage.allocation import Allocation, subtree_tiling_allocation
from repro.storage.blockstore import WaveletBlockStore
from repro.storage.device import StorageSpec
from repro.wavelets.dwt import WaveletCoefficients, max_levels, wavedec, waverec
from repro.wavelets.filters import get_filter

__all__ = ["ProgressiveSignal", "SignalArchive"]


@dataclass(frozen=True)
class ProgressiveSignal:
    """One refinement step of a progressive signal retrieval.

    Attributes:
        signal: Reconstruction from the coefficients fetched so far.
        residual_energy: Squared L2 norm of everything not yet fetched —
            exactly ``||signal - exact||^2`` by orthonormality.
        blocks_read: Device blocks fetched so far.
    """

    signal: np.ndarray
    residual_energy: float
    blocks_read: int

    def nrmse(self, reference: np.ndarray) -> float:
        """Normalized RMS error against a reference signal."""
        ref = np.asarray(reference, dtype=float)
        spread = float(ref.max() - ref.min()) or 1.0
        return float(np.sqrt(np.mean((self.signal - ref) ** 2))) / spread


class SignalArchive:
    """A 1-D sensor signal stored as tiled wavelet blocks.

    Args:
        signal: The signal to archive (power-of-two length).
        wavelet: Filter name.
        block_size: Tiling block size.
        pool_capacity: Optional buffer-pool size.
    """

    def __init__(
        self,
        signal: np.ndarray,
        wavelet: str = "db2",
        block_size: int = 7,
        pool_capacity: int | None = None,
    ) -> None:
        data = np.asarray(signal, dtype=float)
        if data.ndim != 1:
            raise StorageError(
                f"signal archives are 1-D, got ndim={data.ndim}"
            )
        filt = get_filter(wavelet)
        self.levels = max_levels(data.size, filt)
        if self.levels < 1:
            raise StorageError(
                f"signal of length {data.size} cannot be archived with "
                f"{filt.length}-tap filter"
            )
        self.wavelet = filt.name
        self.length = data.size
        flat = wavedec(data, filt, levels=self.levels).to_flat()
        allocation = subtree_tiling_allocation(data.size, block_size)
        self.store = WaveletBlockStore(
            flat, allocation, storage=StorageSpec(cache_blocks=pool_capacity)
        )
        # Per-block energies, recorded at archive time for the
        # importance order and the residual bound.
        self._block_energy: dict[int, float] = {}
        for idx, value in enumerate(flat):
            code = int(allocation.block_of[idx])
            self._block_energy[code] = (
                self._block_energy.get(code, 0.0) + float(value) ** 2
            )

    @property
    def n_blocks(self) -> int:
        """Blocks the archive occupies."""
        return len(self._block_energy)

    def retrieve_exact(self) -> np.ndarray:
        """Full-fidelity retrieval (reads every block)."""
        last = None
        for step in self.retrieve_progressive():
            last = step
        return last.signal

    def retrieve_progressive(self) -> Iterator[ProgressiveSignal]:
        """Stream refinements, most energetic blocks first."""
        order = sorted(
            self._block_energy, key=lambda b: -self._block_energy[b]
        )
        residual = float(total(list(self._block_energy.values())))
        flat = np.zeros(self.length)
        for step, code in enumerate(order, start=1):
            flat[self.store.allocation.block_keys(code)] = (
                self.store.fetch_block(code)
            )
            residual -= self._block_energy[code]
            bundle = WaveletCoefficients.from_flat(
                flat, self.levels, self.wavelet
            )
            yield ProgressiveSignal(
                signal=waverec(bundle),
                residual_energy=max(0.0, residual),
                blocks_read=step,
            )

    def retrieve_approximate(self, block_budget: int) -> ProgressiveSignal:
        """Best reconstruction within a block-I/O budget."""
        if block_budget < 1:
            raise StorageError(
                f"block budget must be >= 1, got {block_budget}"
            )
        last = None
        for last in self.retrieve_progressive():
            if last.blocks_read >= block_budget:
                break
        return last
