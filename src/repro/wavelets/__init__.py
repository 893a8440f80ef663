"""Wavelet substrate: filters, DWT, DWPT, error tree, lazy transform.

This package is the signal-processing foundation the AIMS paper builds on:
orthonormal filter banks (:mod:`repro.wavelets.filters`), the periodized
multilevel DWT (:mod:`repro.wavelets.dwt`), tensor-product multivariate
transforms (:mod:`repro.wavelets.tensor`), the wavelet packet library with
best-basis selection (:mod:`repro.wavelets.packet`), the error tree used by
the storage tiling study (:mod:`repro.wavelets.errortree`), top-B data
synopses (:mod:`repro.wavelets.synopsis`) and — most importantly — the lazy
wavelet transform of polynomial range queries (:mod:`repro.wavelets.lazy`)
that powers ProPolyne.
"""

from repro.wavelets.dwt import (
    WaveletCoefficients,
    dwt_level,
    idwt_level,
    is_power_of_two,
    max_levels,
    wavedec,
    waverec,
)
from repro.wavelets.filters import WaveletFilter, daubechies, get_filter, haar
from repro.wavelets.lazy import (
    SparseWaveletVector,
    lazy_range_query_transform,
    poly_after_filter,
)
from repro.wavelets.packet import (
    PacketNode,
    basis_reconstruct,
    basis_transform,
    best_basis,
    joint_best_basis,
    lp_cost,
    shannon_cost,
    threshold_cost,
    wavelet_packet_decompose,
)
from repro.wavelets.synopsis import WaveletSynopsis, build_synopsis
from repro.wavelets.tensor import tensor_levels, tensor_wavedec, tensor_waverec

__all__ = [
    "WaveletFilter",
    "daubechies",
    "haar",
    "get_filter",
    "WaveletCoefficients",
    "dwt_level",
    "idwt_level",
    "wavedec",
    "waverec",
    "max_levels",
    "is_power_of_two",
    "SparseWaveletVector",
    "lazy_range_query_transform",
    "poly_after_filter",
    "PacketNode",
    "wavelet_packet_decompose",
    "best_basis",
    "joint_best_basis",
    "basis_transform",
    "basis_reconstruct",
    "shannon_cost",
    "threshold_cost",
    "lp_cost",
    "WaveletSynopsis",
    "build_synopsis",
    "tensor_wavedec",
    "tensor_waverec",
    "tensor_levels",
]
