"""Tests for ADPCM, Huffman and basis selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import AcquisitionError, TransformError
from repro.acquisition.adpcm import AdpcmCodec
from repro.acquisition.basis_select import select_bases, select_basis
from repro.acquisition.huffman import (
    build_code,
    compressed_size,
    decode,
    encode,
)


class TestAdpcm:
    def test_roundtrip_accuracy(self):
        t = np.arange(2000) / 100.0
        signal = 20 * np.sin(2 * np.pi * 1.5 * t) + 5 * np.sin(2 * np.pi * 4 * t)
        codec = AdpcmCodec()
        decoded = codec.decode(codec.encode(signal))
        nrmse = np.sqrt(np.mean((decoded - signal) ** 2)) / np.ptp(signal)
        assert nrmse < 0.02

    def test_compression_ratio(self):
        signal = np.sin(np.arange(4000) / 30.0)
        block = AdpcmCodec().encode(signal)
        raw_bytes = signal.size * 4
        assert block.encoded_bytes < raw_bytes / 7  # ~8:1 over float32

    def test_constant_signal(self):
        codec = AdpcmCodec()
        decoded = codec.decode(codec.encode(np.full(100, 7.0)))
        np.testing.assert_allclose(decoded, 7.0, atol=0.05)

    def test_validation(self):
        codec = AdpcmCodec()
        with pytest.raises(AcquisitionError):
            codec.encode(np.array([1.0]))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_roundtrip_property_smooth_signals(self, seed):
        rng = np.random.default_rng(seed)
        # Smooth random signal (ADPCM is a delta codec: smoothness matters).
        signal = np.cumsum(rng.normal(size=500)) * 0.1
        codec = AdpcmCodec()
        decoded = codec.decode(codec.encode(signal))
        spread = float(np.ptp(signal)) or 1.0
        assert np.sqrt(np.mean((decoded - signal) ** 2)) / spread < 0.05


class TestHuffman:
    def test_roundtrip(self):
        data = bytes([1, 1, 1, 2, 2, 3, 250, 3, 3, 1])
        code = build_code(data)
        assert decode(encode(data, code), code, len(data)) == data

    def test_skewed_distribution_compresses(self):
        data = bytes([0] * 900 + list(range(1, 101)))
        code = build_code(data)
        bits = len(encode(data, code))
        assert bits < len(data) * 8 / 2

    def test_uniform_distribution_incompressible(self):
        data = bytes(range(256)) * 4
        code = build_code(data)
        bits = len(encode(data, code))
        assert bits == len(data) * 8

    def test_single_symbol(self):
        data = bytes([7] * 50)
        code = build_code(data)
        assert decode(encode(data, code), code, 50) == data

    def test_prefix_free(self):
        data = bytes(np.random.default_rng(0).integers(0, 40, 500).tolist())
        code = build_code(data)
        words = list(code.codes.values())
        for i, a in enumerate(words):
            for b in words[i + 1 :]:
                assert not a.startswith(b) and not b.startswith(a)

    def test_empty_rejected(self):
        with pytest.raises(AcquisitionError):
            build_code(b"")

    def test_unknown_symbol_rejected(self):
        code = build_code(b"aa")
        with pytest.raises(AcquisitionError):
            encode(b"ab", code)

    def test_compressed_size_smaller_for_smooth_session(self):
        t = np.arange(2000) / 100.0
        smooth = np.column_stack([np.sin(2 * np.pi * 0.5 * t)] * 4) * 20
        size = compressed_size(smooth, quantization=0.1)
        assert size < smooth.size * 4

    def test_compressed_size_validation(self):
        with pytest.raises(AcquisitionError):
            compressed_size(np.zeros(10))
        with pytest.raises(AcquisitionError):
            compressed_size(np.zeros((4, 4)), quantization=0.0)


class TestBasisSelection:
    def test_low_cardinality_gets_standard(self):
        column = np.repeat([1.0, 2.0, 3.0], 100)
        choice = select_basis(column, dimension=2)
        assert choice.kind == "standard"
        assert choice.dimension == 2
        assert choice.detail == (3,)

    def test_dense_signal_gets_wavelet(self):
        rng = np.random.default_rng(0)
        column = np.cumsum(rng.normal(size=512))
        choice = select_basis(column)
        assert choice.kind == "wavelet"

    def test_packet_allowed_for_oscillatory_signal(self):
        t = np.arange(512)
        column = np.sin(2 * np.pi * 60 * t / 512)
        choice = select_basis(column, allow_packet=True)
        # A pure tone is exactly what packets beat plain DWT on.
        assert choice.kind == "packet"
        assert len(choice.detail) >= 2

    def test_packet_not_proposed_when_disallowed(self):
        t = np.arange(512)
        column = np.sin(2 * np.pi * 60 * t / 512)
        choice = select_basis(column, allow_packet=False)
        assert choice.kind == "wavelet"

    def test_empty_column_rejected(self):
        with pytest.raises(TransformError):
            select_basis(np.array([]))

    def test_select_bases_for_paper_schema(self):
        """The paper's example: (sensor_id, x, y, z) standard, value
        wavelet."""
        rng = np.random.default_rng(1)
        rows = 1024
        sensor_id = rng.integers(1, 9, size=rows).astype(float)
        x = rng.choice([0.0, 1.0, 2.0], size=rows)  # sensor confined in space
        value = np.cumsum(rng.normal(size=rows))
        relation = np.column_stack([sensor_id, x, value])
        choices = select_bases(relation)
        kinds = [c.kind for c in choices]
        assert kinds[0] == "standard"
        assert kinds[1] == "standard"
        assert kinds[2] == "wavelet"

    def test_select_bases_validation(self):
        with pytest.raises(TransformError):
            select_bases(np.zeros(10))
