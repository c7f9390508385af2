"""KV block codec property tests.

The raw codec must restore arbitrary blocks bitwise — including adversarial
fp16-edge values (denormals, constants, tiny value sets) — at wire bytes
equal to logical bytes; lossy codecs must restore within their declared
per-element error bound and encode deterministically (same block, same
bytes)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ConfigurationError
from repro.llm.kvcodec import (
    CODEC_NAMES,
    EncodedKV,
    Int4OutlierCodec,
    IntQuantCodec,
    KVBlockCodec,
    RawCodec,
    get_codec,
)

BLOCK_SHAPE = (2, 16, 8)  # (h_kv, tokens, d_h) — token axis is -2


def random_block(seed=0, shape=BLOCK_SHAPE, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(scale=scale, size=shape)


def adversarial_blocks():
    """fp16-edge inputs: denormals, constants, tiny palettes, huge runs."""
    rng = np.random.default_rng(7)
    tiny = np.float64(np.finfo(np.float16).tiny)  # smallest fp16 normal
    yield "zeros", np.zeros(BLOCK_SHAPE)
    yield "constant", np.full(BLOCK_SHAPE, -3.25)
    yield "denormals", rng.uniform(-tiny / 2, tiny / 2, size=BLOCK_SHAPE)
    yield "palette", rng.choice([-1.0, 0.0, 0.5, 2.0], size=BLOCK_SHAPE)
    yield "runs", np.repeat(
        np.arange(8, dtype=np.float64), np.prod(BLOCK_SHAPE) // 8
    ).reshape(BLOCK_SHAPE)
    yield "fp16-extremes", rng.choice(
        [65504.0, -65504.0, 6.1e-5, -6.1e-5, 0.0], size=BLOCK_SHAPE
    )
    yield "mixed-scale", rng.normal(size=BLOCK_SHAPE) * np.logspace(
        -4, 4, BLOCK_SHAPE[-1]
    )


# ------------------------------------------------------------ lossless codecs


class TestLosslessCodecs:
    def test_random_blocks_restore_bitwise(self):
        codec = RawCodec()
        for seed in range(5):
            block = random_block(seed, scale=10.0 ** (seed - 2))
            encoded = codec.encode(block)
            assert encoded.error_bound is None
            assert encoded.logical_nbytes == block.size * 2
            restored = encoded.decode()
            assert np.array_equal(restored, block), f"seed {seed}"

    def test_adversarial_blocks_restore_bitwise(self):
        codec = RawCodec()
        for label, block in adversarial_blocks():
            assert np.array_equal(codec.encode(block).decode(), block), label

    def test_raw_wire_equals_logical(self):
        block = random_block()
        encoded = RawCodec().encode(block)
        assert encoded.wire_nbytes == encoded.logical_nbytes

    def test_restore_unaffected_by_source_mutation(self):
        # The parked payload must be a copy: scribbling over the source
        # block after encode (the pool recycles it) cannot corrupt restore.
        block = random_block()
        original = block.copy()
        encoded = RawCodec().encode(block)
        block[...] = -1.0
        assert np.array_equal(encoded.decode(), original)


WIDTHS = [1, 2, 4, 8]

#: raw takes any shape, empty and token-less ones included
RAW_SHAPES = {
    "block": BLOCK_SHAPE,
    "single-token": (2, 1, 8),
    "empty": (2, 0, 8),
    "matrix": (5, 7),
    "vector": (9,),
}


def _read_only(block):
    block.setflags(write=False)
    return block


RAW_VIEWS = {
    "strided": lambda b: b[:, ::2],
    "transposed": lambda b: b.T,
    "scalar": lambda b: b[0, 0, 0],
    "read-only": _read_only,
}


class TestRawCodecContract:
    """Raw is the only lossless codec and every default tier path uses it:
    wire bytes equal logical bytes at the modelled width, and the parked
    payload restores bit for bit whatever it holds."""

    @pytest.mark.parametrize("dtype_bytes", WIDTHS)
    @pytest.mark.parametrize("label", sorted(RAW_SHAPES))
    def test_wire_equals_logical_at_every_width(self, label, dtype_bytes):
        block = random_block(3, shape=RAW_SHAPES[label])
        encoded = RawCodec(dtype_bytes).encode(block)
        assert encoded.codec == "raw" and encoded.error_bound is None
        assert encoded.shape == block.shape
        assert encoded.wire_nbytes == encoded.logical_nbytes
        assert encoded.logical_nbytes == block.size * dtype_bytes
        restored = encoded.decode()
        assert restored.dtype == block.dtype and restored.shape == block.shape
        assert restored.tobytes() == block.tobytes()

    @pytest.mark.parametrize("dtype_bytes", WIDTHS)
    def test_non_finite_and_out_of_range_restore_bit_for_bit(self, dtype_bytes):
        # The modelled width only sizes the wire: values no fp16/fp32 could
        # hold, infinities, signed zeros and NaN payloads park as the
        # substrate's float64 and come back unchanged.
        block = random_block(5)
        block[0, 0, :4] = [1e6, -1e39, np.inf, -np.inf]
        block[1, 3, :2] = [np.nan, -0.0]
        bits = block.view(np.uint64).copy()
        bits[1, 3, 2] = 0x7FF8_0000_DEAD_BEEF  # a NaN with a payload
        block = bits.view(np.float64)
        restored = RawCodec(dtype_bytes).encode(block).decode()
        assert np.array_equal(restored.view(np.uint64), bits)

    @pytest.mark.parametrize("label", sorted(RAW_VIEWS))
    def test_views_park_as_copies(self, label):
        view = RAW_VIEWS[label](random_block(2))
        encoded = RawCodec().encode(view)
        assert encoded.wire_nbytes == np.size(view) * 2
        restored = encoded.decode()
        assert restored.shape == np.shape(view)
        assert np.array_equal(restored, view)
        assert not np.shares_memory(restored, view)

    @given(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=6),
        elements=st.floats(allow_nan=True, allow_infinity=True),
    ))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_arrays_restore_bitwise(self, array):
        encoded = RawCodec().encode(array)
        assert encoded.wire_nbytes == encoded.logical_nbytes == array.size * 2
        assert encoded.decode().tobytes() == array.tobytes()


# --------------------------------------------------------------- lossy codecs


def lossy_codecs():
    return [
        IntQuantCodec(8),
        IntQuantCodec(4),
        Int4OutlierCodec(),
    ]


def payload_bytes(encoded: EncodedKV) -> bytes:
    """Canonical byte string of a lossy payload (for determinism checks)."""
    return b"".join(np.ascontiguousarray(p).tobytes() for p in encoded.payload)


LOSSY_NAMES = [name for name in CODEC_NAMES if name != "raw"]

#: token axis is -2; odd element counts make int4 pad its last byte
LOSSY_SHAPES = {
    "block": BLOCK_SHAPE,
    "odd-count": (1, 3, 5),
    "one-token": (3, 1, 4),
    "matrix": (7, 3),
    "5-d": (2, 2, 1, 9, 3),
}


def expected_wire_nbytes(codec, shape):
    """Codes at ``bits`` each rounded up to whole bytes, a float32
    ``(min, scale)`` pair per channel, and per outlier a 4-byte index plus
    the value at the modelled width."""
    n = math.prod(shape)
    channels = n // shape[-2]
    wire = (n * codec.bits + 7) // 8 + channels * 2 * 4
    if isinstance(codec, Int4OutlierCodec):
        outliers = max(math.ceil(n * codec.outlier_fraction), 1)
        wire += outliers * (4 + codec.dtype_bytes)
    return wire


class TestLossyCodecs:
    @pytest.mark.parametrize("codec", lossy_codecs(), ids=lambda c: c.name)
    def test_error_within_declared_bound(self, codec):
        for seed in range(5):
            block = random_block(seed, scale=10.0 ** (seed - 2))
            encoded = codec.encode(block)
            assert encoded.error_bound is not None
            err = np.max(np.abs(encoded.decode() - block))
            assert err <= encoded.error_bound, f"{codec.name} seed {seed}"

    @pytest.mark.parametrize("codec", lossy_codecs(), ids=lambda c: c.name)
    def test_adversarial_blocks_within_bound(self, codec):
        for label, block in adversarial_blocks():
            encoded = codec.encode(block)
            err = np.max(np.abs(encoded.decode() - block))
            assert err <= encoded.error_bound, f"{codec.name} {label}"

    @pytest.mark.parametrize("codec", lossy_codecs(), ids=lambda c: c.name)
    def test_encode_is_deterministic(self, codec):
        block = random_block(11)
        a, b = codec.encode(block), codec.encode(block.copy())
        assert payload_bytes(a) == payload_bytes(b)
        assert a.wire_nbytes == b.wire_nbytes
        assert a.error_bound == b.error_bound

    @pytest.mark.parametrize("codec", lossy_codecs(), ids=lambda c: c.name)
    def test_decode_of_decode_is_stable(self, codec):
        # Quantising an already-quantised block is idempotent: every value
        # already sits on a representable level.
        block = random_block(13)
        once = codec.encode(block).decode()
        twice = codec.encode(once).decode()
        assert np.allclose(once, twice, atol=1e-6)

    def test_compression_ratios_ordered(self):
        block = random_block(17, shape=(2, 64, 32))
        logical = block.size * 2
        int8 = IntQuantCodec(8).encode(block).wire_nbytes
        int4 = IntQuantCodec(4).encode(block).wire_nbytes
        outlier = Int4OutlierCodec().encode(block).wire_nbytes
        assert int4 < int8 < logical
        assert int4 < outlier < int8  # outliers cost, but less than int8

    def test_constant_channels_do_not_divide_by_zero(self):
        block = np.full(BLOCK_SHAPE, 2.5)
        for codec in lossy_codecs():
            encoded = codec.encode(block)
            assert np.max(np.abs(encoded.decode() - block)) <= encoded.error_bound

    def test_outliers_restore_exactly(self):
        block = random_block(19)
        flat = block.reshape(-1)
        spike_idx = [3, 100, 200]
        flat[spike_idx] = [1e4, -2e4, 3e4]
        encoded = Int4OutlierCodec().encode(block)
        restored = encoded.decode().reshape(-1)
        assert np.array_equal(restored[spike_idx], flat[spike_idx])
        # The spikes must not blow up the bound for everyone else.
        plain_bound = IntQuantCodec(4).encode(block).error_bound
        assert encoded.error_bound < plain_bound

    def test_quantisation_needs_token_axis(self):
        for codec in lossy_codecs():
            with pytest.raises(ConfigurationError):
                codec.encode(np.zeros(8))

    def test_invalid_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            IntQuantCodec(3)
        with pytest.raises(ConfigurationError):
            Int4OutlierCodec(outlier_fraction=0.0)

    @pytest.mark.parametrize("name", LOSSY_NAMES)
    @pytest.mark.parametrize("label", sorted(LOSSY_SHAPES))
    def test_wire_bytes_and_restore_on_any_shape(self, label, name):
        shape = LOSSY_SHAPES[label]
        codec = get_codec(name)
        block = random_block(23, shape=shape)
        encoded = codec.encode(block)
        assert encoded.wire_nbytes == expected_wire_nbytes(codec, shape)
        assert encoded.logical_nbytes == block.size * 2
        restored = encoded.decode()
        assert restored.shape == shape
        assert np.max(np.abs(restored - block)) <= encoded.error_bound

    @pytest.mark.parametrize("codec", lossy_codecs(), ids=lambda c: c.name)
    def test_restore_unaffected_by_source_mutation(self, codec):
        block = random_block(29)
        encoded = codec.encode(block)
        expected = encoded.decode().copy()
        block[...] = -1.0
        assert np.array_equal(encoded.decode(), expected)

    @pytest.mark.parametrize("bits", [8, 4])
    def test_channels_quantise_independently(self, bits):
        # A channel is one lane at fixed positions of every axis but the
        # token axis: rescaling it moves its own levels and nobody else's.
        codec = IntQuantCodec(bits)
        block = random_block(31)
        scaled = block.copy()
        scaled[0, :, 3] *= 100.0
        before, after = codec.encode(block).decode(), codec.encode(scaled).decode()
        others = np.ones(BLOCK_SHAPE, dtype=bool)
        others[0, :, 3] = False
        assert np.array_equal(before[others], after[others])
        assert not np.array_equal(before[0, :, 3], after[0, :, 3])

    @pytest.mark.parametrize("fraction", [1e-6, 1.0 / 64.0, 0.1, 0.5])
    def test_outlier_count_follows_fraction(self, fraction):
        block = random_block(37)
        encoded = Int4OutlierCodec(outlier_fraction=fraction).encode(block)
        count = max(math.ceil(block.size * fraction), 1)
        outlier_idx = encoded.payload[3]
        assert outlier_idx.size == count
        assert encoded.wire_nbytes == (
            IntQuantCodec(4).encode(block).wire_nbytes + count * (4 + 2)
        )
        # The picked elements are the largest by magnitude; they restore
        # exactly.
        flat = block.reshape(-1)
        threshold = np.sort(np.abs(flat))[-count]
        assert np.all(np.abs(flat[outlier_idx]) >= threshold)
        restored = encoded.decode().reshape(-1)
        assert np.array_equal(restored[outlier_idx], flat[outlier_idx])


# ------------------------------------------------------------------ registry


class TestCodecRegistry:
    def test_all_names_resolve(self):
        for name in CODEC_NAMES:
            codec = get_codec(name, dtype_bytes=2)
            assert codec.name == name
            assert codec.dtype_bytes == 2

    def test_none_is_raw(self):
        assert isinstance(get_codec(None), RawCodec)

    def test_instance_passes_through(self):
        codec = IntQuantCodec(8, dtype_bytes=4)
        assert get_codec(codec, dtype_bytes=2) is codec

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            get_codec("gzip")

    def test_dtype_bytes_validated(self):
        with pytest.raises(ConfigurationError):
            RawCodec(dtype_bytes=3)

    def test_cross_codec_decode_rejected(self):
        encoded = RawCodec().encode(random_block())
        with pytest.raises(ConfigurationError):
            IntQuantCodec(8).decode(encoded)

    def test_flops_scale_with_logical_bytes(self):
        raw, int8 = RawCodec(), IntQuantCodec(8)
        assert raw.encode_flops(1e6) == 0.0 and raw.decode_flops(1e6) == 0.0
        assert int8.encode_flops(1e6) == pytest.approx(8e6)
        assert int8.decode_flops(2e6) == pytest.approx(8e6)
        assert IntQuantCodec(4).encode_flops(1.0) < Int4OutlierCodec().encode_flops(1.0)

    def test_describe(self):
        info = Int4OutlierCodec().describe()
        assert info["name"] == "int4-outlier"
        assert info["lossless"] is False
        assert info["dtype_bytes"] == 2

    @pytest.mark.parametrize("dtype_bytes", WIDTHS)
    @pytest.mark.parametrize("name", CODEC_NAMES)
    def test_every_name_resolves_at_every_width(self, name, dtype_bytes):
        codec = get_codec(name, dtype_bytes=dtype_bytes)
        assert codec.name == name and codec.dtype_bytes == dtype_bytes
        block = random_block()
        encoded = codec.encode(block)
        assert encoded.codec == name and encoded.decoder is codec
        assert encoded.logical_nbytes == block.size * dtype_bytes

    @pytest.mark.parametrize("producer, consumer", [
        (a, b) for a in CODEC_NAMES for b in CODEC_NAMES if a != b
    ])
    def test_decode_rejects_every_foreign_payload(self, producer, consumer):
        encoded = get_codec(producer).encode(random_block())
        with pytest.raises(ConfigurationError):
            get_codec(consumer).decode(encoded)

    @pytest.mark.parametrize("name", CODEC_NAMES)
    def test_only_raw_is_lossless_and_free(self, name):
        codec = get_codec(name)
        is_raw = name == "raw"
        assert codec.describe() == {
            "name": name, "lossless": is_raw, "dtype_bytes": 2,
        }
        assert (codec.encode(random_block()).error_bound is None) == is_raw
        if is_raw:
            assert codec.encode_flops(1e6) == codec.decode_flops(1e6) == 0.0
        else:
            assert 0.0 < codec.decode_flops(1e6) < codec.encode_flops(1e6)
            assert codec.encode_flops(2e6) == pytest.approx(
                2 * codec.encode_flops(1e6)
            )

    def test_logical_nbytes_uses_modelled_width(self):
        block = random_block()
        assert RawCodec(dtype_bytes=4).logical_nbytes(block) == block.size * 4
        assert isinstance(KVBlockCodec(), KVBlockCodec)  # base constructs
