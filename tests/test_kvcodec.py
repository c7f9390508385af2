"""KV block codec property tests.

Lossless codecs must be bitwise-invertible on arbitrary blocks — including
adversarial fp16 images (denormals, constant planes, palette-sized value
sets); lossy codecs must restore within their declared per-element error
bound and encode deterministically (same block, same bytes)."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from byteplane_oracle import byteplane_pack, byteplane_unpack
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.llm.kvcodec import (
    CODEC_NAMES,
    BytePlaneCodec,
    EncodedKV,
    Int4OutlierCodec,
    IntQuantCodec,
    KVBlockCodec,
    RawCodec,
    byteplane_wire_nbytes,
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


# ----------------------------------------------------------- byteplane pack


class TestBytePlanePack:
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_random_images_invert_bitwise(self, dtype):
        for seed in range(5):
            image = random_block(seed).astype(dtype)
            blob = byteplane_pack(image)
            back = byteplane_unpack(blob, image.shape, dtype)
            assert back.dtype == image.dtype
            assert np.array_equal(
                back.view(np.uint8), image.view(np.uint8)
            ), f"seed {seed}"

    def test_adversarial_images_invert_bitwise(self):
        for label, block in adversarial_blocks():
            image = block.astype(np.float16)
            back = byteplane_unpack(
                byteplane_pack(image), image.shape, np.float16
            )
            assert np.array_equal(
                back.view(np.uint8), image.view(np.uint8)
            ), label

    def test_compressible_planes_beat_raw(self):
        image = np.zeros(BLOCK_SHAPE, dtype=np.float16)
        assert len(byteplane_pack(image)) < image.nbytes

    def test_incompressible_worst_case_is_header_only(self):
        # Random mantissa bytes stay raw: overhead is the 5-byte per-plane
        # record header, never more.
        image = random_block(3).astype(np.float16)
        assert len(byteplane_pack(image)) <= image.nbytes + 5 * 2

    def test_long_runs_split_at_255(self):
        # A single 1000-element run exercises the 255-run splitting path.
        image = np.zeros(1000, dtype=np.float16).reshape(10, 100)
        back = byteplane_unpack(byteplane_pack(image), image.shape, np.float16)
        assert np.array_equal(back, image)

    def test_corrupt_blob_raises(self):
        blob = byteplane_pack(np.zeros((2, 2), dtype=np.float16))
        with pytest.raises(ConfigurationError):
            byteplane_unpack(blob, (3, 3), np.float16)  # wrong shape


# ---------------------------------------------------------- byteplane sizing

IMAGE_DTYPES = [np.float16, np.float32, np.float64]


def image_from_planes(planes, dtype):
    """The ``dtype`` image whose byte plane ``i`` is ``planes[i]``."""
    raw = np.stack([np.asarray(p, dtype=np.uint8) for p in planes], axis=1)
    return np.frombuffer(raw.tobytes(), dtype=dtype)


def runs_plane(lengths, values):
    """Consecutive runs; adjacent runs get distinct values by construction."""
    return np.repeat(np.asarray(values, dtype=np.uint8), lengths)


def distinct_plane(d, n, seed=0):
    """``n`` shuffled bytes taking exactly ``d`` distinct values."""
    rng = np.random.default_rng(seed)
    palette = rng.permutation(256)[:d]
    plane = np.concatenate([palette, rng.choice(palette, size=n - d)])
    return rng.permutation(plane).astype(np.uint8)


#: one byte plane per named boundary of the size arithmetic
SIZING_PLANES = {
    "empty": np.zeros(0, dtype=np.uint8),
    "single": np.array([7], dtype=np.uint8),
    "constant": np.full(300, 9, dtype=np.uint8),
    "run-254": runs_plane([254, 3], [1, 2]),
    "run-255": runs_plane([255, 3], [1, 2]),
    "run-256": runs_plane([256, 3], [1, 2]),
    "run-511": runs_plane([511, 3], [1, 2]),
    "run-510-one-long": runs_plane([510], [5]),
    "distinct-1": distinct_plane(1, 400),
    "distinct-2": distinct_plane(2, 400),
    "distinct-128": distinct_plane(128, 400),
    "distinct-129": distinct_plane(129, 400),
    "distinct-256": distinct_plane(256, 400),
    # n = 4, two values: raw 4, RLE 4 and palette 1 + 2 + 1 = 4 all tie.
    "tie-three-way": runs_plane([2, 2], [3, 4]),
    # palette == raw (1 + 2 + ceil(4 / 8) == 4); RLE is 8.
    "tie-palette-raw": np.array([3, 4, 3, 4], dtype=np.uint8),
    # RLE == palette (4) < raw (8).
    "tie-rle-palette": runs_plane([4, 4], [3, 4]),
}


@st.composite
def structured_images(draw):
    """Images whose planes mix long runs, small palettes and noise."""
    dtype = draw(st.sampled_from(IMAGE_DTYPES))
    n = draw(st.sampled_from([0, 1, 2, 3, 4, 8, 254, 255, 256, 510, 511, 512])
             | st.integers(0, 1200))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    planes = []
    for _ in range(np.dtype(dtype).itemsize):
        d = draw(st.sampled_from([1, 2, 3, 4, 5, 127, 128, 129, 256]))
        run = draw(st.sampled_from([1, 1, 2, 3, 127, 254, 255, 256, 511]))
        palette = rng.permutation(256)[:d]
        lengths = rng.integers(1, run + 1, size=n)
        plane = np.repeat(rng.choice(palette, size=n), lengths)[:n]
        planes.append(plane)
    return image_from_planes(planes, dtype)


class TestBytePlaneWireNbytes:
    """The arithmetic size is the oracle packer's blob length, exactly."""

    @given(structured_images())
    @settings(max_examples=300, deadline=None)
    def test_equals_oracle_blob_length_on_structured_images(self, image):
        assert byteplane_wire_nbytes(image) == len(byteplane_pack(image))

    @pytest.mark.parametrize("dtype", IMAGE_DTYPES)
    @pytest.mark.parametrize("label", sorted(SIZING_PLANES))
    def test_boundary_planes(self, label, dtype):
        plane = SIZING_PLANES[label]
        rng = np.random.default_rng(11)
        itemsize = np.dtype(dtype).itemsize
        # The named plane in every position in turn, noise in the others.
        for position in range(itemsize):
            planes = [
                plane if i == position
                else rng.integers(0, 256, size=plane.size).astype(np.uint8)
                for i in range(itemsize)
            ]
            image = image_from_planes(planes, dtype)
            assert byteplane_wire_nbytes(image) == len(byteplane_pack(image)), (
                label, position
            )

    @pytest.mark.parametrize("label, mode", [
        ("tie-three-way", 0), ("tie-palette-raw", 0), ("tie-rle-palette", 1),
    ])
    def test_ties_go_to_the_lower_mode_id(self, label, mode):
        plane = SIZING_PLANES[label]
        blob = byteplane_pack(plane)  # a uint8 image is its own single plane
        assert blob[0] == mode and len(blob) == 5 + 4
        assert byteplane_wire_nbytes(plane) == 5 + 4

    @pytest.mark.parametrize("dtype", IMAGE_DTYPES)
    def test_real_valued_blocks(self, dtype):
        for seed in range(5):
            image = random_block(seed).astype(dtype)
            assert byteplane_wire_nbytes(image) == len(byteplane_pack(image))
        for label, block in adversarial_blocks():
            image = block.astype(dtype)
            assert byteplane_wire_nbytes(image) == len(byteplane_pack(image)), label

    def test_non_contiguous_and_scalar_images(self):
        image = random_block(2).astype(np.float16)
        for view in (image[:, ::2], image.T, image[0, 0, 0]):
            assert byteplane_wire_nbytes(view) == len(byteplane_pack(view))


# ------------------------------------------------------------ lossless codecs


class TestLosslessCodecs:
    @pytest.mark.parametrize("codec_cls", [RawCodec, BytePlaneCodec])
    def test_random_blocks_restore_bitwise(self, codec_cls):
        codec = codec_cls()
        for seed in range(5):
            block = random_block(seed, scale=10.0 ** (seed - 2))
            encoded = codec.encode(block)
            assert encoded.error_bound is None
            assert encoded.logical_nbytes == block.size * 2
            restored = encoded.decode()
            assert np.array_equal(restored, block), f"seed {seed}"

    @pytest.mark.parametrize("codec_cls", [RawCodec, BytePlaneCodec])
    def test_adversarial_blocks_restore_bitwise(self, codec_cls):
        codec = codec_cls()
        for label, block in adversarial_blocks():
            assert np.array_equal(codec.encode(block).decode(), block), label

    def test_raw_wire_equals_logical(self):
        block = random_block()
        encoded = RawCodec().encode(block)
        assert encoded.wire_nbytes == encoded.logical_nbytes

    def test_byteplane_wire_measured_on_fp16_image(self):
        block = random_block()
        encoded = BytePlaneCodec().encode(block)
        assert encoded.wire_nbytes == len(
            byteplane_pack(block.astype(np.float16))
        )
        # Sign/exponent structure packs; zeros pack dramatically.
        sparse = BytePlaneCodec().encode(np.zeros(BLOCK_SHAPE))
        assert sparse.wire_nbytes < sparse.logical_nbytes // 4

    @pytest.mark.parametrize("dtype_bytes, huge", [(2, 1e6), (4, 1e39)])
    def test_out_of_range_and_non_finite_blocks_encode_silently(
        self, dtype_bytes, huge
    ):
        # The storage image is a size model: a value the modelled dtype
        # cannot hold sizes like its ``inf`` image, raises no warning, and
        # the parked float64 payload still restores bit for bit.
        codec = BytePlaneCodec(dtype_bytes)
        dtype = {2: np.float16, 4: np.float32}[dtype_bytes]
        block = random_block(5)
        block[0, 0, :4] = [huge, -huge, np.inf, -np.inf]
        block[1, 3, :2] = [np.nan, -0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            encoded = codec.encode(block)
            constant = codec.encode(np.full((2, 4, 4), huge))
        as_inf = np.where(np.abs(block) >= huge, np.copysign(np.inf, block), block)
        assert encoded.wire_nbytes == len(byteplane_pack(as_inf.astype(dtype)))
        assert constant.wire_nbytes == len(
            byteplane_pack(np.full((2, 4, 4), np.inf, dtype=dtype))
        )
        assert np.array_equal(
            encoded.decode().view(np.uint64), block.view(np.uint64)
        )

    def test_restore_unaffected_by_source_mutation(self):
        # The parked payload must be a copy: scribbling over the source
        # block after encode (the pool recycles it) cannot corrupt restore.
        block = random_block()
        original = block.copy()
        for codec in (RawCodec(), BytePlaneCodec()):
            encoded = codec.encode(block)
            block[...] = -1.0
            assert np.array_equal(encoded.decode(), original)
            block[...] = original

    def test_byteplane_rejects_one_byte_elements(self):
        with pytest.raises(ConfigurationError):
            BytePlaneCodec(dtype_bytes=1)


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
            BytePlaneCodec().decode(encoded)

    def test_flops_scale_with_logical_bytes(self):
        raw, bp = RawCodec(), BytePlaneCodec()
        assert raw.encode_flops(1e6) == 0.0 and raw.decode_flops(1e6) == 0.0
        assert bp.encode_flops(1e6) == pytest.approx(6e6)
        assert bp.decode_flops(2e6) == pytest.approx(6e6)
        assert IntQuantCodec(4).encode_flops(1.0) < Int4OutlierCodec().encode_flops(1.0)

    def test_describe(self):
        info = Int4OutlierCodec().describe()
        assert info["name"] == "int4-outlier"
        assert info["lossless"] is False
        assert info["dtype_bytes"] == 2

    def test_logical_nbytes_uses_modelled_width(self):
        block = random_block()
        assert RawCodec(dtype_bytes=4).logical_nbytes(block) == block.size * 4
        assert isinstance(KVBlockCodec(), KVBlockCodec)  # base constructs
