"""KV block parking property tests.

:class:`KVBlockCodec` must restore arbitrary blocks bitwise — including
adversarial fp16-edge values (denormals, constants, tiny value sets) — at
wire bytes equal to logical bytes at the modelled element width."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ConfigurationError
from repro.llm.kvcodec import KVBlockCodec

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


#: the adversarial inputs by label, for per-case parametrisation
ADVERSARIAL = dict(adversarial_blocks())


# ------------------------------------------------------------------ parking


class TestLosslessCodecs:
    def test_random_blocks_restore_bitwise(self):
        codec = KVBlockCodec()
        for seed in range(5):
            block = random_block(seed, scale=10.0 ** (seed - 2))
            encoded = codec.encode(block)
            assert encoded.logical_nbytes == block.size * 2
            restored = encoded.decode()
            assert np.array_equal(restored, block), f"seed {seed}"

    def test_adversarial_blocks_restore_bitwise(self):
        codec = KVBlockCodec()
        for label, block in adversarial_blocks():
            assert np.array_equal(codec.encode(block).decode(), block), label

    def test_raw_wire_equals_logical(self):
        block = random_block()
        encoded = KVBlockCodec().encode(block)
        assert encoded.wire_nbytes == encoded.logical_nbytes

    def test_restore_unaffected_by_source_mutation(self):
        # The parked payload must be a copy: scribbling over the source
        # block after encode (the pool recycles it) cannot corrupt restore.
        block = random_block()
        original = block.copy()
        encoded = KVBlockCodec().encode(block)
        block[...] = -1.0
        assert np.array_equal(encoded.decode(), original)

    @pytest.mark.parametrize("label", sorted(ADVERSARIAL))
    def test_adversarial_block_restores_bitwise_at_every_width(self, label):
        block = ADVERSARIAL[label]
        for dtype_bytes in WIDTHS:
            encoded = KVBlockCodec(dtype_bytes).encode(block)
            assert encoded.wire_nbytes == encoded.logical_nbytes
            assert encoded.logical_nbytes == block.size * dtype_bytes
            assert encoded.decode().tobytes() == block.tobytes(), dtype_bytes


WIDTHS = [1, 2, 4, 8]

#: raw takes any shape, empty and token-less ones included
RAW_SHAPES = {
    "block": BLOCK_SHAPE,
    "single-token": (2, 1, 8),
    "empty": (2, 0, 8),
    "matrix": (5, 7),
    "vector": (9,),
    "odd-count": (1, 3, 5),
    "5-d": (2, 2, 1, 9, 3),
}

#: substrate dtypes a parked block may hold; none of them sizes the wire
SUBSTRATE_DTYPES = [
    np.float16, np.float32, np.float64, np.int8, np.int32, np.bool_,
    np.complex64,
]


def _read_only(block):
    block.setflags(write=False)
    return block


RAW_VIEWS = {
    "strided": lambda b: b[:, ::2],
    "transposed": lambda b: b.T,
    "scalar": lambda b: b[0, 0, 0],
    "read-only": _read_only,
}


class TestParkingContract:
    """Every tier parks through the one codec: wire bytes equal logical
    bytes at the modelled width, and the parked payload restores bit for
    bit whatever it holds."""

    @pytest.mark.parametrize("dtype_bytes", WIDTHS)
    @pytest.mark.parametrize("label", sorted(RAW_SHAPES))
    def test_wire_equals_logical_at_every_width(self, label, dtype_bytes):
        block = random_block(3, shape=RAW_SHAPES[label])
        encoded = KVBlockCodec(dtype_bytes).encode(block)
        assert encoded.wire_nbytes == encoded.logical_nbytes
        assert encoded.logical_nbytes == block.size * dtype_bytes
        restored = encoded.decode()
        assert restored.dtype == block.dtype and restored.shape == block.shape
        assert restored.tobytes() == block.tobytes()

    @pytest.mark.parametrize("dtype_bytes", WIDTHS)
    def test_non_finite_and_out_of_range_restore_bit_for_bit(self, dtype_bytes):
        # The modelled width only sizes the wire: values no fp16/fp32 could
        # hold, infinities, signed zeros and NaN payloads park in the host
        # array's own dtype (float64 here) and come back unchanged.
        block = random_block(5)
        block[0, 0, :4] = [1e6, -1e39, np.inf, -np.inf]
        block[1, 3, :2] = [np.nan, -0.0]
        bits = block.view(np.uint64).copy()
        bits[1, 3, 2] = 0x7FF8_0000_DEAD_BEEF  # a NaN with a payload
        block = bits.view(np.float64)
        restored = KVBlockCodec(dtype_bytes).encode(block).decode()
        assert np.array_equal(restored.view(np.uint64), bits)

    @pytest.mark.parametrize("label", sorted(RAW_VIEWS))
    def test_views_park_as_copies(self, label):
        view = RAW_VIEWS[label](random_block(2))
        encoded = KVBlockCodec().encode(view)
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
        encoded = KVBlockCodec().encode(array)
        assert encoded.wire_nbytes == encoded.logical_nbytes == array.size * 2
        assert encoded.decode().tobytes() == array.tobytes()

    def test_dtype_bytes_validated(self):
        with pytest.raises(ConfigurationError):
            KVBlockCodec(dtype_bytes=3)

    def test_logical_nbytes_uses_modelled_width(self):
        block = random_block()
        assert KVBlockCodec(dtype_bytes=4).encode(block).logical_nbytes == block.size * 4
        assert KVBlockCodec().dtype_bytes == 2

    @pytest.mark.parametrize("dtype_bytes", [0, 3, 5, 6, 16, -2])
    def test_unmodelled_widths_rejected(self, dtype_bytes):
        with pytest.raises(ConfigurationError):
            KVBlockCodec(dtype_bytes=dtype_bytes)

    @pytest.mark.parametrize("label", sorted(RAW_SHAPES))
    def test_encode_is_deterministic(self, label):
        # The same block parks as the same bytes, in two private copies.
        codec = KVBlockCodec()
        block = random_block(11, shape=RAW_SHAPES[label])
        a, b = codec.encode(block), codec.encode(block.copy())
        assert a.payload.tobytes() == b.payload.tobytes()
        assert a.logical_nbytes == b.logical_nbytes
        assert not np.shares_memory(a.payload, b.payload)

    @pytest.mark.parametrize("label", sorted(RAW_SHAPES))
    def test_restore_unaffected_by_source_mutation_on_any_shape(self, label):
        block = random_block(29, shape=RAW_SHAPES[label])
        original = block.copy()
        encoded = KVBlockCodec().encode(block)
        block[...] = -1.0
        assert encoded.decode().tobytes() == original.tobytes()

    @pytest.mark.parametrize("label", sorted(RAW_SHAPES))
    def test_reparking_a_restore_is_a_fixed_point(self, label):
        # A migrated block is restored on one worker and may be parked again
        # on the next: same bytes, same size, and a copy of its own — decode
        # hands back the parked array itself, so the re-park must not alias it.
        codec = KVBlockCodec()
        block = random_block(13, shape=RAW_SHAPES[label])
        once = codec.encode(block)
        twice = codec.encode(once.decode())
        assert twice.decode().tobytes() == block.tobytes()
        assert twice.logical_nbytes == once.logical_nbytes
        if block.size:
            assert not np.shares_memory(twice.payload, once.payload)

    @pytest.mark.parametrize(
        "dtype", SUBSTRATE_DTYPES, ids=lambda d: np.dtype(d).name
    )
    def test_substrate_dtype_survives_and_never_sizes_the_wire(self, dtype):
        block = (random_block(17) * 50.0).astype(dtype)
        for dtype_bytes in WIDTHS:
            encoded = KVBlockCodec(dtype_bytes).encode(block)
            assert encoded.logical_nbytes == block.size * dtype_bytes
            restored = encoded.decode()
            assert restored.dtype == block.dtype
            assert restored.tobytes() == block.tobytes()

    def test_decode_hands_back_the_parked_copy(self):
        # Restore writes into a pool block, so decode itself copies nothing.
        codec = KVBlockCodec()
        encoded = codec.encode(random_block())
        assert encoded.decode() is encoded.payload
        assert codec.decode(encoded) is encoded.payload

    def test_wire_nbytes_is_read_only(self):
        encoded = KVBlockCodec().encode(random_block())
        with pytest.raises(AttributeError):
            encoded.wire_nbytes = 0
        assert encoded.wire_nbytes == encoded.logical_nbytes
