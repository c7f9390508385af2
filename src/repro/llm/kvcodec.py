"""Pluggable KV block codecs for downward tier transitions.

Every byte a KV block moves down the memory hierarchy — preemption swap-out
(GPU → CPU), CPU → disk demotion, cold prefix-chain spill, cross-worker
migration — crosses the simulated PCIe/NVMe links at the *wire* size this
module produces.  Two codec families exist:

* **Lossless** (:class:`BytePlaneCodec`, the engine default): the modelled
  storage dtype's byte image (fp16 by default) is split into byte planes and
  each plane billed at whichever of three bitwise-invertible encodings is
  smallest — raw, run-length, or palette bit-packing.  Exponent/sign planes
  of real KV tensors concentrate on few values and pack well; mantissa
  planes are near-random and stay raw, so the overall ratio is modest
  (1.03x measured on the bench's chat KV) but the restore is *exact*.  This
  is the only family allowed on paths covered by the byte-identity invariant.
* **Lossy** (:class:`IntQuantCodec` int8/int4 per-channel à la KVQuant,
  :class:`Int4OutlierCodec` with exact outlier extraction à la MILLION):
  opt-in per engine config, only for quality-tolerant spilled prefix chains
  and migration.  Each encode declares a per-element error bound
  (:attr:`EncodedKV.error_bound`) that the decode provably satisfies, and
  encoding is deterministic — the same block always produces the same bytes.

The NumPy substrate stores KV as float64 arrays that *model* fp16 storage
(``ModelConfig.dtype_bytes``); the raw tiers have always billed fp16 bytes
for float64 payloads.  The lossless codec follows the same convention:
``byteplane`` is a *size model* — the wire size of the modelled-dtype image
is evaluated arithmetically (:func:`byteplane_wire_nbytes`; the packer whose
blob length it equals, with its bitwise inverse, is the property-tested
oracle ``tests/byteplane_oracle.py``), and restores are exact because the
parked payload is the substrate's float64 values, not the image.
Lossy codecs genuinely round-trip through their quantised form — a lossy
restore differs from the original, within the declared bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "EncodedKV",
    "KVBlockCodec",
    "RawCodec",
    "BytePlaneCodec",
    "IntQuantCodec",
    "Int4OutlierCodec",
    "byteplane_wire_nbytes",
    "get_codec",
    "CODEC_NAMES",
]

#: modelled element width -> numpy dtype of the storage image
_IMAGE_DTYPES = {2: np.float16, 4: np.float32, 8: np.float64}


# ------------------------------------------------------------- byte planes


def byteplane_wire_nbytes(image: np.ndarray) -> int:
    """Bytes the byte-plane format spends on ``image``, without building it.

    The format views the array as raw bytes, splits them into ``itemsize``
    planes (plane ``i`` holds byte ``i`` of every element) and stores each
    plane in the smallest of three bitwise-invertible encodings behind a
    5-byte record header (mode u8 + payload length u32le): raw (``n``
    bytes), run-length as (count u8, value u8) pairs with runs split at 255
    (``2 * sum(ceil(len / 255))``), or a palette of ``2 <= d <= 128``
    distinct bytes plus bit-packed indices (``1 + d + ceil(n * bits / 8)``).
    The packer itself is ``tests/byteplane_oracle.py``; this returns exactly
    the length of its blob from one histogram and one run count per plane.
    """
    image = np.ascontiguousarray(image)
    itemsize = image.dtype.itemsize
    planes = image.reshape(-1).view(np.uint8).reshape(-1, itemsize)
    n = planes.shape[0]
    total = 5 * itemsize
    for i in range(itemsize):
        plane = planes[:, i]
        best = n
        d = int(np.count_nonzero(np.bincount(plane, minlength=256)))
        if 2 <= d <= 128:
            best = min(best, 1 + d + (n * (d - 1).bit_length() + 7) // 8)
        changes = plane[1:] != plane[:-1]
        if 2 * (int(np.count_nonzero(changes)) + 1) < best:
            # Run-length spends >= 2 bytes per run, so only now can it win
            # and only now are the run lengths worth materialising.
            edges = np.flatnonzero(changes)
            lengths = np.diff(edges, prepend=-1, append=n - 1)
            best = min(best, 2 * int(((lengths + 254) // 255).sum()))
        total += best
    return total


# ------------------------------------------------------------------ codecs


@dataclass(eq=False)
class EncodedKV:
    """One tensor of one KV block in its parked (encoded) form.

    Attributes:
        codec: name of the codec that produced it.
        shape: original array shape.
        logical_nbytes: modelled storage size of the original at the codec's
            element width — what raw tiers would have moved.
        wire_nbytes: bytes the encoded form occupies on the wire / the tier.
        error_bound: per-element absolute error guarantee of the decode
            (``None`` for lossless codecs — the restore is exact).
        payload: codec-specific parked representation.
        decoder: the codec instance that can decode this payload.
    """

    codec: str
    shape: "tuple[int, ...]"
    logical_nbytes: int
    wire_nbytes: int
    payload: object = field(repr=False)
    decoder: "KVBlockCodec" = field(repr=False)
    error_bound: "float | None" = None

    def decode(self) -> np.ndarray:
        """Restore the parked tensor (exact for lossless codecs)."""
        return self.decoder.decode(self)


class KVBlockCodec:
    """Base class of KV block codecs.

    A codec encodes one tensor at a time (a block's keys or values, any
    shape whose second-to-last axis is the token axis) into an
    :class:`EncodedKV` carrying both the logical (modelled-dtype) size and
    the achieved wire size, and decodes it back.  ``encode_flops`` /
    ``decode_flops`` are the CPU costs the latency model bills as
    dependency-linked codec stages on the swap/spill/migration timelines.
    """

    name: str = "abstract"
    lossless: bool = True
    #: estimated CPU work per logical byte (encode / decode)
    _ENCODE_FLOPS_PER_BYTE = 0.0
    _DECODE_FLOPS_PER_BYTE = 0.0

    def __init__(self, dtype_bytes: int = 2) -> None:
        if dtype_bytes not in (1, 2, 4, 8):
            raise ConfigurationError("dtype_bytes must be one of 1, 2, 4, 8")
        self.dtype_bytes = dtype_bytes

    def logical_nbytes(self, array: np.ndarray) -> int:
        """Modelled storage size of ``array`` at the codec's element width."""
        return int(array.size) * self.dtype_bytes

    def encode(self, array: np.ndarray) -> EncodedKV:
        raise NotImplementedError

    def decode(self, encoded: EncodedKV) -> np.ndarray:
        raise NotImplementedError

    def encode_flops(self, logical_nbytes: float) -> float:
        """CPU FLOPs to encode ``logical_nbytes`` of KV."""
        return self._ENCODE_FLOPS_PER_BYTE * float(logical_nbytes)

    def decode_flops(self, logical_nbytes: float) -> float:
        """CPU FLOPs to decode back ``logical_nbytes`` of KV."""
        return self._DECODE_FLOPS_PER_BYTE * float(logical_nbytes)

    def _check(self, encoded: EncodedKV) -> None:
        if encoded.codec != self.name:
            raise ConfigurationError(
                f"codec {self.name!r} cannot decode {encoded.codec!r} payload"
            )

    def describe(self) -> dict:
        return {
            "name": self.name,
            "lossless": self.lossless,
            "dtype_bytes": self.dtype_bytes,
        }


class RawCodec(KVBlockCodec):
    """Identity codec: wire bytes == logical bytes (the pre-codec tiers)."""

    name = "raw"
    lossless = True

    def encode(self, array: np.ndarray) -> EncodedKV:
        array = np.asarray(array)
        logical = self.logical_nbytes(array)
        return EncodedKV(
            codec=self.name, shape=array.shape, logical_nbytes=logical,
            wire_nbytes=logical, payload=array.copy(), decoder=self,
        )

    def decode(self, encoded: EncodedKV) -> np.ndarray:
        self._check(encoded)
        return encoded.payload


class BytePlaneCodec(KVBlockCodec):
    """Lossless byte-plane packing of the modelled-dtype image.

    The wire size is :func:`byteplane_wire_nbytes` of the block's
    modelled-dtype (fp16 by default) byte image; the parked payload keeps
    the exact substrate values, so the restore is bit-for-bit — the codec
    is safe wherever the byte-identity invariant applies.  Worst case
    (incompressible planes) the wire size exceeds the logical size by the
    5-byte per-plane record headers only.
    """

    name = "byteplane"
    lossless = True
    _ENCODE_FLOPS_PER_BYTE = 6.0
    _DECODE_FLOPS_PER_BYTE = 3.0

    def __init__(self, dtype_bytes: int = 2) -> None:
        super().__init__(dtype_bytes)
        if dtype_bytes not in _IMAGE_DTYPES:
            raise ConfigurationError(
                "byteplane codec needs a float storage image "
                f"(dtype_bytes in {sorted(_IMAGE_DTYPES)}), got {dtype_bytes}"
            )
        self._image_dtype = _IMAGE_DTYPES[dtype_bytes]

    def encode(self, array: np.ndarray) -> EncodedKV:
        array = np.asarray(array, dtype=np.float64)
        # The image only sizes the wire: a value beyond the storage dtype's
        # range sizes like its ``inf`` image, silently.
        with np.errstate(over="ignore"):
            image = array.astype(self._image_dtype)
        return EncodedKV(
            codec=self.name, shape=array.shape,
            logical_nbytes=self.logical_nbytes(array),
            wire_nbytes=byteplane_wire_nbytes(image),
            payload=array.copy(), decoder=self,
        )

    def decode(self, encoded: EncodedKV) -> np.ndarray:
        self._check(encoded)
        return encoded.payload


class IntQuantCodec(KVBlockCodec):
    """Per-channel integer quantisation over the token axis (KVQuant-style).

    A channel is one ``(..., d_h)`` lane at a fixed position of every axis
    except the token axis (``axis=-2``); each channel gets its own affine
    ``(min, scale)`` pair stored as float32, and every element becomes a
    ``bits``-bit code.  Decoding is ``min + code * scale``; the per-element
    error is at most half a quantisation step plus the float32 rounding of
    the channel parameters, declared on the result as ``error_bound``.
    Encoding is pure deterministic NumPy: the same block always produces the
    same bytes.
    """

    lossless = False
    _ENCODE_FLOPS_PER_BYTE = 8.0
    _DECODE_FLOPS_PER_BYTE = 4.0

    def __init__(self, bits: int, dtype_bytes: int = 2) -> None:
        super().__init__(dtype_bytes)
        if bits not in (4, 8):
            raise ConfigurationError("quantisation bits must be 4 or 8")
        self.bits = bits
        self.name = f"int{bits}"

    # ---------------------------------------------------------- internals

    def _quantise(
        self, array: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, float]":
        """Codes + float32 channel params + declared error bound."""
        levels = (1 << self.bits) - 1
        scale = (hi - lo) / levels
        scale = np.where(scale > 0.0, scale, 1.0)
        lo32 = lo.astype(np.float32)
        scale32 = scale.astype(np.float32)
        codes = np.clip(
            np.rint((array - lo) / scale), 0, levels
        ).astype(np.uint8)
        # Half a step, plus the float32 rounding of (lo, scale) the decode
        # actually uses: |lo-lo32| <= eps*|lo| and code*|scale-scale32| <=
        # levels*eps*scale, with eps = 2^-24 for float32.
        eps = float(np.finfo(np.float32).eps)
        bound = float(
            np.max(scale / 2.0 + eps * (np.abs(lo) + levels * scale))
        )
        return codes, lo32, scale32, bound

    def _pack_codes(self, codes: np.ndarray) -> np.ndarray:
        flat = codes.reshape(-1)
        if self.bits == 8:
            return flat.copy()
        if flat.size % 2:
            flat = np.concatenate([flat, np.zeros(1, dtype=np.uint8)])
        return (flat[0::2] << 4) | flat[1::2]

    def _unpack_codes(self, packed: np.ndarray, n: int) -> np.ndarray:
        if self.bits == 8:
            return packed[:n]
        out = np.empty(packed.size * 2, dtype=np.uint8)
        out[0::2] = packed >> 4
        out[1::2] = packed & 0x0F
        return out[:n]

    def _wire_nbytes(self, n_elements: int, n_channels: int) -> int:
        code_bytes = (n_elements * self.bits + 7) // 8
        return code_bytes + n_channels * 2 * 4  # float32 (min, scale)

    # -------------------------------------------------------------- codec

    def encode(self, array: np.ndarray) -> EncodedKV:
        array = np.asarray(array, dtype=np.float64)
        if array.ndim < 2:
            raise ConfigurationError(
                "quantisation needs a token axis (ndim >= 2)"
            )
        lo = array.min(axis=-2, keepdims=True)
        hi = array.max(axis=-2, keepdims=True)
        codes, lo32, scale32, bound = self._quantise(array, lo, hi)
        n_channels = int(np.prod(lo.shape, dtype=np.int64))
        return EncodedKV(
            codec=self.name, shape=array.shape,
            logical_nbytes=self.logical_nbytes(array),
            wire_nbytes=self._wire_nbytes(int(array.size), n_channels),
            payload=(self._pack_codes(codes), lo32, scale32),
            decoder=self, error_bound=bound,
        )

    def decode(self, encoded: EncodedKV) -> np.ndarray:
        self._check(encoded)
        packed, lo32, scale32 = encoded.payload
        n = int(np.prod(encoded.shape, dtype=np.int64))
        codes = self._unpack_codes(packed, n).reshape(encoded.shape)
        return (
            lo32.astype(np.float64)
            + codes.astype(np.float64) * scale32.astype(np.float64)
        )


class Int4OutlierCodec(IntQuantCodec):
    """Int4 per-channel quantisation with exact outlier extraction.

    MILLION-style outlier immunisation: the top ``outlier_fraction`` of a
    block's elements by magnitude are stored exactly (billed index + value)
    and excluded from the channel ranges, so a handful of extreme
    activations cannot blow up every channel's quantisation step.  The
    declared error bound covers the quantised remainder; outliers restore
    exactly.
    """

    lossless = False
    _ENCODE_FLOPS_PER_BYTE = 12.0
    _DECODE_FLOPS_PER_BYTE = 6.0

    def __init__(self, dtype_bytes: int = 2, outlier_fraction: float = 1.0 / 64.0) -> None:
        super().__init__(bits=4, dtype_bytes=dtype_bytes)
        if not 0.0 < outlier_fraction < 1.0:
            raise ConfigurationError("outlier_fraction must be in (0, 1)")
        self.name = "int4-outlier"
        self.outlier_fraction = outlier_fraction

    def encode(self, array: np.ndarray) -> EncodedKV:
        array = np.asarray(array, dtype=np.float64)
        if array.ndim < 2:
            raise ConfigurationError(
                "quantisation needs a token axis (ndim >= 2)"
            )
        flat = array.reshape(-1)
        num_outliers = max(int(np.ceil(flat.size * self.outlier_fraction)), 1)
        # argpartition is deterministic for a fixed input; sorting the picked
        # indices makes the payload canonical regardless of partition order.
        picked = np.argpartition(np.abs(flat), -num_outliers)[-num_outliers:]
        outlier_idx = np.sort(picked).astype(np.int64)
        outlier_val = flat[outlier_idx].copy()
        masked = array.copy().reshape(-1)
        masked[outlier_idx] = np.nan
        masked = masked.reshape(array.shape)
        with np.errstate(all="ignore"):
            lo = np.nanmin(masked, axis=-2, keepdims=True)
            hi = np.nanmax(masked, axis=-2, keepdims=True)
        # Channels that were entirely outliers have no remainder to quantise.
        lo = np.where(np.isnan(lo), 0.0, lo)
        hi = np.where(np.isnan(hi), 0.0, hi)
        codes, lo32, scale32, bound = self._quantise(
            np.where(np.isnan(masked), lo, masked), lo, hi
        )
        n_channels = int(np.prod(lo.shape, dtype=np.int64))
        # Outliers ride the wire exactly: a 4-byte index plus the value at
        # the modelled element width.
        wire = (
            self._wire_nbytes(int(array.size), n_channels)
            + num_outliers * (4 + self.dtype_bytes)
        )
        return EncodedKV(
            codec=self.name, shape=array.shape,
            logical_nbytes=self.logical_nbytes(array),
            wire_nbytes=wire,
            payload=(self._pack_codes(codes), lo32, scale32,
                     outlier_idx, outlier_val),
            decoder=self, error_bound=bound,
        )

    def decode(self, encoded: EncodedKV) -> np.ndarray:
        self._check(encoded)
        packed, lo32, scale32, outlier_idx, outlier_val = encoded.payload
        n = int(np.prod(encoded.shape, dtype=np.int64))
        codes = self._unpack_codes(packed, n).reshape(encoded.shape)
        out = (
            lo32.astype(np.float64)
            + codes.astype(np.float64) * scale32.astype(np.float64)
        )
        flat = out.reshape(-1)
        flat[outlier_idx] = outlier_val
        return flat.reshape(encoded.shape)


# ---------------------------------------------------------------- registry


_CODEC_FACTORIES = {
    "raw": lambda dtype_bytes: RawCodec(dtype_bytes),
    "byteplane": lambda dtype_bytes: BytePlaneCodec(dtype_bytes),
    "int8": lambda dtype_bytes: IntQuantCodec(8, dtype_bytes),
    "int4": lambda dtype_bytes: IntQuantCodec(4, dtype_bytes),
    "int4-outlier": lambda dtype_bytes: Int4OutlierCodec(dtype_bytes),
}

#: codec names accepted by :func:`get_codec` and the engine config
CODEC_NAMES = tuple(_CODEC_FACTORIES)


def get_codec(
    spec: "str | KVBlockCodec | None", dtype_bytes: int = 2
) -> KVBlockCodec:
    """Resolve a codec config value to a codec instance.

    ``None`` means the identity (raw) codec; a string is looked up in the
    registry and constructed at the given modelled element width; an
    instance passes through unchanged (its own ``dtype_bytes`` wins).
    """
    if spec is None:
        return RawCodec(dtype_bytes)
    if isinstance(spec, KVBlockCodec):
        return spec
    try:
        factory = _CODEC_FACTORIES[spec]
    except KeyError:
        raise ConfigurationError(
            f"unknown KV codec {spec!r}; valid: {', '.join(CODEC_NAMES)}"
        ) from None
    return factory(dtype_bytes)
