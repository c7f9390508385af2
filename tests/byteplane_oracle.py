"""Oracle for the byte-plane wire size: the packer
``repro.llm.kvcodec.byteplane_wire_nbytes`` replaced, kept as it was.

:func:`byteplane_pack` genuinely builds the blob — per plane raw, run-length
and palette bit-packing, smallest wins, ties to the lower mode id — and
:func:`byteplane_unpack` inverts it bit for bit, which is what makes the
format a real lossless encoding and its length a wire size worth billing.
The production code must return ``len(byteplane_pack(image))`` exactly.
"""

import numpy as np

from repro.errors import ConfigurationError


def _rle_encode(plane: np.ndarray) -> bytes:
    """Run-length encode one byte plane as (count u8, value u8) pairs."""
    n = plane.size
    if n == 0:
        return b""
    boundaries = np.flatnonzero(np.diff(plane)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [n]))
    lengths = ends - starts
    values = plane[starts]
    # Runs longer than 255 split into ceil(len/255) chunks: full 255s with
    # the remainder on the last chunk of each run.
    chunks = (lengths + 254) // 255
    out_values = np.repeat(values, chunks).astype(np.uint8)
    out_counts = np.full(out_values.size, 255, dtype=np.uint8)
    last = np.cumsum(chunks) - 1
    remainder = lengths - (chunks - 1) * 255
    out_counts[last] = remainder.astype(np.uint8)
    return np.stack([out_counts, out_values], axis=1).tobytes()


def _rle_decode(blob: bytes, n: int) -> np.ndarray:
    pairs = np.frombuffer(blob, dtype=np.uint8).reshape(-1, 2)
    out = np.repeat(pairs[:, 1], pairs[:, 0])
    if out.size != n:
        raise ConfigurationError("corrupt RLE plane: length mismatch")
    return out


def _palette_encode(plane: np.ndarray) -> "bytes | None":
    """Palette + bit-packed indices; ``None`` when it cannot win over raw."""
    palette = np.unique(plane)
    d = int(palette.size)
    if d < 2 or d > 128:  # >7 bits/elem cannot beat raw by a useful margin
        return None
    bits = max(int(np.ceil(np.log2(d))), 1)
    codes = np.searchsorted(palette, plane).astype(np.uint8)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint8)
    bit_matrix = (codes[:, None] >> shifts) & 1
    packed = np.packbits(bit_matrix.reshape(-1))
    return bytes([d]) + palette.tobytes() + packed.tobytes()


def _palette_decode(blob: bytes, n: int) -> np.ndarray:
    d = blob[0]
    palette = np.frombuffer(blob[1: 1 + d], dtype=np.uint8)
    bits = max(int(np.ceil(np.log2(d))), 1)
    packed = np.frombuffer(blob[1 + d:], dtype=np.uint8)
    flat = np.unpackbits(packed)[: n * bits].reshape(n, bits)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint8)
    codes = (flat << shifts).sum(axis=1)
    return palette[codes]


#: per-plane encodings, tried in order; ties go to the lower mode id so the
#: packed bytes are a deterministic function of the input
_PLANE_RAW, _PLANE_RLE, _PLANE_PALETTE = 0, 1, 2


def byteplane_pack(image: np.ndarray) -> bytes:
    """Pack an array's byte image plane-by-plane; bitwise invertible.

    The array is viewed as raw bytes and split into ``itemsize`` planes
    (plane ``i`` holds byte ``i`` of every element).  Each plane is stored
    in the smallest of three encodings — raw, run-length, or palette
    bit-packing — behind a 5-byte record header (mode u8 + payload length
    u32le).  ``byteplane_unpack`` restores the exact input bytes.
    """
    image = np.ascontiguousarray(image)
    raw = np.frombuffer(image.tobytes(), dtype=np.uint8)
    itemsize = image.dtype.itemsize
    planes = raw.reshape(-1, itemsize) if itemsize > 1 else raw.reshape(-1, 1)
    records: list[bytes] = []
    for i in range(planes.shape[1]):
        plane = np.ascontiguousarray(planes[:, i])
        candidates = [(_PLANE_RAW, plane.tobytes()), (_PLANE_RLE, _rle_encode(plane))]
        palette = _palette_encode(plane)
        if palette is not None:
            candidates.append((_PLANE_PALETTE, palette))
        mode, payload = min(candidates, key=lambda c: (len(c[1]), c[0]))
        records.append(bytes([mode]) + len(payload).to_bytes(4, "little") + payload)
    return b"".join(records)


def byteplane_unpack(blob: bytes, shape: "tuple[int, ...]", dtype) -> np.ndarray:
    """Invert :func:`byteplane_pack` given the original shape and dtype."""
    dtype = np.dtype(dtype)
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    planes: list[np.ndarray] = []
    offset = 0
    for _ in range(dtype.itemsize):
        mode = blob[offset]
        length = int.from_bytes(blob[offset + 1: offset + 5], "little")
        payload = blob[offset + 5: offset + 5 + length]
        offset += 5 + length
        if mode == _PLANE_RAW:
            plane = np.frombuffer(payload, dtype=np.uint8)
        elif mode == _PLANE_RLE:
            plane = _rle_decode(payload, n)
        elif mode == _PLANE_PALETTE:
            plane = _palette_decode(payload, n)
        else:
            raise ConfigurationError(f"corrupt byteplane blob: mode {mode}")
        if plane.size != n:
            raise ConfigurationError("corrupt byteplane blob: plane length")
        planes.append(plane)
    raw = np.stack(planes, axis=1).reshape(-1) if dtype.itemsize > 1 else planes[0]
    return np.frombuffer(raw.tobytes(), dtype=dtype).reshape(shape).copy()
