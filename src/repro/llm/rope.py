"""Rotary position embeddings (RoPE).

Llama and Mistral both encode positions by rotating query/key sub-pairs, so
the substrate implements the same scheme: each consecutive pair of dimensions
``(2i, 2i+1)`` is rotated by an angle ``pos * theta^{-2i/d}``.  Keeping RoPE
faithful matters for the reproduction because the PQ codebooks are trained on
*post-rotation* keys, exactly as PQCache quantizes the keys that attention
actually consumes.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError
from ..utils import DTYPE

__all__ = ["rope_frequencies", "apply_rope", "rope_rotate", "rotate_half"]


def rope_frequencies(head_dim: int, positions: np.ndarray, base: float = 10000.0) -> tuple[np.ndarray, np.ndarray]:
    """Cosine/sine tables for ``positions``.

    Returns ``(cos, sin)`` arrays of shape ``(len(positions), head_dim)``
    where the tables are duplicated across the two halves of the head
    dimension, matching the Llama "rotate-half" formulation.  The angles are
    formed in float64 (a position times a frequency loses digits fast) and
    the tables rounded to the substrate dtype.
    """
    if head_dim % 2 != 0:
        raise DimensionError("head_dim must be even for RoPE")
    positions = np.asarray(positions, dtype=np.float64).reshape(-1)
    inv_freq = 1.0 / (base ** (np.arange(0, head_dim, 2, dtype=np.float64) / head_dim))
    angles = np.outer(positions, inv_freq)  # (n, head_dim / 2)
    angles = np.concatenate([angles, angles], axis=-1)  # (n, head_dim)
    return np.cos(angles).astype(DTYPE), np.sin(angles).astype(DTYPE)


def rotate_half(x: np.ndarray) -> np.ndarray:
    """Rotate the two halves of the last dimension: ``(-x2, x1)``."""
    half = x.shape[-1] // 2
    return np.concatenate([-x[..., half:], x[..., :half]], axis=-1)


def rope_rotate(vectors: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate ``(..., seq, head_dim)`` vectors by :func:`rope_frequencies`
    tables of their positions — :func:`apply_rope` for a caller that rotates
    several tensors at the same positions and builds the tables once."""
    return vectors * cos + rotate_half(vectors) * sin


def apply_rope(
    vectors: np.ndarray,
    positions: np.ndarray,
    base: float = 10000.0,
) -> np.ndarray:
    """Apply rotary embeddings to per-head vectors.

    Args:
        vectors: ``(..., seq, head_dim)`` queries or keys.
        positions: ``(seq,)`` integer positions of each vector.
        base: RoPE theta base.

    Returns:
        Rotated vectors of the same shape.
    """
    vectors = np.asarray(vectors, dtype=DTYPE)
    head_dim = vectors.shape[-1]
    seq = vectors.shape[-2]
    positions = np.asarray(positions).reshape(-1)
    if positions.shape[0] != seq:
        raise DimensionError(
            f"positions length {positions.shape[0]} does not match sequence {seq}"
        )
    return rope_rotate(vectors, *rope_frequencies(head_dim, positions, base))
