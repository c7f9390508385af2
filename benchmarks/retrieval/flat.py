"""Exact (flat) maximum-inner-product search.

The reference point for the approximate indexes: scores every stored vector
against the query.  PQCache's Oracle policy is the attention-side equivalent
of this index.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionError, NotFittedError
from repro.utils import check_2d, topk_indices

__all__ = ["FlatIndex"]


class FlatIndex:
    """Brute-force inner-product index."""

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise DimensionError("dim must be positive")
        self.dim = dim
        self._vectors: np.ndarray | None = None

    @property
    def size(self) -> int:
        return 0 if self._vectors is None else int(self._vectors.shape[0])

    def add(self, vectors: np.ndarray) -> None:
        """Append vectors to the index."""
        vectors = check_2d(vectors, "vectors")
        if vectors.shape[1] != self.dim:
            raise DimensionError(f"expected dim {self.dim}, got {vectors.shape[1]}")
        if self._vectors is None:
            self._vectors = vectors.copy()
        else:
            self._vectors = np.concatenate([self._vectors, vectors], axis=0)

    def search(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-k indices and scores by inner product."""
        if self._vectors is None:
            raise NotFittedError("index is empty")
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if query.shape[0] != self.dim:
            raise DimensionError(f"query must have dim {self.dim}")
        scores = self._vectors @ query
        idx = topk_indices(scores, k)
        return idx, scores[idx]
