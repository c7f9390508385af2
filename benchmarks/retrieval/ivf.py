"""IVF (inverted file) approximate index.

The paper's §5 discussion lists IVF and graph indexes as future extensions of
PQCache; this module provides the IVF building block so that extension can be
prototyped and compared against pure PQ (see the ablation benchmark).  Vectors
are clustered into ``n_lists`` coarse cells; a query probes the ``n_probe``
closest cells and scores only their members.
"""

from __future__ import annotations

import numpy as np

from repro.core.kmeans import kmeans_assign, kmeans_fit
from repro.errors import ConfigurationError, DimensionError, NotFittedError
from repro.utils import check_2d, topk_indices

__all__ = ["IVFIndex"]


class IVFIndex:
    """Inverted-file index with exact scoring inside probed cells."""

    def __init__(self, dim: int, n_lists: int = 16, n_probe: int = 4,
                 seed: int = 0) -> None:
        if dim <= 0:
            raise DimensionError("dim must be positive")
        if n_lists <= 0 or n_probe <= 0:
            raise ConfigurationError("n_lists and n_probe must be positive")
        self.dim = dim
        self.n_lists = n_lists
        self.n_probe = min(n_probe, n_lists)
        self.seed = seed
        self._centroids: np.ndarray | None = None
        self._lists: list[np.ndarray] = []
        self._list_ids: list[np.ndarray] = []
        self._size = 0

    @property
    def size(self) -> int:
        return self._size

    @property
    def is_trained(self) -> bool:
        return self._centroids is not None

    def train(self, vectors: np.ndarray, max_iter: int = 25) -> None:
        """Cluster the training vectors into coarse cells and index them."""
        vectors = check_2d(vectors, "vectors")
        if vectors.shape[1] != self.dim:
            raise DimensionError(f"expected dim {self.dim}, got {vectors.shape[1]}")
        result = kmeans_fit(vectors, self.n_lists, max_iter=max_iter, seed=self.seed)
        self._centroids = result.centroids
        self._lists = []
        self._list_ids = []
        for cell in range(self.n_lists):
            members = np.flatnonzero(result.labels == cell)
            self._lists.append(vectors[members].copy())
            self._list_ids.append(members.astype(np.int64))
        self._size = vectors.shape[0]

    def add(self, vectors: np.ndarray) -> None:
        """Assign new vectors to their nearest cell."""
        if self._centroids is None:
            raise NotFittedError("train must be called before add")
        vectors = check_2d(vectors, "vectors")
        cells = kmeans_assign(vectors, self._centroids)
        for offset, cell in enumerate(cells):
            vector_id = self._size + offset
            self._lists[cell] = np.concatenate(
                [self._lists[cell], vectors[offset][None, :]], axis=0
            )
            self._list_ids[cell] = np.concatenate(
                [self._list_ids[cell], np.asarray([vector_id], dtype=np.int64)]
            )
        self._size += vectors.shape[0]

    def search(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-k among the ``n_probe`` closest cells (inner-product scores)."""
        if self._centroids is None or self._size == 0:
            raise NotFittedError("index is empty")
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if query.shape[0] != self.dim:
            raise DimensionError(f"query must have dim {self.dim}")
        cell_scores = self._centroids @ query
        probe_cells = topk_indices(cell_scores, self.n_probe)
        candidate_ids = []
        candidate_scores = []
        for cell in probe_cells:
            members = self._lists[cell]
            if members.shape[0] == 0:
                continue
            candidate_ids.append(self._list_ids[cell])
            candidate_scores.append(members @ query)
        if not candidate_ids:
            return np.empty(0, dtype=np.int64), np.empty(0)
        ids = np.concatenate(candidate_ids)
        scores = np.concatenate(candidate_scores)
        order = topk_indices(scores, min(k, scores.size))
        return ids[order], scores[order]
