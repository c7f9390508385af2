"""PQ-backed approximate index built on :class:`repro.core.pq.ProductQuantizer`.

A thin vector-database-style wrapper (add / search) so the retrieval quality
of PQ can be studied in isolation from the LLM machinery, and so the §5
"other ANNS techniques" discussion has a uniform interface to compare
against (:class:`~repro.retrieval.flat.FlatIndex`,
:class:`~repro.retrieval.ivf.IVFIndex`).
"""

from __future__ import annotations

import numpy as np

from repro.core.pq import PQConfig, ProductQuantizer
from repro.errors import DimensionError, NotFittedError
from repro.utils import check_2d, topk_indices

__all__ = ["PQIndex"]


class PQIndex:
    """Approximate inner-product index using product quantization codes."""

    def __init__(self, config: PQConfig) -> None:
        self.config = config
        self._pq = ProductQuantizer(config)
        self._codes: np.ndarray | None = None

    @property
    def size(self) -> int:
        return 0 if self._codes is None else int(self._codes.shape[0])

    @property
    def is_trained(self) -> bool:
        return self._pq.is_fitted

    def train(self, vectors: np.ndarray) -> None:
        """Train codebooks and index the training vectors."""
        self._codes = self._pq.fit(vectors)

    def add(self, vectors: np.ndarray) -> None:
        """Encode and append vectors (codebooks must be trained)."""
        if not self._pq.is_fitted:
            raise NotFittedError("train must be called before add")
        vectors = check_2d(vectors, "vectors")
        codes = self._pq.encode(vectors)
        if self._codes is None:
            self._codes = codes
        else:
            self._codes = np.concatenate([self._codes, codes], axis=0)

    def search(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Approximate top-k indices and ADC scores."""
        if self._codes is None or self._codes.shape[0] == 0:
            raise NotFittedError("index is empty")
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if query.shape[0] != self.config.dim:
            raise DimensionError(f"query must have dim {self.config.dim}")
        scores = self._pq.score(query, self._codes)
        idx = topk_indices(scores, k)
        return idx, scores[idx]

    def memory_bytes(self) -> dict:
        """Codes + centroid storage of the index."""
        return self._pq.memory_footprint(self.size)
