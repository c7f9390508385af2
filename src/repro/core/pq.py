"""Product Quantization (PQ) for approximate inner-product search over keys.

This is the retrieval core of PQCache (paper §2.2, §3.1).  A
:class:`ProductQuantizer` splits each ``dim``-dimensional key vector into
``m`` contiguous sub-vectors, clusters every sub-space into ``2**b``
centroids, and represents each key by ``m`` small integer codes.  At decode
time a query is scored against all encoded keys with Asymmetric Distance
Computation (ADC): the query is split the same way, a ``(m, 2**b)`` lookup
table of sub-space inner products is built from the centroids, and the
approximate score of a key is the sum of table entries selected by its codes.

The quantizer is storage-agnostic: :class:`repro.core.pqcache.PQCacheManager`
owns the per-layer/per-head instances and the interaction with the memory
hierarchy.

Batched ADC layout
------------------
The decode hot path scores *all* KV heads of a layer at once instead of
looping over per-head quantizers in Python.  The batched entry points take an
explicit stacked-codebook tensor of shape ``(h, m, 2**b, sub_dim)`` (the
heads' ``(m, 2**b, sub_dim)`` codebooks stacked on a new leading axis):

* :meth:`ProductQuantizer.lookup_table_batch` — ``(h, dim)`` queries →
  ``(h, m, 2**b)`` tables, the paper's §3.2
  ``(h, m, 1, d_m) x (h, m, d_m, 2**b)`` multiplication as one einsum.
* :meth:`ProductQuantizer.score_batch` — gather-and-reduce of ``(h, n, m)``
  codes against those tables in one fancy-indexing pass → ``(h, n)`` scores.
* :meth:`ProductQuantizer.encode_batch` — nearest-centroid assignment of
  ``(h, n, dim)`` vectors → ``(h, n, m)`` codes via one batched ``matmul``.
* :meth:`ProductQuantizer.fit_batch` / :meth:`ProductQuantizer.refine_batch`
  — codebook training for all heads of a layer as one K-Means call over the
  ``h * m`` (head, sub-space) problems.

The per-head methods (:meth:`~ProductQuantizer.lookup_table`,
:meth:`~ProductQuantizer.score`, :meth:`~ProductQuantizer.encode`,
:meth:`~ProductQuantizer.fit`, :meth:`~ProductQuantizer.refine`) are thin
``h == 1`` wrappers over the batched kernels, and the formulations are chosen
so batched and per-head results are *bitwise identical* (same einsum
contraction per output element, same ``matmul`` BLAS path, same reduction
axis lengths) — equivalence tests may compare them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, DimensionError, NotFittedError
from ..utils import DTYPE, as_rng, check_2d
from .kmeans import KMeansResult, kmeans_fit, kmeans_refine, nearest_centroid

__all__ = ["PQConfig", "ProductQuantizer"]


@dataclass(frozen=True)
class PQConfig:
    """Hyper-parameters of a product quantizer.

    Attributes:
        dim: dimensionality of the vectors being quantized (``d_h``).
        num_partitions: ``m`` — number of sub-spaces.
        num_bits: ``b`` — bits per code; each sub-space has ``2**b`` centroids.
        max_kmeans_iters: Lloyd iteration budget per sub-space (``T``).
        seed: RNG seed used for codebook training.
    """

    dim: int
    num_partitions: int = 2
    num_bits: int = 6
    max_kmeans_iters: int = 25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ConfigurationError("dim must be positive")
        if self.num_partitions <= 0:
            raise ConfigurationError("num_partitions must be positive")
        if self.dim % self.num_partitions != 0:
            raise ConfigurationError(
                f"dim ({self.dim}) must be divisible by num_partitions "
                f"({self.num_partitions})"
            )
        if not 1 <= self.num_bits <= 16:
            raise ConfigurationError("num_bits must be in [1, 16]")
        if self.max_kmeans_iters < 0:
            raise ConfigurationError("max_kmeans_iters must be >= 0")

    @property
    def num_centroids(self) -> int:
        """Centroids per sub-space (``2**b``)."""
        return 1 << self.num_bits

    @property
    def sub_dim(self) -> int:
        """Dimensionality of each sub-space (``d_m = d_h / m``)."""
        return self.dim // self.num_partitions

    def code_bytes_per_vector(self) -> float:
        """Storage cost of one encoded vector in bytes (``m * b / 8``)."""
        return self.num_partitions * self.num_bits / 8.0

    def centroid_bytes(self, dtype_bytes: int = 2) -> int:
        """Storage cost of the codebooks (defaults to fp16 like the paper)."""
        return self.num_partitions * self.num_centroids * self.sub_dim * dtype_bytes


class ProductQuantizer:
    """Product quantizer with inner-product ADC scoring.

    Typical usage::

        pq = ProductQuantizer(PQConfig(dim=128, num_partitions=2, num_bits=6))
        codes = pq.fit(keys)               # (s, m) uint16 codes
        scores = pq.score(query, codes)    # (s,) approximate q.k scores
    """

    def __init__(self, config: PQConfig) -> None:
        self.config = config
        self._centroids: np.ndarray | None = None  # (m, 2**b, d_m)
        #: Lloyd iterations of the last :meth:`fit` / :meth:`refine`, summed
        #: over the sub-spaces (0 until the first call)
        self.last_fit_iterations = 0
        self.last_refine_iterations = 0

    # ------------------------------------------------------------------ fit

    @property
    def is_fitted(self) -> bool:
        return self._centroids is not None

    @property
    def centroids(self) -> np.ndarray:
        """Codebooks of shape ``(m, 2**b, sub_dim)``."""
        if self._centroids is None:
            raise NotFittedError("ProductQuantizer has not been fitted")
        return self._centroids

    def _check_keys(self, keys: np.ndarray) -> np.ndarray:
        """``(n, dim)`` vectors of this quantizer's dimensionality, in the
        substrate dtype."""
        keys = check_2d(keys, "vectors")
        if keys.shape[1] != self.config.dim:
            raise DimensionError(
                f"vectors must have dim {self.config.dim}, got {keys.shape[1]}"
            )
        return keys

    def fit(
        self,
        keys: np.ndarray,
        max_iters: int | None = None,
    ) -> np.ndarray:
        """Train codebooks on ``keys`` and return their codes.

        Thin ``h == 1`` wrapper over :meth:`fit_batch`.

        Args:
            keys: ``(n, dim)`` key vectors from the prefilling phase.
            max_iters: optional override of the Lloyd iteration budget,
                used by the adaptive scheduler.

        Returns:
            ``(n, m)`` array of integer codes (dtype ``uint16``).
        """
        codebooks, codes, n_iter = self.fit_batch(
            self.config, self._check_keys(keys)[None], max_iters
        )
        self._centroids = codebooks[0]
        self.last_fit_iterations = int(n_iter.sum())
        return codes[0]

    def refine(
        self,
        keys: np.ndarray,
        max_iters: int | None = None,
        tol: float = 1e-6,
    ) -> np.ndarray:
        """Continue Lloyd iterations from the current codebooks over ``keys``.

        This is the incremental-construction companion of :meth:`fit`: the
        chunked prefill pipeline fits codebooks from a sampled sketch of the
        earliest chunk(s), stream-encodes later chunks as they arrive, and
        finally refines the codebooks over the full key set — reusing the
        sketch's cluster structure instead of re-seeding from scratch.
        Thin ``h == 1`` wrapper over :meth:`refine_batch`.

        Args:
            keys: ``(n, dim)`` key vectors to refine over (typically every
                prefilled key of the head).
            max_iters: optional override of the Lloyd iteration budget.
            tol: relative inertia-improvement convergence tolerance.

        Returns:
            ``(n, m)`` refreshed codes of ``keys`` under the updated
            codebooks (dtype ``uint16``).
        """
        centroids = self.centroids  # raises NotFittedError when unfitted
        iters = self.config.max_kmeans_iters if max_iters is None else int(max_iters)
        codebooks, codes, n_iter = self.refine_batch(
            centroids[None], self._check_keys(keys)[None], iters, tol
        )
        self._centroids = codebooks[0]
        self.last_refine_iterations = int(n_iter.sum())
        return codes[0]

    # ------------------------------------------------------ batched kernels

    @staticmethod
    def _check_codebooks(codebooks: np.ndarray) -> np.ndarray:
        codebooks = np.asarray(codebooks, dtype=DTYPE)
        if codebooks.ndim != 4:
            raise DimensionError(
                "codebooks must have shape (h, m, num_centroids, sub_dim), "
                f"got {codebooks.shape}"
            )
        return codebooks

    @staticmethod
    def lookup_table_batch(
        codebooks: np.ndarray, queries: np.ndarray
    ) -> np.ndarray:
        """ADC lookup tables for all heads at once.

        Args:
            codebooks: ``(h, m, 2**b, sub_dim)`` stacked codebooks.
            queries: ``(h, dim)`` one query vector per head.

        Returns:
            ``(h, m, 2**b)`` inner-product tables — the §3.2
            ``(h, m, 1, d_m) x (h, m, d_m, 2**b)`` product as one einsum.
        """
        codebooks = ProductQuantizer._check_codebooks(codebooks)
        h, m, _, sub_dim = codebooks.shape
        queries = np.asarray(queries, dtype=DTYPE)
        if queries.shape != (h, m * sub_dim):
            raise DimensionError(
                f"queries must have shape ({h}, {m * sub_dim}), "
                f"got {queries.shape}"
            )
        sub_queries = queries.reshape(h, m, sub_dim)
        return np.einsum("hmd,hmcd->hmc", sub_queries, codebooks)

    @staticmethod
    def score_batch(
        codebooks: np.ndarray, queries: np.ndarray, codes: np.ndarray
    ) -> np.ndarray:
        """Approximate inner products for all heads' codes in one pass.

        Args:
            codebooks: ``(h, m, 2**b, sub_dim)`` stacked codebooks.
            queries: ``(h, dim)`` one query vector per head.
            codes: ``(h, n, m)`` PQ codes (any integer dtype; views into a
                shared ``(capacity, h, m)`` buffer work unchanged).

        Returns:
            ``(h, n)`` approximate scores.
        """
        tables = ProductQuantizer.lookup_table_batch(codebooks, queries)
        h, m, _ = tables.shape
        codes = np.asarray(codes)
        if codes.ndim != 3 or codes.shape[0] != h or codes.shape[2] != m:
            raise DimensionError(
                f"codes must have shape ({h}, n, {m}), got {codes.shape}"
            )
        # One 1-D ``take`` per (head, sub-space) is ~10x faster than a single
        # broadcast fancy-index over the (h, n, m) code tensor.  For m < 8
        # the per-key reduction is accumulated with sequential in-place adds,
        # which numpy's sum uses too at that length — results stay bitwise
        # identical to the per-head ``gathered.sum(axis=1)``; at m >= 8
        # numpy switches to unrolled accumulators, so we defer to the same
        # ``sum`` reduction to keep exact equality.
        n = codes.shape[1]
        if m < 8:
            scores = np.empty((h, n), dtype=DTYPE)
            for head in range(h):
                head_table = tables[head]
                head_codes = codes[head]
                acc = head_table[0].take(head_codes[:, 0])
                for part in range(1, m):
                    acc += head_table[part].take(head_codes[:, part])
                scores[head] = acc
            return scores
        gathered = np.empty((h, n, m), dtype=DTYPE)
        for head in range(h):
            head_table = tables[head]
            head_codes = codes[head]
            for part in range(m):
                gathered[head, :, part] = head_table[part].take(
                    head_codes[:, part]
                )
        return gathered.sum(axis=2)

    @staticmethod
    def _split_batch(vectors: np.ndarray, h: int, m: int, sub_dim: int) -> np.ndarray:
        """``(h, n, dim)`` vectors as the ``(h * m, n, sub_dim)`` stack of
        (head, sub-space) problems the K-Means kernels take (a copy)."""
        vectors = np.asarray(vectors, dtype=DTYPE)
        if vectors.ndim != 3 or vectors.shape[0] != h or vectors.shape[2] != m * sub_dim:
            raise DimensionError(
                f"vectors must have shape ({h}, n, {m * sub_dim}), "
                f"got {vectors.shape}"
            )
        n = vectors.shape[1]
        return (
            vectors.reshape(h, n, m, sub_dim)
            .transpose(0, 2, 1, 3)
            .reshape(h * m, n, sub_dim)
        )

    @staticmethod
    def _to_codes(labels: np.ndarray, h: int, m: int) -> np.ndarray:
        """``(h * m, n)`` per-problem labels as ``(h, n, m)`` uint16 codes."""
        n = labels.shape[1]
        return labels.reshape(h, m, n).transpose(0, 2, 1).astype(np.uint16, order="C")

    @staticmethod
    def _trained(
        result: KMeansResult, h: int, m: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(codebooks, codes, n_iter)`` of a batched K-Means result."""
        return (
            result.centroids.reshape((h, m) + result.centroids.shape[1:]),
            ProductQuantizer._to_codes(result.labels, h, m),
            result.n_iter.reshape(h, m),
        )

    @staticmethod
    def fit_batch(
        config: PQConfig, keys: np.ndarray, max_iters: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Train the codebooks of all heads of a layer in one K-Means call.

        Every head draws from its own ``config.seed`` generator, sub-space
        after sub-space, so a head's codebooks are the ones a lone
        :meth:`fit` of that head produces — whatever else is in the batch.

        Args:
            config: PQ geometry, iteration budget and seed shared by the heads.
            keys: ``(h, n, dim)`` key vectors.
            max_iters: optional override of the Lloyd iteration budget.

        Returns:
            ``(h, m, 2**b, sub_dim)`` codebooks, ``(h, n, m)`` uint16 codes of
            ``keys`` and the ``(h, m)`` Lloyd iterations each problem ran.
        """
        h, m = len(keys), config.num_partitions
        result = kmeans_fit(
            ProductQuantizer._split_batch(keys, h, m, config.sub_dim),
            n_clusters=config.num_centroids,
            max_iter=config.max_kmeans_iters if max_iters is None else int(max_iters),
            seed=[as_rng(config.seed) for _ in range(h)],
        )
        return ProductQuantizer._trained(result, h, m)

    @staticmethod
    def refine_batch(
        codebooks: np.ndarray, keys: np.ndarray, max_iters: int, tol: float = 1e-6
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Continue Lloyd iterations for all heads of a layer in one call.

        Args:
            codebooks: ``(h, m, 2**b, sub_dim)`` starting codebooks (not
                mutated).
            keys: ``(h, n, dim)`` key vectors to refine over.
            max_iters: Lloyd iteration budget.
            tol: relative inertia-improvement convergence tolerance.

        Returns:
            The same triple as :meth:`fit_batch`.
        """
        codebooks = ProductQuantizer._check_codebooks(codebooks)
        h, m, num_centroids, sub_dim = codebooks.shape
        result = kmeans_refine(
            ProductQuantizer._split_batch(keys, h, m, sub_dim),
            codebooks.reshape(h * m, num_centroids, sub_dim),
            max_iter=max_iters,
            tol=tol,
        )
        return ProductQuantizer._trained(result, h, m)

    @staticmethod
    def encode_batch(codebooks: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """Nearest-centroid codes for all heads' vectors in one pass.

        Args:
            codebooks: ``(h, m, 2**b, sub_dim)`` stacked codebooks.
            vectors: ``(h, n, dim)`` vectors to encode.

        Returns:
            ``(h, n, m)`` uint16 codes, identical to running
            :func:`~repro.core.kmeans.kmeans_assign` per head and sub-space
            (it is the same kernel).
        """
        codebooks = ProductQuantizer._check_codebooks(codebooks)
        h, m, num_centroids, sub_dim = codebooks.shape
        labels, _ = nearest_centroid(
            ProductQuantizer._split_batch(vectors, h, m, sub_dim),
            codebooks.reshape(h * m, num_centroids, sub_dim),
        )
        return ProductQuantizer._to_codes(labels, h, m)

    # --------------------------------------------------------------- encode

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Encode new vectors with the existing codebooks.

        Used when local tokens are evicted from the GPU sliding window and
        must be assigned PQ codes based on their nearest centroids
        (paper §3.1, end of overview).  Thin ``h == 1`` wrapper over
        :meth:`encode_batch`.
        """
        centroids = self.centroids
        return self.encode_batch(centroids[None], self._check_keys(vectors)[None])[0]

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate vectors from codes, shape ``(n, dim)``."""
        centroids = self.centroids
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != self.config.num_partitions:
            raise DimensionError(
                f"codes must have shape (n, {self.config.num_partitions})"
            )
        parts = [
            centroids[part][codes[:, part].astype(np.int64)]
            for part in range(self.config.num_partitions)
        ]
        return np.concatenate(parts, axis=1)

    # ---------------------------------------------------------------- score

    def lookup_table(self, query: np.ndarray) -> np.ndarray:
        """Inner products between a query's sub-vectors and every centroid.

        Returns a ``(m, 2**b)`` table; thin ``h == 1`` wrapper over
        :meth:`lookup_table_batch`.
        """
        cfg = self.config
        query = np.asarray(query, dtype=DTYPE).reshape(-1)
        if query.shape[0] != cfg.dim:
            raise DimensionError(
                f"query must have dim {cfg.dim}, got {query.shape[0]}"
            )
        return self.lookup_table_batch(self.centroids[None], query[None])[0]

    def score(self, query: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Approximate inner products ``q . k_i`` for every encoded key.

        Thin ``h == 1`` wrapper over :meth:`score_batch`.

        Args:
            query: ``(dim,)`` query vector.
            codes: ``(n, m)`` PQ codes of the candidate keys.

        Returns:
            ``(n,)`` approximate scores.
        """
        cfg = self.config
        query = np.asarray(query, dtype=DTYPE).reshape(-1)
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != cfg.num_partitions:
            raise DimensionError(
                f"codes must have shape (n, {cfg.num_partitions})"
            )
        return self.score_batch(self.centroids[None], query[None], codes[None])[0]

    def reconstruction_error(self, vectors: np.ndarray) -> float:
        """Mean squared reconstruction error of ``vectors`` (diagnostics)."""
        approx = self.decode(self.encode(vectors))
        exact = check_2d(vectors, "vectors")
        return float(np.mean((approx - exact) ** 2))

    # ------------------------------------------------------------ accounting

    def memory_footprint(self, num_vectors: int, dtype_bytes: int = 2) -> dict:
        """Bytes used by codes and centroids for ``num_vectors`` keys."""
        cfg = self.config
        return {
            "codes_bytes": int(np.ceil(cfg.code_bytes_per_vector() * num_vectors)),
            "centroid_bytes": cfg.centroid_bytes(dtype_bytes),
            "raw_bytes": num_vectors * cfg.dim * dtype_bytes,
        }
