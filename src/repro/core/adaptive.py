"""Adaptive K-Means iteration budgeting (paper §3.3, Eq. 1-3).

PQ codebook training runs on otherwise-idle CPU cores while the GPU computes
the same transformer layer.  To guarantee that clustering never blocks the
GPU, PQCache fits two simple cost curves from a handful of profiling runs:

* clustering time    ``T_clus(s, T) = alpha1 + beta1 * s * T``      (Eq. 1)
* layer compute time ``T_comp(s)   = alpha2 + beta2 * s + gamma2 * s^2``  (Eq. 2)

and caps the Lloyd iteration count at the ``T_max`` for which the two are
equal (Eq. 3), clipped to a configurable range.  This module implements the
profiling-record container, least-squares fitting of both curves, and the
``T_max`` computation.

Eq. 1 has no term that grows with ``s`` but not with ``T``, and the host's
clustering has none either: k-means++ seeding picks its centres among at most
``SEED_POINTS_PER_CLUSTER * 2**b`` keys (:mod:`repro.core.kmeans`), so it is a
part of ``alpha1`` and everything proportional to ``s`` is a Lloyd iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError, NotFittedError

__all__ = [
    "ClusteringProfile",
    "ComputeProfile",
    "AdaptiveIterationPlanner",
]


@dataclass(frozen=True)
class ClusteringProfile:
    """One profiling observation of K-Means clustering time.

    Attributes:
        seq_len: prompt length ``s`` used in the run.
        iterations: Lloyd iterations ``T`` executed.
        seconds: measured wall-clock time of the clustering job.
    """

    seq_len: int
    iterations: int
    seconds: float


@dataclass(frozen=True)
class ComputeProfile:
    """One profiling observation of single-layer transformer compute time."""

    seq_len: int
    seconds: float


@dataclass
class AdaptiveIterationPlanner:
    """Fits Eq. 1-2 and produces the iteration cap of Eq. 3.

    Attributes:
        min_iterations: lower clip for the returned budget, so clustering
            never degenerates to pure k-means++ seeding unless forced.
        max_iterations: upper clip, so very long prompts do not run K-Means
            forever just because the GPU is busy.
    """

    min_iterations: int = 1
    max_iterations: int = 60

    _clus_coeffs: tuple[float, float] | None = field(default=None, repr=False)
    _comp_coeffs: tuple[float, float, float] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.min_iterations < 0:
            raise ConfigurationError("min_iterations must be >= 0")
        if self.max_iterations < self.min_iterations:
            raise ConfigurationError("max_iterations must be >= min_iterations")

    # ------------------------------------------------------------- fitting

    def fit_clustering(self, profiles: list[ClusteringProfile]) -> tuple[float, float]:
        """Least-squares fit of ``alpha1 + beta1 * s * T`` to observations."""
        if len(profiles) < 2:
            raise ConfigurationError(
                "need at least 2 clustering profiles to fit Eq. 1"
            )
        st = np.array([p.seq_len * p.iterations for p in profiles], dtype=np.float64)
        y = np.array([p.seconds for p in profiles], dtype=np.float64)
        design = np.stack([np.ones_like(st), st], axis=1)
        coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
        alpha1, beta1 = float(coeffs[0]), float(coeffs[1])
        beta1 = max(beta1, 1e-12)
        self._clus_coeffs = (alpha1, beta1)
        return self._clus_coeffs

    def fit_compute(self, profiles: list[ComputeProfile]) -> tuple[float, float, float]:
        """Least-squares fit of ``alpha2 + beta2*s + gamma2*s^2``."""
        if len(profiles) < 3:
            raise ConfigurationError(
                "need at least 3 compute profiles to fit Eq. 2"
            )
        s = np.array([p.seq_len for p in profiles], dtype=np.float64)
        y = np.array([p.seconds for p in profiles], dtype=np.float64)
        design = np.stack([np.ones_like(s), s, s * s], axis=1)
        coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
        self._comp_coeffs = (float(coeffs[0]), float(coeffs[1]), float(coeffs[2]))
        return self._comp_coeffs

    # ----------------------------------------------------------- prediction

    @property
    def clustering_coefficients(self) -> tuple[float, float]:
        if self._clus_coeffs is None:
            raise NotFittedError("clustering cost model not fitted")
        return self._clus_coeffs

    @property
    def compute_coefficients(self) -> tuple[float, float, float]:
        if self._comp_coeffs is None:
            raise NotFittedError("compute cost model not fitted")
        return self._comp_coeffs

    def predict_clustering_time(self, seq_len: int, iterations: int) -> float:
        """Predicted clustering time for ``seq_len`` and ``iterations`` (Eq. 1)."""
        alpha1, beta1 = self.clustering_coefficients
        return alpha1 + beta1 * float(seq_len) * float(iterations)

    def predict_compute_time(self, seq_len: int) -> float:
        """Predicted single-layer compute time for ``seq_len`` (Eq. 2)."""
        alpha2, beta2, gamma2 = self.compute_coefficients
        s = float(seq_len)
        return alpha2 + beta2 * s + gamma2 * s * s

    def max_iterations_for(self, seq_len: int) -> int:
        """Largest iteration count whose clustering time fits under the GPU
        compute time of the same layer (Eq. 3), clipped to the configured
        range."""
        if seq_len <= 0:
            raise ConfigurationError("seq_len must be positive")
        alpha1, beta1 = self.clustering_coefficients
        alpha2, beta2, gamma2 = self.compute_coefficients
        s = float(seq_len)
        t_max = (gamma2 * s * s + beta2 * s + alpha2 - alpha1) / (beta1 * s)
        t_max = int(np.floor(t_max))
        return int(np.clip(t_max, self.min_iterations, self.max_iterations))

    # -------------------------------------------------------------- helpers

    @classmethod
    def from_device_model(
        cls,
        compute_seconds_fn,
        clustering_seconds_per_point: float,
        clustering_setup_seconds: float = 1e-3,
        seq_lens: tuple[int, ...] = (1024, 4096, 16384, 65536),
        min_iterations: int = 1,
        max_iterations: int = 60,
    ) -> "AdaptiveIterationPlanner":
        """Build a planner from an analytical device model.

        ``compute_seconds_fn(s)`` must return single-layer compute time; the
        clustering curve is synthesised from a per-point-per-iteration cost.
        This is how the latency benchmarks construct planners without real
        hardware profiling.
        """
        planner = cls(min_iterations=min_iterations, max_iterations=max_iterations)
        clus = [
            ClusteringProfile(s, t, clustering_setup_seconds
                              + clustering_seconds_per_point * s * t)
            for s in seq_lens
            for t in (1, 8, 32)
        ]
        comp = [ComputeProfile(s, float(compute_seconds_fn(s))) for s in seq_lens]
        planner.fit_clustering(clus)
        planner.fit_compute(comp)
        return planner
