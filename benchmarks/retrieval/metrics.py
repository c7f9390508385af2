"""Retrieval-quality metrics (recall@k and score distortion)."""

from __future__ import annotations

import numpy as np

__all__ = ["recall_at_k", "score_distortion"]


def recall_at_k(approx_ids: np.ndarray, exact_ids: np.ndarray) -> float:
    """Fraction of the exact result set recovered by the approximate one."""
    exact_ids = np.asarray(exact_ids, dtype=np.int64)
    approx_ids = np.asarray(approx_ids, dtype=np.int64)
    if exact_ids.size == 0:
        return 1.0
    return float(np.isin(exact_ids, approx_ids).mean())


def score_distortion(approx_scores: np.ndarray, exact_scores: np.ndarray) -> float:
    """Mean absolute difference between approximate and exact scores of the
    same candidate set, normalised by the exact score spread."""
    approx_scores = np.asarray(approx_scores, dtype=np.float64)
    exact_scores = np.asarray(exact_scores, dtype=np.float64)
    spread = float(exact_scores.max() - exact_scores.min()) if exact_scores.size else 1.0
    spread = max(spread, 1e-12)
    return float(np.mean(np.abs(approx_scores - exact_scores)) / spread)
