"""Small shared helpers used across the library.

The helpers here deliberately stay free of project-specific concepts: random
number handling, shape validation, and a couple of numerically careful
primitives (softmax, deterministic top-k) that several subsystems need.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

__all__ = [
    "as_rng",
    "check_2d",
    "softmax",
    "topk_indices",
    "sizeof_fmt",
]


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` for OS entropy.  Centralising this makes every stochastic
    component of the library reproducible from a single integer.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_2d(array: np.ndarray, name: str = "array") -> np.ndarray:
    """Validate that ``array`` is a 2-D float array and return it as float64."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DimensionError(f"{name} must be non-empty, got shape {arr.shape}")
    return arr


def softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - np.max(scores, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries of a 1-D score vector, sorted
    by descending score.

    Ties are broken deterministically by the lowest index: the result is the
    first ``k`` entries of a stable sort on ``(-score, index)``, so equal
    scores at the ``k``-th boundary always resolve the same way on every
    platform (``argpartition`` alone leaves that order unspecified).

    ``k`` larger than the vector length returns all indices.
    """
    scores = np.asarray(scores)
    if scores.ndim != 1:
        raise DimensionError(f"scores must be 1-D, got shape {scores.shape}")
    k = min(int(k), scores.shape[0])
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    neg = -scores
    # Partition once to find the k-th largest value.  Entries strictly above
    # it (always fewer than k) are stable-sorted; the tie group *at* the
    # boundary value is taken in ascending index order to fill the remaining
    # slots.  This keeps the whole selection O(n + k log k) even when the
    # score vector is dense with ties (a full sort of the tie group could
    # degenerate to O(n log n)).
    kth = np.partition(neg, k - 1)[k - 1]
    strict = np.flatnonzero(neg < kth)
    boundary = np.flatnonzero(neg == kth)
    if strict.size + boundary.size < k:
        # Non-finite scores (NaN) break the partition invariants; fall back
        # to the reference stable sort.
        return np.argsort(neg, kind="stable")[:k].astype(np.int64)
    order = np.argsort(neg[strict], kind="stable")
    return np.concatenate(
        [strict[order], boundary[: k - strict.size]]
    ).astype(np.int64)


def sizeof_fmt(num_bytes: float) -> str:
    """Human-readable byte count (e.g. ``"1.5 GiB"``)."""
    size = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(size) < 1024.0 or unit == "TiB":
            return f"{size:.2f} {unit}"
        size /= 1024.0
    return f"{size:.2f} TiB"
