"""Scalar K-Means oracle: the one-problem-at-a-time implementation that
``repro.core.kmeans`` shipped before the batched kernel replaced it.

Its arithmetic is kept as it was (difference-form k-means++ distances,
``rng.choice`` picks, the ``x_sq - 2 x.c + c_sq`` expansion over the whole
``(n, 2**b)`` matrix, ``np.add.at`` centroid sums) as the reference the batched kernel is compared
against: identical draws and update order, so labels, iteration counts and
convergence flags must match exactly and centroids to rounding.  It computes
in the substrate dtype (``repro.utils.DTYPE``) and sums inertia in float64,
as the kernel does.

The one thing it takes from the kernel is the seeding sample: a problem longer
than ``cap * n_clusters`` points picks its centres among a sorted sample of
that many, drawn from the same generator by the same rule.  ``cap`` defaults
to the kernel's ``SEED_POINTS_PER_CLUSTER``; ``cap=LIFTED`` is the full-set
seeding both shipped before, which the kernel itself can no longer run.
"""

import math

import numpy as np

from repro.core import kmeans as kernel
from repro.core.kmeans import KMeansResult
from repro.utils import DTYPE

LIFTED = math.inf


def pairwise_sq_dists(points, centroids):
    x_sq = np.einsum("ij,ij->i", points, points)[:, None]
    c_sq = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    dists = x_sq - 2.0 * (points @ centroids.T) + c_sq
    np.maximum(dists, 0.0, out=dists)
    return dists


def assign(points, centroids):
    return np.argmin(pairwise_sq_dists(points, centroids), axis=1).astype(np.int64)


def plus_plus_init(points, n_clusters, rng, cap=None):
    points = np.asarray(points, dtype=DTYPE)
    n_clusters = min(n_clusters, points.shape[0])
    sample_size = (kernel.SEED_POINTS_PER_CLUSTER if cap is None else cap) * n_clusters
    if points.shape[0] > sample_size:
        points = points[np.sort(rng.choice(
            points.shape[0], size=sample_size, replace=False, shuffle=False))]
    n_points = points.shape[0]
    centroids = np.empty((n_clusters, points.shape[1]), dtype=DTYPE)
    centroids[0] = points[int(rng.integers(n_points))]
    closest_sq = np.einsum("ij,ij->i", points - centroids[0], points - centroids[0])
    for idx in range(1, n_clusters):
        total = float(closest_sq.sum())
        if total <= 1e-12:
            choice = int(rng.integers(n_points))
        else:
            choice = int(rng.choice(n_points, p=closest_sq / total))
        centroids[idx] = points[choice]
        diff = points - centroids[idx]
        np.minimum(closest_sq, np.einsum("ij,ij->i", diff, diff), out=closest_sq)
    return centroids


def lloyd(points, centroids, max_iter, tol=1e-6):
    """Lloyd iterations from ``centroids`` (not mutated)."""
    points = np.asarray(points, dtype=DTYPE)
    centroids = np.array(centroids, dtype=DTYPE)
    n_points, n_clusters = points.shape[0], centroids.shape[0]
    dists = pairwise_sq_dists(points, centroids)
    labels = np.argmin(dists, axis=1)
    inertia = float(dists[np.arange(n_points), labels].sum(dtype=np.float64))

    n_iter = 0
    converged = max_iter == 0
    for n_iter in range(1, max_iter + 1):
        counts = np.bincount(labels, minlength=n_clusters).astype(DTYPE)
        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, points)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        empty = np.flatnonzero(~nonempty)
        if empty.size:
            diffs = points - centroids[labels]
            far = np.argsort(-np.einsum("ij,ij->i", diffs, diffs), kind="stable")
            worst = far[: empty.size]
            centroids[empty[: worst.size]] = points[worst]

        dists = pairwise_sq_dists(points, centroids)
        new_labels = np.argmin(dists, axis=1)
        new_inertia = float(dists[np.arange(n_points), new_labels].sum(dtype=np.float64))
        labels_stable = bool(np.array_equal(new_labels, labels))
        labels = new_labels
        improved = inertia - new_inertia
        inertia = new_inertia
        if labels_stable or 0.0 <= improved <= tol * max(inertia, 1e-12):
            converged = True
            break
    return KMeansResult(centroids, labels.astype(np.int64), inertia, n_iter, converged)


def fit(points, n_clusters, max_iter, seed, cap=None):
    """``seed`` may be a generator shared by consecutive calls, as
    ``ProductQuantizer.fit`` shares one across a head's sub-spaces."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    points = np.asarray(points, dtype=DTYPE)
    n_points = points.shape[0]
    if n_points <= n_clusters:
        reps = int(np.ceil(n_clusters / n_points))
        centroids = np.tile(points, (reps, 1))[:n_clusters].copy()
        labels = np.arange(n_points, dtype=np.int64) % n_clusters
        return KMeansResult(centroids, labels, 0.0, 0, True)
    return lloyd(points, plus_plus_init(points, n_clusters, rng, cap), max_iter)


#: How far apart, in ``DTYPE`` epsilons of the magnitudes involved, the kernel
#: and the oracle may land.  Both round the same terms in a different order
#: (centroid sums as a membership GEMM against ``np.add.at``; a distance as
#: ``||c||^2 - 2 x.c + ||x||^2`` against ``||x||^2 - 2 x.c + ||c||^2``), so they
#: differ by a few epsilons: at most 6.6 of the largest centroid coordinate
#: and 0.12 of the inertia's magnitude over the suite.
ROUNDING_EPS = 16
EPS = float(np.finfo(DTYPE).eps)


def assert_centroids_close(got, want):
    """Kernel centroids within rounding of the oracle's."""
    scale = max(1.0, float(np.abs(want).max()))
    np.testing.assert_allclose(got, want, rtol=0, atol=ROUNDING_EPS * EPS * scale)


def assert_same(result, oracle):
    """The equivalence the batched kernel owes the oracle."""
    assert np.array_equal(result.labels, oracle.labels)
    assert result.n_iter == oracle.n_iter
    assert result.converged == oracle.converged
    assert_centroids_close(result.centroids, oracle.centroids)
    centroids = np.asarray(oracle.centroids, dtype=np.float64)
    # a distance is rounded at the size of ||x||^2 + ||c||^2 ~ 2 ||c||^2 + d,
    # which for tight clusters far from the origin dwarfs the distance itself
    assigned = centroids[oracle.labels]
    magnitude = float(oracle.inertia) + 2.0 * float(np.einsum("nd,nd->", assigned, assigned))
    np.testing.assert_allclose(result.inertia, oracle.inertia, rtol=0,
                               atol=ROUNDING_EPS * EPS * magnitude)
