"""K-Means clustering used for Product Quantization codebook training.

PQCache trains one codebook per (layer, head, sub-space) by running K-Means
over the sub-vectors of the prefilled keys (paper §3.1 step 2).  The paper's
system contribution is an *adaptive* iteration budget (§3.3): clustering runs
on otherwise-idle CPU cores and must finish under the GPU compute time of the
same layer, so the number of Lloyd iterations is capped by a fitted cost
model.  This module provides the clustering primitive with an explicit
``max_iter`` knob; the cost model lives in :mod:`repro.core.adaptive`.

Batched layout
--------------
Every entry point takes either one problem — ``(n, d)`` points — or a stack of
``J`` equally-shaped problems ``(J, n, d)``; a 2-D call *is* the ``J = 1``
call of the same code.  A layer's PQ construction is one call over all
``h_kv * m`` (head, sub-space) problems.  A problem's result is a function of
its own points, its own random draws and the arguments alone: it does not
depend on which other problems share the batch (tests compare a problem
solved alone with its row of a batch exactly).

Implementation notes
--------------------
* k-means++ seeding in GEMV form: ``||x||^2`` once per problem, then
  ``||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2`` per pick; the pick itself is
  ``Generator.choice(n, p=...)`` spelled out (``cumsum`` + ``searchsorted`` on
  one uniform), so the generator is consumed exactly as a scalar run would.
* The picks run over at most ``SEED_POINTS_PER_CLUSTER * n_clusters`` points
  (2 048 keys at ``b = 6``).  A longer problem draws that many of its points
  — ``Generator.choice`` without replacement, sorted back into input order —
  from *its own* generator immediately before its picks, so a generator
  shared by a head's sub-spaces is still consumed as consecutive scalar fits
  would consume it and a problem still does not depend on its batch-mates.
  Every pick is a pass over the points it chooses among, ``n_clusters`` of
  them one after another; over all ``s`` keys that was more work than the
  Lloyd iterations it prepared and a term ``~ s * n_clusters`` that the
  paper's cost law ``T_clus = alpha1 + beta1 * s * T`` (Eq. 1,
  :mod:`repro.core.adaptive`) has no place for.  Bounded, seeding is part of
  ``alpha1`` — independent of ``s`` — and Lloyd, which still visits every
  key, is the ``beta1 * s * T`` term.  A problem at or under the bound draws
  no sample and is seeded from all its points.  The constant's comment has
  the inertia table that fixes it at 32.
* Lloyd iterations with a row-blocked assignment (:func:`nearest_centroid`),
  ``bincount`` centroid sums, empty-cluster re-seeding from the points
  furthest from their centroid (distances taken against the *updated*
  centroids of the same iteration, not the stale pre-update ones), and a
  per-problem convergence mask: a converged problem drops out of the batch.
* Convergence is declared only on stable labels or a *non-negative* inertia
  improvement below ``tol`` — a transient inertia increase (possible right
  after reseeding) keeps iterating instead of freezing a worse solution.
* Deterministic for a given ``seed``.
* Handles ``n_points <= n_clusters`` gracefully (duplicates centroids), which
  happens for very short prompts or tiny sub-spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, DimensionError
from ..utils import as_rng

__all__ = [
    "KMeansResult",
    "kmeans_fit",
    "kmeans_refine",
    "kmeans_assign",
    "kmeans_plus_plus_init",
    "nearest_centroid",
]

#: float64 elements of the assignment's ``(problems, rows, clusters)`` distance
#: block — 512 KiB, so a block is produced, reduced and overwritten inside L2
#: instead of streaming ``n * 2**b`` distances through memory three times.
_BLOCK_ELEMS = 1 << 16
#: points per cluster that k-means++ picks its centres among: a problem longer
#: than ``SEED_POINTS_PER_CLUSTER * n_clusters`` is seeded from a sample of that
#: size.  A cluster holding a share ``w`` of the points has no point in the
#: sample with probability ``exp(-SEED_POINTS_PER_CLUSTER * n_clusters * w)``;
#: for a quarter of an average cluster (``w = 1 / (4 n_clusters)``) that is
#: 0.03 % at 32, 1.8 % at 16, 14 % at 8 and 37 % at 4.  Final inertia relative
#: to seeding from every point (8 problems of 16 384 x 32 keys, 64 clusters,
#: mean / worst problem; ``tests/test_kmeans.py::TestSampledSeeding``):
#:
#:   =========  ====  =============  =============  =============  =============
#:   keys       T     32             16             8              4
#:   =========  ====  =============  =============  =============  =============
#:   iid        0     1.013 / 1.033  0.989 / 1.021  0.997 / 1.031  0.996 / 1.018
#:   iid        2, 8  1.001 / 1.003  1.001 / 1.002  1.000 / 1.001  1.001 / 1.003
#:   40 blobs   0     1.014 / 1.068  1.222 / 2.697  1.400 / 3.166  6.354 / 11.66
#:   40 blobs   2, 8  1.000 / 1.008  0.999 / 1.003  1.259 / 3.088  2.954 / 6.158
#:   =========  ====  =============  =============  =============  =============
#:
#: (two seedings from *every* point with different generators: 1.007 / 1.027
#: and 1.002 / 1.061 at ``T = 0``, 1.001 / 1.002 and 0.998 / 1.009 after).
#: Seeding 8 x 16k keys takes 176 ms from every point, 33 ms at 32 and 13 ms
#: at 16, of a ``T = 2`` fit of 310 / 167 / 148 ms: 32 is the largest sample
#: that leaves Lloyd the dominant cost and the smallest that never dropped a
#: blob.
SEED_POINTS_PER_CLUSTER = 32
#: (point, coordinate) pairs one centroid-sum ``bincount`` takes at a time: its
#: int64 bin-index temporary stays at 4 MiB however long the sequence is.
_SCATTER_ELEMS = 1 << 19


def _converged(labels_stable, improved, inertia, tol):
    """Lloyd stopping rule (elementwise over problems).

    Convergence requires either stable labels or a *non-negative* inertia
    improvement below the tolerance.  A negative ``improved`` (inertia went
    up, which empty-cluster reseeding can cause transiently) must keep
    iterating — treating it as converged would freeze a worse solution.
    """
    return labels_stable | (
        (improved >= 0.0) & (improved <= tol * np.maximum(inertia, 1e-12))
    )


def _reseed_targets(
    points: np.ndarray,
    centroids: np.ndarray,
    labels: np.ndarray,
    num_empty: int,
) -> np.ndarray:
    """Points of one problem that should seed its empty clusters: the ones
    farthest from their assigned centroid, with distances measured against
    the *updated* centroids (stale pre-update distances can nominate points
    that the mean update has already pulled close, wasting the reseed)."""
    diffs = points - centroids[labels]
    dist_sq = np.einsum("ij,ij->i", diffs, diffs)
    return np.argsort(-dist_sq, kind="stable")[:num_empty]


@dataclass
class KMeansResult:
    """Outcome of a K-Means run over one problem, or over a batch of ``J``.

    Shapes below are for one problem; a batched call adds a leading ``J``
    axis to every field (``inertia`` / ``n_iter`` / ``converged`` become
    ``(J,)`` arrays).

    Attributes:
        centroids: ``(n_clusters, dim)`` cluster centres.
        labels: ``(n_points,)`` index of the closest centroid per point.
        inertia: sum of squared distances of points to their centroid.
        n_iter: number of Lloyd iterations actually executed.
        converged: whether the assignment stopped changing before the
            iteration budget was exhausted.
    """

    centroids: np.ndarray
    labels: np.ndarray
    inertia: "float | np.ndarray"
    n_iter: "int | np.ndarray"
    converged: "bool | np.ndarray"

    @property
    def n_clusters(self) -> int:
        return int(self.centroids.shape[-2])

    @property
    def dim(self) -> int:
        return int(self.centroids.shape[-1])

    def _first(self) -> "KMeansResult":
        """The single problem of a ``J = 1`` batch, with scalar fields."""
        return KMeansResult(
            self.centroids[0], self.labels[0], float(self.inertia[0]),
            int(self.n_iter[0]), bool(self.converged[0]),
        )


def _as_batch(array: np.ndarray, name: str) -> tuple[np.ndarray, bool]:
    """``(J, n, d)`` float64 view of a 2-D or 3-D operand, and whether it was
    a single 2-D problem (whose result the caller unwraps again)."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise DimensionError(f"{name} must be 2-D or 3-D, got shape {arr.shape}")
    if 0 in arr.shape:
        raise DimensionError(f"{name} must be non-empty, got shape {arr.shape}")
    return (arr[None], True) if arr.ndim == 2 else (arr, False)


def _as_matched_batches(
    points: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool]:
    """:func:`_as_batch` of both operands of an assignment, which must agree
    in the number of problems and in the dimension."""
    points, single = _as_batch(points, "points")
    centroids, _ = _as_batch(centroids, "centroids")
    if points.shape[0] != centroids.shape[0]:
        raise ConfigurationError(
            f"{points.shape[0]} point sets but {centroids.shape[0]} centroid sets"
        )
    if points.shape[2] != centroids.shape[2]:
        raise ConfigurationError(
            f"points dim {points.shape[2]} does not match centroids dim "
            f"{centroids.shape[2]}"
        )
    return points, centroids, single


def _check_n_clusters(n_clusters: int) -> None:
    if n_clusters <= 0:
        raise ConfigurationError("n_clusters must be positive")


def nearest_centroid(
    points: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid of every point, for a stack of problems.

    The one distance kernel of the library: Lloyd's assignment step,
    :func:`kmeans_assign` and ``ProductQuantizer.encode_batch`` all call it.

    Args:
        points: ``(J, n, d)`` float64.
        centroids: ``(J, k, d)`` float64.

    Returns:
        ``(labels, partial)``: ``(J, n)`` int64 argmin over centroids (lowest
        index on ties) and ``(J, n)`` minima of ``||c||^2 - 2 x.c`` — the
        squared distance *minus* ``||x||^2``, which does not move the argmin;
        callers that need distances add it to the minima only.

    ``-2 X C^T + ||c||^2`` is formed and reduced in a reused cache-sized block.
    Rows per block depend on ``k`` alone and several problems share a block
    only when each fits whole, so the GEMM shapes a problem sees — and with
    them its results, bit for bit — do not depend on its batch-mates.
    """
    num, n, _ = points.shape
    k = centroids.shape[1]
    scaled_t = (-2.0 * centroids).transpose(0, 2, 1)  # exact: a power of two
    c_sq = np.einsum("jkd,jkd->jk", centroids, centroids)[:, None, :]
    labels = np.empty((num, n), dtype=np.int64)
    partial = np.empty((num, n), dtype=np.float64)
    rows = max(1, min(n, _BLOCK_ELEMS // k))
    group = min(num, max(1, _BLOCK_ELEMS // (rows * k)))
    block = np.empty((group, rows, k), dtype=np.float64)
    flat = block.reshape(-1)
    row_start = np.arange(group * rows).reshape(group, rows) * k
    for j0 in range(0, num, group):
        j1 = min(j0 + group, num)
        for r0 in range(0, n, rows):
            r1 = min(r0 + rows, n)
            dists = block[: j1 - j0, : r1 - r0]
            np.matmul(points[j0:j1, r0:r1], scaled_t[j0:j1], out=dists)
            dists += c_sq[j0:j1]
            found = labels[j0:j1, r0:r1]
            np.argmin(dists, axis=2, out=found)
            # the minimum is the entry argmin found: a flat gather, several
            # times cheaper than a second reduction over the block
            partial[j0:j1, r0:r1] = flat.take(found + row_start[: j1 - j0, : r1 - r0])
    return labels, partial


def _seed_rngs(seed, num_problems: int) -> list[np.random.Generator]:
    """One generator per *group* of consecutive problems (see kmeans_fit)."""
    seeds = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    if not seeds or num_problems % len(seeds) != 0:
        raise ConfigurationError(
            f"{len(seeds)} seeds cannot be shared evenly by {num_problems} problems"
        )
    return [as_rng(s) for s in seeds]


def _draw(rng: np.random.Generator, closest_sq: np.ndarray) -> int:
    """One k-means++ pick: a point index with probability proportional to
    its squared distance from the centres chosen so far."""
    total = float(closest_sq.sum())
    if total <= 1e-12:
        # No centre yet, or every point coincides with one: uniform choice.
        return int(rng.integers(closest_sq.size))
    # rng.choice(n, p=closest_sq / total) spelled out — same single uniform,
    # same arithmetic, so the generator and the pick match a scalar run.
    cdf = np.cumsum(closest_sq / total)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def kmeans_plus_plus_init(
    points: np.ndarray,
    n_clusters: int,
    rng: "np.random.Generator | list[np.random.Generator]",
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids proportional to squared
    distance from already-chosen centres.

    ``points`` is ``(n, d)`` or ``(J, n, d)``; ``rng`` is one generator or a
    list of ``G`` (``G`` dividing ``J``).  Problem ``j`` draws from generator
    ``j // (J // G)`` after the problems before it in that group have taken
    all their draws; the groups advance pick by pick in lockstep.

    The centres are picked among at most ``SEED_POINTS_PER_CLUSTER *
    n_clusters`` points: a longer problem first draws that many of its points
    (without replacement, kept in input order) from its generator.
    """
    points, single = _as_batch(points, "points")
    _check_n_clusters(n_clusters)
    num, n_points, dim = points.shape
    rngs = _seed_rngs(rng, num)
    per_group = num // len(rngs)
    n_clusters = min(n_clusters, n_points)
    cap = SEED_POINTS_PER_CLUSTER * n_clusters
    groups = np.arange(len(rngs))

    centroids = np.empty((num, n_clusters, dim), dtype=np.float64)
    for turn in range(per_group):
        # One problem of every group: (G, n, d) views, no copies.
        pts = points[turn::per_group]
        if n_points > cap:
            sample = [
                np.sort(r.choice(n_points, size=cap, replace=False, shuffle=False))
                for r in rngs
            ]
            pts = pts[groups[:, None], sample]  # (G, cap, d)
        x_sq = np.einsum("gnd,gnd->gn", pts, pts)
        closest_sq = np.zeros_like(x_sq)
        for idx in range(n_clusters):
            choice = [_draw(r, closest_sq[g]) for g, r in enumerate(rngs)]
            picked = pts[groups, choice]  # (G, d)
            centroids[turn::per_group, idx] = picked
            # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2: one GEMV per problem
            # instead of two (n, d) difference temporaries per pick.
            new_sq = np.matmul(pts, -2.0 * picked[:, :, None])[:, :, 0]
            new_sq += x_sq
            new_sq += x_sq[groups, choice][:, None]
            np.maximum(new_sq, 0.0, out=new_sq)
            closest_sq = np.minimum(closest_sq, new_sq, out=new_sq) if idx else new_sq
    return centroids[0] if single else centroids


def kmeans_assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Assign each point to its nearest centroid (labels only).

    ``(n, d)`` points with ``(k, d)`` centroids, or stacks ``(J, n, d)`` /
    ``(J, k, d)``.
    """
    points, centroids, single = _as_matched_batches(points, centroids)
    labels, _ = nearest_centroid(points, centroids)
    return labels[0] if single else labels


def kmeans_fit(
    points: np.ndarray,
    n_clusters: int,
    max_iter: int = 25,
    tol: float = 1e-6,
    seed: "int | np.random.Generator | None | list" = 0,
) -> KMeansResult:
    """Run k-means++ initialised Lloyd iterations.

    Args:
        points: ``(n_points, dim)`` training vectors, or ``(J, n_points,
            dim)`` for ``J`` independent problems solved in one call.
        n_clusters: number of centroids (``2**b`` in PQ terms).
        max_iter: maximum number of Lloyd iterations.  ``0`` returns the
            k-means++ seeding directly, which is what the adaptive budget
            degenerates to for very short prompts.
        tol: relative inertia improvement below which we declare convergence.
        seed: RNG seed or generator.  A batch may pass a list of ``G`` of
            them (``G`` dividing ``J``): consecutive runs of ``J // G``
            problems share one generator and are seeded one after another
            from it — one stream per head, consumed sub-space by sub-space,
            is what :class:`~repro.core.pq.ProductQuantizer` asks for.

    Returns:
        A :class:`KMeansResult` (batched fields for 3-D ``points``).
    """
    points, single = _as_batch(points, "points")
    _check_n_clusters(n_clusters)
    if max_iter < 0:
        raise ConfigurationError("max_iter must be >= 0")
    num, n_points, _ = points.shape
    rngs = _seed_rngs(seed, num)

    if n_points <= n_clusters:
        # Degenerate case: every point is its own centroid, remaining slots
        # are filled by repeating points so downstream code always sees
        # exactly ``n_clusters`` rows.
        reps = int(np.ceil(n_clusters / n_points))
        result = KMeansResult(
            np.tile(points, (1, reps, 1))[:, :n_clusters].copy(),
            np.tile(np.arange(n_points, dtype=np.int64) % n_clusters, (num, 1)),
            np.zeros(num), np.zeros(num, dtype=np.int64), np.ones(num, dtype=bool),
        )
    else:
        centroids = kmeans_plus_plus_init(points, n_clusters, rngs)
        result = _lloyd(points, centroids, max_iter, tol)
    return result._first() if single else result


def kmeans_refine(
    points: np.ndarray,
    centroids: np.ndarray,
    max_iter: int = 25,
    tol: float = 1e-6,
) -> KMeansResult:
    """Continue Lloyd iterations from explicit initial centroids.

    This is the refinement primitive of the chunked-prefill PQ pipeline:
    codebooks fitted on a sampled sketch of the first chunk(s) are later
    re-optimised over the full key set without re-seeding, so the sketch
    build's cluster structure is reused instead of thrown away.

    Args:
        points: ``(n_points, dim)`` training vectors (the full set), or a
            ``(J, n_points, dim)`` stack of problems.
        centroids: ``(n_clusters, dim)`` starting centroids (e.g. from a
            sketch-based :func:`kmeans_fit`), ``(J, n_clusters, dim)`` for a
            stack; not mutated.
        max_iter: maximum number of additional Lloyd iterations.  ``0``
            returns the assignment under the given centroids unchanged.
        tol: relative inertia improvement below which we declare convergence.

    Returns:
        A :class:`KMeansResult` (``n_iter`` counts only refinement iterations).
    """
    points, centroids, single = _as_matched_batches(points, centroids)
    if max_iter < 0:
        raise ConfigurationError("max_iter must be >= 0")
    result = _lloyd(points, centroids.copy(), max_iter, tol)
    return result._first() if single else result


def _update_centroids(
    points: np.ndarray, centroids: np.ndarray, labels: np.ndarray
) -> None:
    """Lloyd update step for a stack of problems (mutates ``centroids``):
    mean of the assigned points; empty clusters re-seeded from the points
    currently worst represented.

    Cluster sums are one ``bincount`` over (problem, cluster, coordinate)
    bins for as many problems as fit ``_SCATTER_ELEMS``; ``bincount`` adds in
    point order, exactly like the ``np.add.at`` scatter it replaces.
    """
    num, n_points, dim = points.shape
    k = centroids.shape[1]
    counts = np.empty((num, k), dtype=np.int64)
    sums = np.empty((num, k, dim), dtype=np.float64)
    group = max(1, _SCATTER_ELEMS // (n_points * dim))
    for j0 in range(0, num, group):
        j1 = min(j0 + group, num)
        size = (j1 - j0) * k
        bins = labels[j0:j1] + (np.arange(j1 - j0) * k)[:, None]
        counts[j0:j1] = np.bincount(bins.ravel(), minlength=size).reshape(-1, k)
        sums[j0:j1] = np.bincount(
            (bins[:, :, None] * dim + np.arange(dim)).ravel(),
            weights=points[j0:j1].ravel(),
            minlength=size * dim,
        ).reshape(-1, k, dim)
    nonempty = counts > 0
    centroids[nonempty] = sums[nonempty] / counts[nonempty][:, None]
    for j in np.flatnonzero(~nonempty.all(axis=1)):
        empty = np.flatnonzero(~nonempty[j])
        worst = _reseed_targets(points[j], centroids[j], labels[j], empty.size)
        centroids[j, empty[: worst.size]] = points[j, worst]


def _lloyd(
    points: np.ndarray,
    centroids: np.ndarray,
    max_iter: int,
    tol: float,
) -> KMeansResult:
    """Lloyd iterations over a stack of problems from given starting
    centroids (mutates ``centroids``); a problem leaves the batch the
    iteration it converges."""
    num = points.shape[0]
    x_sq = np.einsum("jnd,jnd->jn", points, points)

    def assign(pts, cents, pts_sq):
        labels, partial = nearest_centroid(pts, cents)
        partial += pts_sq
        np.maximum(partial, 0.0, out=partial)
        return labels, partial.sum(axis=1)

    labels, inertia = assign(points, centroids, x_sq)
    n_iter = np.zeros(num, dtype=np.int64)
    converged = np.full(num, max_iter == 0)
    active = np.arange(num)  # problems still iterating
    for iteration in range(1, max_iter + 1):
        # While nobody has converged the stacks are used as they are; after
        # that the survivors are gathered (a copy) and scattered back.
        everyone = active.size == num
        pts = points if everyone else points[active]
        cents = centroids if everyone else centroids[active]
        _update_centroids(pts, cents, labels[active])
        new_labels, new_inertia = assign(pts, cents, x_sq[active])

        done = _converged(
            (new_labels == labels[active]).all(axis=1),
            inertia[active] - new_inertia, new_inertia, tol,
        )
        if not everyone:
            centroids[active] = cents
        labels[active] = new_labels
        inertia[active] = new_inertia
        n_iter[active] = iteration
        converged[active[done]] = True
        active = active[~done]
        if active.size == 0:
            break

    return KMeansResult(centroids, labels, inertia, n_iter, converged)
