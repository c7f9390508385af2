"""Tests for the K-Means implementation used by PQ codebook training."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kmeans_oracle as oracle
from repro.core import kmeans as kmeans_module
from repro.core.kmeans import (
    SEED_POINTS_PER_CLUSTER,
    KMeansResult,
    _converged,
    _reseed_targets,
    kmeans_assign,
    kmeans_fit,
    kmeans_plus_plus_init,
    kmeans_refine,
)
from repro.errors import ConfigurationError, DimensionError
from repro.utils import DTYPE


def _blobs(rng, centers, points_per_center=30, scale=0.05):
    data = []
    for center in centers:
        data.append(center + scale * rng.normal(size=(points_per_center, len(center))))
    return np.concatenate(data, axis=0)


class TestKMeansFit:
    def test_recovers_well_separated_clusters(self, rng):
        centers = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0], [10.0, -10.0]])
        points = _blobs(rng, centers)
        result = kmeans_fit(points, n_clusters=4, max_iter=50, seed=1)
        # Every true centre should have a learned centroid nearby.
        for center in centers:
            dists = np.linalg.norm(result.centroids - center, axis=1)
            assert dists.min() < 1.0

    def test_labels_match_nearest_centroid(self, rng):
        points = rng.normal(size=(100, 4))
        result = kmeans_fit(points, n_clusters=8, max_iter=20, seed=0)
        reassigned = kmeans_assign(points, result.centroids)
        assert np.array_equal(reassigned, result.labels)

    def test_inertia_decreases_with_more_iterations(self, rng):
        points = rng.normal(size=(200, 8))
        few = kmeans_fit(points, n_clusters=16, max_iter=1, seed=0)
        many = kmeans_fit(points, n_clusters=16, max_iter=30, seed=0)
        assert many.inertia <= few.inertia + 1e-9

    def test_zero_iterations_returns_seeding(self, rng):
        points = rng.normal(size=(50, 3))
        result = kmeans_fit(points, n_clusters=4, max_iter=0, seed=0)
        assert result.n_iter == 0
        assert result.converged
        assert result.centroids.shape == (4, 3)

    def test_fewer_points_than_clusters(self, rng):
        points = rng.normal(size=(3, 5))
        result = kmeans_fit(points, n_clusters=8, max_iter=10, seed=0)
        assert result.centroids.shape == (8, 5)
        assert result.labels.shape == (3,)
        assert result.labels.max() < 8

    def test_deterministic_for_seed(self, rng):
        points = rng.normal(size=(80, 4))
        a = kmeans_fit(points, n_clusters=8, max_iter=15, seed=42)
        b = kmeans_fit(points, n_clusters=8, max_iter=15, seed=42)
        assert np.allclose(a.centroids, b.centroids)
        assert np.array_equal(a.labels, b.labels)

    def test_identical_points_do_not_crash(self):
        points = np.ones((40, 4))
        result = kmeans_fit(points, n_clusters=4, max_iter=10, seed=0)
        assert np.allclose(result.centroids, 1.0)
        assert result.inertia == pytest.approx(0.0)

    def test_invalid_arguments(self, rng):
        points = rng.normal(size=(10, 2))
        with pytest.raises(ConfigurationError):
            kmeans_fit(points, n_clusters=0)
        with pytest.raises(ConfigurationError):
            kmeans_fit(points, n_clusters=2, max_iter=-1)

    def test_result_properties(self, rng):
        points = rng.normal(size=(64, 6))
        result = kmeans_fit(points, n_clusters=8, max_iter=5, seed=0)
        assert result.n_clusters == 8
        assert result.dim == 6

    @given(st.integers(2, 6), st.integers(20, 60))
    @settings(max_examples=15, deadline=None)
    def test_every_point_gets_valid_label(self, n_clusters, n_points):
        rng = np.random.default_rng(n_clusters * 100 + n_points)
        points = rng.normal(size=(n_points, 3))
        result = kmeans_fit(points, n_clusters=n_clusters, max_iter=10, seed=0)
        assert result.labels.shape == (n_points,)
        assert result.labels.min() >= 0
        assert result.labels.max() < n_clusters


class TestConvergenceRule:
    """Regression: a *negative* inertia improvement (possible right after
    empty-cluster reseeding) used to satisfy ``improved <= tol * inertia``
    and trigger a spurious ``converged=True`` exit."""

    def test_negative_improvement_is_not_convergence(self):
        assert not _converged(
            labels_stable=False, improved=-1.0, inertia=100.0, tol=1e-6
        )

    def test_small_nonnegative_improvement_converges(self):
        assert _converged(
            labels_stable=False, improved=0.0, inertia=100.0, tol=1e-6
        )
        assert _converged(
            labels_stable=False, improved=5e-5, inertia=100.0, tol=1e-6
        )

    def test_large_improvement_keeps_iterating(self):
        assert not _converged(
            labels_stable=False, improved=10.0, inertia=100.0, tol=1e-6
        )

    def test_stable_labels_always_converge(self):
        assert _converged(
            labels_stable=True, improved=-1.0, inertia=100.0, tol=1e-6
        )


class TestEmptyClusterReseeding:
    def test_targets_use_updated_centroids(self):
        """The reseed candidates must be ranked by distance to the *updated*
        centroids: a point whose (old-position) centroid moved next to it is
        no longer worst-represented and must not be picked."""
        points = np.array([[0.0, 0.0], [10.0, 0.0], [0.2, 0.0]])
        # Updated centroid 0 sits on top of point 1 — the point that *was*
        # far from centroid 0's old position at the origin.
        centroids = np.array([[10.0, 0.0], [99.0, 99.0]])
        labels = np.array([0, 0, 0])
        worst = _reseed_targets(points, centroids, labels, num_empty=1)
        # Against the updated centroid, point 0 (distance 10) is worst, not
        # point 1 (distance 0, despite being far from the old origin).
        assert list(worst) == [0]

    def test_targets_are_distinct_points_in_distance_order(self):
        points = np.array([[0.0], [1.0], [4.0], [9.0]])
        centroids = np.array([[0.0]])
        labels = np.zeros(4, dtype=np.int64)
        worst = _reseed_targets(points, centroids, labels, num_empty=3)
        assert list(worst) == [3, 2, 1]

    def test_fit_with_forced_empty_clusters_stays_valid(self, rng):
        """Duplicate-heavy data forces empty clusters during Lloyd; the run
        must stay internally consistent and labels must match the returned
        centroids."""
        base = rng.normal(size=(3, 4))
        points = np.vstack([
            base[rng.integers(0, 3, size=60)] + 1e-4 * rng.normal(size=(60, 4)),
            50.0 * rng.normal(size=(2, 4)),
        ])
        result = kmeans_fit(points, n_clusters=16, max_iter=25, seed=7)
        assert result.labels.min() >= 0
        assert result.labels.max() < 16
        assert np.array_equal(
            result.labels, kmeans_assign(points, result.centroids)
        )
        assert np.isfinite(result.inertia)


class TestKMeansPlusPlus:
    def test_centroids_are_input_points(self, rng):
        points = rng.normal(size=(30, 4))
        centroids = kmeans_plus_plus_init(points, 5, rng)
        for centroid in centroids:
            assert np.any(np.all(np.isclose(points, centroid), axis=1))

    def test_handles_duplicate_points(self, rng):
        points = np.zeros((10, 2))
        centroids = kmeans_plus_plus_init(points, 4, rng)
        assert centroids.shape == (4, 2)


class TestKMeansAssign:
    def test_assigns_to_nearest(self):
        centroids = np.array([[0.0, 0.0], [10.0, 0.0]])
        points = np.array([[1.0, 0.0], [9.0, 0.5]])
        assert list(kmeans_assign(points, centroids)) == [0, 1]


class TestEntryPointsValidateAlike:
    """Regression: ``kmeans_assign`` used to leak NumPy's broadcast / matmul
    ``ValueError`` for operands ``kmeans_refine`` rejects by name, and
    ``kmeans_plus_plus_init`` accepted the ``n_clusters`` ``kmeans_fit``
    rejects (``0`` gave a ``(J, 0, d)`` array, ``-1`` died in ``np.empty``)."""

    @pytest.mark.parametrize("batch", [(), (3,)], ids=["2d", "3d"])
    @pytest.mark.parametrize("call", [
        kmeans_assign, lambda points, centroids: kmeans_refine(points, centroids, 2),
    ], ids=["assign", "refine"])
    def test_mismatched_operands(self, rng, call, batch):
        points = rng.normal(size=batch + (20, 4))
        with pytest.raises(ConfigurationError, match="dim 4 does not match"):
            call(points, rng.normal(size=batch + (5, 3)))
        # one 2-D problem against a stack used to assign to its first set
        with pytest.raises(ConfigurationError, match="point sets but 2 centroid sets"):
            call(points, rng.normal(size=(2, 5, 4)))

    @pytest.mark.parametrize("batch", [(), (3,)], ids=["2d", "3d"])
    @pytest.mark.parametrize("call", [
        lambda points, k: kmeans_fit(points, k, seed=0),
        lambda points, k: kmeans_plus_plus_init(points, k, np.random.default_rng(0)),
    ], ids=["fit", "plus_plus_init"])
    @pytest.mark.parametrize("n_clusters", [0, -1])
    def test_non_positive_n_clusters(self, rng, call, batch, n_clusters):
        with pytest.raises(ConfigurationError, match="n_clusters must be positive"):
            call(rng.normal(size=batch + (20, 4)), n_clusters)


class TestKMeansRefine:
    """Incremental construction: warm-started Lloyd over the full point set."""

    def test_refine_improves_sketch_fit(self, rng):
        points = rng.normal(size=(400, 6))
        sketch = points[rng.choice(400, size=60, replace=False)]
        sketch_fit = kmeans_fit(sketch, n_clusters=16, max_iter=20, seed=0)
        before = kmeans_assign(points, sketch_fit.centroids)
        diffs = points - sketch_fit.centroids[before]
        inertia_before = float(np.einsum("ij,ij->i", diffs, diffs).sum())
        refined = kmeans_refine(points, sketch_fit.centroids, max_iter=20)
        assert refined.inertia <= inertia_before + 1e-9

    def test_refine_reaches_one_shot_quality(self, rng):
        points = rng.normal(size=(500, 8))
        one_shot = kmeans_fit(points, n_clusters=32, max_iter=30, seed=0)
        sketch = points[::4]
        sketch_fit = kmeans_fit(sketch, n_clusters=32, max_iter=30, seed=0)
        refined = kmeans_refine(points, sketch_fit.centroids, max_iter=30)
        # Both land in local optima; quality must match within tolerance.
        assert refined.inertia <= 1.10 * one_shot.inertia

    def test_zero_iterations_keeps_centroids(self, rng):
        points = rng.normal(size=(50, 3))
        centroids = rng.normal(size=(4, 3))
        result = kmeans_refine(points, centroids, max_iter=0)
        assert np.array_equal(result.centroids, centroids.astype(DTYPE))
        assert result.converged and result.n_iter == 0
        assert np.array_equal(result.labels, kmeans_assign(points, centroids))

    def test_does_not_mutate_input_centroids(self, rng):
        points = rng.normal(size=(80, 3))
        centroids = rng.normal(size=(8, 3))
        frozen = centroids.copy()
        kmeans_refine(points, centroids, max_iter=10)
        assert np.array_equal(centroids, frozen)

    def test_fewer_points_than_empty_clusters_is_safe(self, rng):
        # Two identical points, many far-away centroids: most clusters end up
        # empty and there are fewer reseed candidates than empty slots.
        points = np.zeros((2, 3))
        centroids = 100.0 + rng.normal(size=(8, 3))
        result = kmeans_refine(points, centroids, max_iter=5)
        assert result.labels.shape == (2,)

    def test_validation(self, rng):
        points = rng.normal(size=(10, 3))
        with pytest.raises(ConfigurationError):
            kmeans_refine(points, rng.normal(size=(4, 2)))  # dim mismatch
        with pytest.raises(DimensionError):
            kmeans_refine(points[:0], rng.normal(size=(4, 3)))  # no points
        with pytest.raises(ConfigurationError):
            kmeans_refine(points, rng.normal(size=(4, 3)), max_iter=-1)


#: longest problems that k-means++ still seeds from every point
CAP_32 = SEED_POINTS_PER_CLUSTER * 32
CAP_64 = SEED_POINTS_PER_CLUSTER * 64


def _rows(result, j):
    """Problem ``j`` of a batched result, as a 2-D call returns it."""
    return (result.centroids[j], result.labels[j], float(result.inertia[j]),
            int(result.n_iter[j]), bool(result.converged[j]))


def _fields(result):
    return (result.centroids, result.labels, result.inertia, result.n_iter,
            result.converged)


def _assert_identical(got, want):
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


class TestOracleEquivalence:
    """The batched kernel against the scalar implementation it replaced
    (``tests/kmeans_oracle.py``): same draws, same update order, so labels,
    iteration counts and convergence flags are identical and centroids agree
    to rounding."""

    #: from the third on: n = cap (the last that is not sampled), cap + 1, 2, ~8 and 8 cap
    SHAPES = [(256, 4, 16), (1300, 4, 64), (CAP_64, 8, 64), (CAP_64 + 1, 8, 64),
              (4096, 16, 64), (16271, 32, 64), (8 * CAP_64, 4, 64)]

    @pytest.mark.parametrize("n,d,k", SHAPES)
    @pytest.mark.parametrize("iters", [0, 2, 8])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fit_and_refine_match_the_scalar_oracle(self, n, d, k, iters, seed):
        points = np.random.default_rng([seed, n, d]).normal(size=(n, d))
        want = oracle.fit(points, k, iters, seed=seed)
        oracle.assert_same(kmeans_fit(points, k, max_iter=iters, seed=seed), want)

        # refine from a sketch fit, as the chunked-prefill pipeline does
        start = oracle.fit(points[::8], k, 2, seed=seed).centroids
        oracle.assert_same(
            kmeans_refine(points, start, max_iter=iters),
            oracle.lloyd(points, start, iters),
        )

    @pytest.mark.parametrize("n", [700, CAP_32, CAP_32 + 1])
    def test_the_cap_is_where_sampling_starts(self, n):
        """Up to ``SEED_POINTS_PER_CLUSTER * n_clusters`` points the kernel is
        the full-set seeding — the oracle with its cap lifted — and leaves the
        generator where that left it; one point more and a sample is drawn."""
        points = np.random.default_rng(n).normal(size=(n, 8))
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        got = kmeans_fit(points, 32, max_iter=3, seed=ours)
        want = oracle.fit(points, 32, 3, seed=theirs, cap=oracle.LIFTED)
        if n <= CAP_32:
            oracle.assert_same(got, want)
            assert ours.bit_generator.state == theirs.bit_generator.state
        else:
            assert ours.bit_generator.state != theirs.bit_generator.state

    @pytest.mark.parametrize("n", [700, 3 * CAP_32])
    def test_shared_generator_is_consumed_like_consecutive_scalar_fits(self, n):
        """``ProductQuantizer`` seeds a head's sub-spaces one after another
        from one generator; a batch with one generator per head must leave
        every problem with the draws the scalar loop gave it — the seeding
        sample of a long problem included."""
        heads, parts = 3, 2
        points = np.random.default_rng(3).normal(size=(heads * parts, n, 8))
        batch = kmeans_fit(points, 32, max_iter=4,
                           seed=[np.random.default_rng(9) for _ in range(heads)])
        for head in range(heads):
            shared = np.random.default_rng(9)
            for part in range(parts):
                j = head * parts + part
                want = oracle.fit(points[j], 32, 4, seed=shared)
                oracle.assert_same(KMeansResult(*_rows(batch, j)), want)

    def test_assign_matches_the_scalar_oracle(self, rng):
        points, centroids = rng.normal(size=(5000, 16)), rng.normal(size=(64, 16))
        assert np.array_equal(kmeans_assign(points, centroids),
                              oracle.assign(points, centroids))


class TestBatchInvariance:
    """A problem's result must not depend on its batch-mates: solved alone it
    equals its row of a ``J = 8`` batch *exactly*."""

    @pytest.mark.parametrize("n,d,k", [
        (90, 4, 16), (1500, 8, 64), (5000, 16, 64), (CAP_64 + 1, 4, 64),
    ])  # the last two are seeded from samples
    def test_alone_equals_row_of_batch(self, n, d, k):
        points = np.random.default_rng(n).normal(size=(8, n, d))
        batch = kmeans_fit(points, k, max_iter=6, seed=list(range(8)))
        start = points[:, :k] + 0.5
        refined = kmeans_refine(points, start, max_iter=6)
        assigned = kmeans_assign(points, start)
        for j in range(8):
            alone = kmeans_fit(points[j], k, max_iter=6, seed=j)
            _assert_identical(_fields(alone), _rows(batch, j))
            alone = kmeans_refine(points[j], start[j], max_iter=6)
            _assert_identical(_fields(alone), _rows(refined, j))
            assert np.array_equal(kmeans_assign(points[j], start[j]), assigned[j])

    def test_block_size_does_not_change_results(self, monkeypatch):
        """Row blocking is an execution detail: shrinking the block so that
        every problem spans many blocks (with a ragged tail) changes nothing."""
        points = np.random.default_rng(0).normal(size=(3, 1000, 8))
        want = kmeans_fit(points, 16, max_iter=5, seed=[0, 1, 2])
        monkeypatch.setattr(kmeans_module, "_BLOCK_ELEMS", 16 * 37)
        got = kmeans_fit(points, 16, max_iter=5, seed=[0, 1, 2])
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.n_iter, want.n_iter)
        np.testing.assert_allclose(got.centroids, want.centroids, rtol=0, atol=1e-12)


def _parity_keys(kind, seed, n, dim):
    """``iid`` normal keys, or ``clustered``: 40 tight Gaussian blobs whose
    sizes fall off as 1 / rank, the smallest holding 0.6 % of the keys."""
    rng = np.random.default_rng([seed, n, dim])
    if kind == "iid":
        return rng.normal(size=(n, dim))
    share = 1.0 / np.arange(1, 41)
    blob = rng.choice(40, size=n, p=share / share.sum())
    return rng.normal(size=(40, dim))[blob] + 0.05 * rng.normal(size=(n, dim))


class TestSampledSeeding:
    """Problems longer than ``SEED_POINTS_PER_CLUSTER * n_clusters`` points pick
    their centres among a sample; Lloyd still runs over every point."""

    #: how far final inertia may exceed cap-lifted seeding's: (mean, worst
    #: problem).  After Lloyd the two must be the same quality.  With no
    #: iteration every centre is still a data point and two *cap-lifted*
    #: seedings from different generators are already 0.7 % / 6 % apart, so
    #: that row only catches a seeding that leaves a cluster without a centre.
    PARITY = {0: (0.05, 0.10), 2: (0.01, 0.03), 8: (0.01, 0.03)}

    @pytest.mark.parametrize("kind", ["iid", "clustered"])
    def test_inertia_matches_seeding_from_every_point(self, kind):
        """What justifies the constant (see its comment): at 8x the cap the
        clustering is as good as when seeded from every point.  Mutation
        check: ``SEED_POINTS_PER_CLUSTER = 4`` fails the clustered case — its
        256-key sample misses small blobs, which Lloyd cannot win back."""
        k, dim, problems = 64, 32, 8
        n = 8 * CAP_64
        points = np.stack([_parity_keys(kind, s, n, dim) for s in range(problems)])
        lifted = np.stack([
            oracle.plus_plus_init(points[s], k, np.random.default_rng(s), cap=oracle.LIFTED)
            for s in range(problems)
        ])
        for iters, (mean, worst) in self.PARITY.items():
            ours = kmeans_fit(points, k, max_iter=iters, seed=list(range(problems)))
            ratio = ours.inertia / kmeans_refine(points, lifted, max_iter=iters).inertia
            assert abs(ratio.mean() - 1.0) <= mean, (iters, ratio)
            assert ratio.max() <= 1.0 + worst, (iters, ratio)

    def test_zero_iterations_returns_input_rows_and_labels_every_point(self):
        n = 3 * CAP_32
        points = np.random.default_rng(11).normal(size=(2, n, 6))
        result = kmeans_fit(points, 32, max_iter=0, seed=[0, 1])
        assert result.centroids.shape == (2, 32, 6) and result.labels.shape == (2, n)
        assert not result.n_iter.any() and result.converged.all()
        for j in range(2):
            for centroid in result.centroids[j]:
                assert (points[j].astype(DTYPE) == centroid).all(axis=1).any()
            assert np.array_equal(result.labels[j], oracle.assign(points[j], result.centroids[j]))
            assert set(result.labels[j].tolist()) == set(range(32))


class TestHeterogeneousBatches:
    def test_problems_converge_at_different_iterations(self, rng):
        """Converged problems leave the batch; the rest keep iterating with
        unchanged results."""
        tight = _blobs(rng, np.array([[0.0, 0.0], [9.0, 9.0], [-9.0, 9.0], [9.0, -9.0]]),
                       points_per_center=50)
        loose = rng.normal(size=(3, 200, 2))
        points = np.concatenate([tight[None], loose], axis=0)
        batch = kmeans_fit(points, 4, max_iter=40, seed=[5, 6, 7, 8])
        assert len(set(batch.n_iter.tolist())) > 1
        assert batch.converged.all()
        for j in range(4):
            alone = kmeans_fit(points[j], 4, max_iter=40, seed=5 + j)
            _assert_identical(_fields(alone), _rows(batch, j))
            oracle.assert_same(alone, oracle.fit(points[j], 4, 40, seed=5 + j))

    def test_only_some_problems_reseed_empty_clusters(self, rng, monkeypatch):
        points = rng.normal(size=(4, 300, 3))
        start = points[:, :8].copy()
        start[1] = 100.0 + rng.normal(size=(8, 3))  # far away: 7 clusters empty
        start[3, 2:] = -50.0                        # 6 coincident, far away
        reseeded = []
        real = kmeans_module._reseed_targets

        def spy(pts, centroids, labels, num_empty):
            reseeded.append(int(np.flatnonzero(
                (points.astype(DTYPE) == pts).all(axis=(1, 2)))[0]))
            return real(pts, centroids, labels, num_empty)

        monkeypatch.setattr(kmeans_module, "_reseed_targets", spy)
        batch = kmeans_refine(points, start, max_iter=10)
        assert set(reseeded) == {1, 3}
        monkeypatch.undo()
        for j in range(4):
            alone = kmeans_refine(points[j], start[j], max_iter=10)
            _assert_identical(_fields(alone), _rows(batch, j))
            oracle.assert_same(alone, oracle.lloyd(points[j], start[j], 10))

    def test_fewer_points_than_clusters_in_a_batch(self, rng):
        points = rng.normal(size=(5, 3, 4))
        batch = kmeans_fit(points, 8, max_iter=10, seed=[0, 1, 2, 3, 4])
        assert batch.centroids.shape == (5, 8, 4)
        assert batch.labels.shape == (5, 3)
        assert not batch.n_iter.any() and batch.converged.all()
        for j in range(5):
            _assert_identical(_fields(oracle.fit(points[j], 8, 10, seed=j)),
                              _rows(batch, j))

    def test_an_all_identical_points_problem_among_ordinary_ones(self, rng):
        points = rng.normal(size=(3, 120, 4))
        points[1] = 2.5
        batch = kmeans_fit(points, 8, max_iter=10, seed=[0, 1, 2])
        assert np.all(batch.centroids[1] == 2.5)
        assert batch.inertia[1] == pytest.approx(0.0, abs=1e-9) and batch.converged[1]
        assert np.isfinite(batch.inertia).all()
        for j in range(3):
            alone = kmeans_fit(points[j], 8, max_iter=10, seed=j)
            _assert_identical(_fields(alone), _rows(batch, j))
        for j in (0, 2):
            oracle.assert_same(kmeans_fit(points[j], 8, max_iter=10, seed=j),
                               oracle.fit(points[j], 8, 10, seed=j))


class TestTwoDimensionalCallers:
    def test_scalar_fields_and_2d_shapes(self, rng):
        points = rng.normal(size=(64, 6))
        for result in (kmeans_fit(points, 8, max_iter=5, seed=0),
                       kmeans_refine(points, points[:8], max_iter=5)):
            assert result.centroids.shape == (8, 6)
            assert result.labels.shape == (64,) and result.labels.dtype == np.int64
            assert type(result.inertia) is float
            assert type(result.n_iter) is int
            assert type(result.converged) is bool

    def test_batch_validation(self, rng):
        points = rng.normal(size=(4, 30, 3))
        with pytest.raises(ConfigurationError):
            kmeans_fit(points, 4, seed=[0, 1, 2])  # 3 seeds, 4 problems
        with pytest.raises(ConfigurationError):
            kmeans_refine(points, rng.normal(size=(3, 4, 3)))  # 3 centroid sets
        with pytest.raises(DimensionError):
            kmeans_fit(rng.normal(size=(2, 2, 30, 3)), 4)
