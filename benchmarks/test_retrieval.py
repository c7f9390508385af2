"""Tests for the stand-alone ANN retrieval library (flat / IVF / PQ indexes)."""

import numpy as np
import pytest

from repro.core import PQConfig
from repro.errors import ConfigurationError, DimensionError, NotFittedError
from retrieval import FlatIndex, IVFIndex, PQIndex, recall_at_k, score_distortion


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture()
def vectors(rng):
    return rng.normal(size=(400, 32))


class TestFlatIndex:
    def test_exact_top1(self, vectors):
        index = FlatIndex(dim=32)
        index.add(vectors)
        query = vectors[17] * 2.0
        ids, scores = index.search(query, k=1)
        assert ids[0] == 17
        assert index.size == 400

    def test_matches_argsort(self, vectors, rng):
        index = FlatIndex(dim=32)
        index.add(vectors)
        query = rng.normal(size=32)
        ids, _ = index.search(query, k=10)
        expected = np.argsort(-(vectors @ query))[:10]
        assert list(ids) == list(expected)

    def test_incremental_add(self, vectors):
        index = FlatIndex(dim=32)
        index.add(vectors[:100])
        index.add(vectors[100:])
        assert index.size == 400

    def test_errors(self, vectors):
        index = FlatIndex(dim=32)
        with pytest.raises(NotFittedError):
            index.search(np.zeros(32), 1)
        index.add(vectors)
        with pytest.raises(DimensionError):
            index.search(np.zeros(16), 1)
        with pytest.raises(DimensionError):
            FlatIndex(dim=0)


class TestPQIndex:
    def test_recall_against_flat(self, vectors, rng):
        flat = FlatIndex(dim=32)
        flat.add(vectors)
        pq = PQIndex(PQConfig(dim=32, num_partitions=4, num_bits=6, seed=0))
        pq.train(vectors)
        query = rng.normal(size=32)
        exact_ids, exact_scores = flat.search(query, k=20)
        approx_ids, approx_scores = pq.search(query, k=20)
        assert recall_at_k(approx_ids, exact_ids) >= 0.3
        assert score_distortion(approx_scores, exact_scores) < 1.0

    def test_add_after_train(self, vectors, rng):
        pq = PQIndex(PQConfig(dim=32, num_partitions=2, num_bits=4, seed=0))
        pq.train(vectors[:200])
        pq.add(vectors[200:])
        assert pq.size == 400

    def test_add_before_train_rejected(self, vectors):
        pq = PQIndex(PQConfig(dim=32, num_partitions=2, num_bits=4))
        with pytest.raises(NotFittedError):
            pq.add(vectors)

    def test_memory_smaller_than_raw(self, vectors):
        pq = PQIndex(PQConfig(dim=32, num_partitions=2, num_bits=4, seed=0))
        pq.train(vectors)
        mem = pq.memory_bytes()
        assert mem["codes_bytes"] < mem["raw_bytes"]

    def test_empty_search_rejected(self):
        pq = PQIndex(PQConfig(dim=32, num_partitions=2, num_bits=4))
        with pytest.raises(NotFittedError):
            pq.search(np.zeros(32), 1)


class TestIVFIndex:
    def test_probing_all_lists_is_exact(self, vectors, rng):
        ivf = IVFIndex(dim=32, n_lists=8, n_probe=8, seed=0)
        ivf.train(vectors)
        flat = FlatIndex(dim=32)
        flat.add(vectors)
        query = rng.normal(size=32)
        exact_ids, _ = flat.search(query, k=10)
        ivf_ids, _ = ivf.search(query, k=10)
        assert recall_at_k(ivf_ids, exact_ids) == 1.0

    def test_fewer_probes_lower_or_equal_recall(self, vectors, rng):
        query = rng.normal(size=32)
        flat = FlatIndex(dim=32)
        flat.add(vectors)
        exact_ids, _ = flat.search(query, k=10)
        recalls = []
        for n_probe in (1, 4, 8):
            ivf = IVFIndex(dim=32, n_lists=8, n_probe=n_probe, seed=0)
            ivf.train(vectors)
            ids, _ = ivf.search(query, k=10)
            recalls.append(recall_at_k(ids, exact_ids))
        assert recalls[0] <= recalls[-1]

    def test_add_assigns_new_ids(self, vectors, rng):
        ivf = IVFIndex(dim=32, n_lists=4, n_probe=4, seed=0)
        ivf.train(vectors[:300])
        ivf.add(vectors[300:])
        assert ivf.size == 400
        big = vectors[350] * 100
        ivf.add(big[None, :])
        ids, _ = ivf.search(vectors[350], k=1)
        assert ids[0] == 400

    def test_errors(self, vectors):
        with pytest.raises(ConfigurationError):
            IVFIndex(dim=32, n_lists=0)
        ivf = IVFIndex(dim=32, n_lists=4)
        with pytest.raises(NotFittedError):
            ivf.search(np.zeros(32), 1)
        with pytest.raises(NotFittedError):
            ivf.add(vectors)


class TestMetrics:
    def test_recall_bounds(self):
        assert recall_at_k(np.array([1, 2, 3]), np.array([1, 2, 3])) == 1.0
        assert recall_at_k(np.array([4, 5, 6]), np.array([1, 2, 3])) == 0.0
        assert recall_at_k(np.array([]), np.array([])) == 1.0

    def test_distortion_zero_for_identical(self):
        scores = np.array([1.0, 2.0, 3.0])
        assert score_distortion(scores, scores) == 0.0
