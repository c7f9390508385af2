"""Tests for repro.utils helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionError
from repro.utils import (
    as_rng,
    check_2d,
    sizeof_fmt,
    softmax,
    topk_indices,
)


class TestAsRng:
    def test_integer_seed_is_deterministic(self):
        assert as_rng(3).integers(1000) == as_rng(3).integers(1000)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_none_returns_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)


class TestCheck2d:
    def test_accepts_2d(self):
        arr = check_2d([[1.0, 2.0], [3.0, 4.0]])
        assert arr.shape == (2, 2)
        assert arr.dtype == np.float64

    def test_rejects_1d(self):
        with pytest.raises(DimensionError):
            check_2d(np.zeros(3))

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            check_2d(np.zeros((0, 3)))


class TestSoftmax:
    def test_sums_to_one(self):
        probs = softmax(np.array([1.0, 2.0, 3.0]))
        assert probs.sum() == pytest.approx(1.0)

    def test_handles_large_values(self):
        probs = softmax(np.array([1e4, 1e4 + 1.0]))
        assert np.isfinite(probs).all()
        assert probs.sum() == pytest.approx(1.0)

    def test_axis_argument(self):
        probs = softmax(np.ones((3, 4)), axis=0)
        assert np.allclose(probs.sum(axis=0), 1.0)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_softmax_property(self, values):
        probs = softmax(np.array(values))
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= 0).all()


class TestTopkIndices:
    def test_returns_largest(self):
        idx = topk_indices(np.array([0.1, 5.0, 3.0, 4.0]), 2)
        assert list(idx) == [1, 3]

    def test_k_larger_than_length(self):
        idx = topk_indices(np.array([1.0, 2.0]), 10)
        assert sorted(idx.tolist()) == [0, 1]

    def test_k_zero(self):
        assert topk_indices(np.array([1.0]), 0).size == 0

    def test_rejects_2d(self):
        with pytest.raises(DimensionError):
            topk_indices(np.zeros((2, 2)), 1)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50, unique=True),
           st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_matches_argsort(self, values, k):
        scores = np.array(values)
        expected = np.argsort(-scores)[: min(k, scores.size)]
        assert list(topk_indices(scores, k)) == list(expected)

    def test_ties_at_boundary_break_by_lowest_index(self):
        """Regression: ties at the k-th score used to be resolved by
        argpartition's arbitrary (platform-dependent) order."""
        scores = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 0.5])
        assert list(topk_indices(scores, 2)) == [1, 2]
        assert list(topk_indices(scores, 3)) == [1, 2, 4]
        # A boundary tie between equal 1.0 scores picks index 0, not 3.
        assert list(topk_indices(scores, 4)) == [1, 2, 4, 0]

    def test_all_duplicate_scores_select_lowest_indices(self):
        scores = np.full(20, 7.0)
        for k in (1, 5, 20):
            assert list(topk_indices(scores, k)) == list(range(k))

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=60),
           st.integers(1, 12))
    @settings(max_examples=50, deadline=None)
    def test_duplicate_heavy_matches_lexsort(self, values, k):
        """Property: result equals the first k of a stable (-score, index)
        sort, for score vectors dense with duplicates."""
        scores = np.array(values, dtype=np.float64)
        expected = np.argsort(-scores, kind="stable")[: min(k, scores.size)]
        assert list(topk_indices(scores, k)) == list(expected)


class TestSizeofFmt:
    def test_bytes(self):
        assert sizeof_fmt(10) == "10.00 B"

    def test_gib(self):
        assert sizeof_fmt(2 * 1024 ** 3) == "2.00 GiB"
