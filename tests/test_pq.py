"""Tests for the Product Quantizer (codebooks, encoding, ADC scoring)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pq import PQConfig, ProductQuantizer
from repro.errors import ConfigurationError, DimensionError, NotFittedError
from repro.utils import DTYPE


@pytest.fixture()
def keys(rng):
    return rng.normal(size=(256, 32))


@pytest.fixture()
def fitted(keys):
    pq = ProductQuantizer(PQConfig(dim=32, num_partitions=2, num_bits=4, seed=0))
    codes = pq.fit(keys)
    return pq, codes


class TestPQConfig:
    def test_derived_quantities(self):
        cfg = PQConfig(dim=128, num_partitions=2, num_bits=6)
        assert cfg.num_centroids == 64
        assert cfg.sub_dim == 64
        assert cfg.code_bytes_per_vector() == pytest.approx(2 * 6 / 8)

    def test_centroid_bytes(self):
        cfg = PQConfig(dim=64, num_partitions=4, num_bits=4)
        assert cfg.centroid_bytes(dtype_bytes=2) == 4 * 16 * 16 * 2

    def test_dim_must_divide(self):
        with pytest.raises(ConfigurationError):
            PQConfig(dim=30, num_partitions=4)

    def test_invalid_bits(self):
        with pytest.raises(ConfigurationError):
            PQConfig(dim=32, num_bits=0)
        with pytest.raises(ConfigurationError):
            PQConfig(dim=32, num_bits=20)

    def test_invalid_dim(self):
        with pytest.raises(ConfigurationError):
            PQConfig(dim=0)

    def test_paper_communication_ratios(self):
        # LongBench setting: m=2, b=6, d_h=128 -> (m*b/8)/(2*d_h) = 12/2048 < 1/128
        longbench = PQConfig(dim=128, num_partitions=2, num_bits=6)
        ratio = longbench.code_bytes_per_vector() / (2 * 128)
        assert ratio <= 1 / 128
        # InfiniteBench setting: m=4, b=8 -> 1/64
        infinitebench = PQConfig(dim=128, num_partitions=4, num_bits=8)
        ratio = infinitebench.code_bytes_per_vector() / (2 * 128)
        assert ratio == pytest.approx(1 / 64)


class TestFitEncode:
    def test_codes_shape_and_range(self, fitted, keys):
        pq, codes = fitted
        assert codes.shape == (keys.shape[0], 2)
        assert codes.dtype == np.uint16
        assert codes.max() < 16

    def test_not_fitted_errors(self):
        pq = ProductQuantizer(PQConfig(dim=8, num_partitions=2, num_bits=2))
        with pytest.raises(NotFittedError):
            pq.encode(np.zeros((1, 8)))
        with pytest.raises(NotFittedError):
            _ = pq.centroids

    def test_iteration_counters_exist_before_fit(self, keys):
        """Regression: both counters used to appear only after the first
        ``fit`` / ``refine``."""
        pq = ProductQuantizer(PQConfig(dim=32, num_partitions=2, num_bits=4, seed=0))
        assert pq.last_fit_iterations == 0 and pq.last_refine_iterations == 0
        pq.fit(keys, max_iters=3)
        assert 0 < pq.last_fit_iterations <= 2 * 3
        assert pq.last_refine_iterations == 0
        pq.refine(keys, max_iters=2)
        assert 0 < pq.last_refine_iterations <= 2 * 2

    def test_encode_matches_fit_codes(self, fitted, keys):
        pq, codes = fitted
        re_encoded = pq.encode(keys)
        assert np.array_equal(re_encoded, codes)

    def test_decode_shape(self, fitted, keys):
        pq, codes = fitted
        approx = pq.decode(codes)
        assert approx.shape == keys.shape

    def test_reconstruction_better_than_zero_baseline(self, fitted, keys):
        pq, _ = fitted
        mse = pq.reconstruction_error(keys)
        baseline = float(np.mean(keys ** 2))
        assert mse < baseline

    def test_more_bits_reduce_reconstruction_error(self, keys):
        coarse = ProductQuantizer(PQConfig(dim=32, num_partitions=2, num_bits=2, seed=0))
        fine = ProductQuantizer(PQConfig(dim=32, num_partitions=2, num_bits=6, seed=0))
        coarse.fit(keys)
        fine.fit(keys)
        assert fine.reconstruction_error(keys) < coarse.reconstruction_error(keys)

    def test_wrong_dim_rejected(self, fitted):
        pq, _ = fitted
        with pytest.raises(DimensionError):
            pq.encode(np.zeros((3, 16)))

    def test_max_iters_zero_still_produces_codes(self, keys):
        pq = ProductQuantizer(PQConfig(dim=32, num_partitions=2, num_bits=4, seed=0))
        codes = pq.fit(keys, max_iters=0)
        assert codes.shape == (keys.shape[0], 2)


class TestScoring:
    def test_lookup_table_shape(self, fitted, rng):
        pq, _ = fitted
        table = pq.lookup_table(rng.normal(size=32))
        assert table.shape == (2, 16)

    def test_score_equals_table_gather(self, fitted, rng):
        pq, codes = fitted
        query = rng.normal(size=32)
        table = pq.lookup_table(query)
        scores = pq.score(query, codes)
        manual = table[0, codes[:, 0].astype(int)] + table[1, codes[:, 1].astype(int)]
        assert np.allclose(scores, manual)

    def test_score_equals_inner_product_with_reconstruction(self, fitted, keys, rng):
        pq, codes = fitted
        query = rng.normal(size=32)
        scores = pq.score(query, codes)
        recon = pq.decode(codes)
        # a float32 dot product of 32 terms: within 32 epsilons of
        # sum |q_d c_d| per key (the textbook bound; 0.8 measured)
        bound = np.abs(recon) @ np.abs(query)
        assert (np.abs(scores - recon @ query) <= 32 * np.finfo(DTYPE).eps * bound).all()

    def test_score_correlates_with_exact(self, fitted, keys, rng):
        pq, codes = fitted
        query = rng.normal(size=32)
        exact = keys @ query
        approx = pq.score(query, codes)
        corr = np.corrcoef(exact, approx)[0, 1]
        # Random Gaussian keys are the hardest case for PQ; a coarse 2x4-bit
        # quantizer still has to preserve a clearly positive correlation.
        assert corr > 0.3

    def test_topk_recall_reasonable(self, keys, rng):
        pq = ProductQuantizer(PQConfig(dim=32, num_partitions=4, num_bits=6, seed=0))
        codes = pq.fit(keys)
        query = rng.normal(size=32)
        exact_top = set(np.argsort(-(keys @ query))[:20].tolist())
        approx_top = set(np.argsort(-pq.score(query, codes))[:20].tolist())
        recall = len(exact_top & approx_top) / 20
        assert recall >= 0.4

    def test_query_dim_validated(self, fitted):
        pq, codes = fitted
        with pytest.raises(DimensionError):
            pq.score(np.zeros(16), codes)

    def test_codes_shape_validated(self, fitted, rng):
        pq, _ = fitted
        with pytest.raises(DimensionError):
            pq.score(rng.normal(size=32), np.zeros((5, 3), dtype=np.int64))


class TestMemoryFootprint:
    def test_codes_smaller_than_raw(self, fitted):
        pq, _ = fitted
        footprint = pq.memory_footprint(num_vectors=1000)
        assert footprint["codes_bytes"] < footprint["raw_bytes"]

    @given(st.integers(1, 4), st.integers(2, 8))
    @settings(max_examples=20, deadline=None)
    def test_code_bytes_formula(self, partitions, bits):
        dim = 32
        if dim % partitions:
            partitions = 1
        cfg = PQConfig(dim=dim, num_partitions=partitions, num_bits=bits)
        assert cfg.code_bytes_per_vector() == pytest.approx(partitions * bits / 8)


class TestPropertyBased:
    @given(st.integers(1, 3).map(lambda m: 2 ** m), st.integers(2, 5))
    @settings(max_examples=10, deadline=None)
    def test_fit_score_roundtrip_any_config(self, partitions, bits):
        rng = np.random.default_rng(partitions * 10 + bits)
        keys = rng.normal(size=(96, 16))
        pq = ProductQuantizer(
            PQConfig(dim=16, num_partitions=partitions, num_bits=bits, seed=0)
        )
        codes = pq.fit(keys)
        scores = pq.score(rng.normal(size=16), codes)
        assert scores.shape == (96,)
        assert np.isfinite(scores).all()
