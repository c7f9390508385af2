"""Tests for the KVCache data structures and token segmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DimensionError
from repro.llm import KVCache, LayerKVCache, TokenSegments


class TestLayerKVCache:
    def test_append_single_token(self, rng):
        cache = LayerKVCache(num_kv_heads=2, head_dim=8)
        cache.append(rng.normal(size=(2, 8)), rng.normal(size=(2, 8)))
        assert len(cache) == 1
        assert cache.keys.shape == (2, 1, 8)

    def test_append_multiple_tokens(self, rng):
        cache = LayerKVCache(2, 8)
        cache.append(rng.normal(size=(2, 10, 8)), rng.normal(size=(2, 10, 8)))
        cache.append(rng.normal(size=(2, 8)), rng.normal(size=(2, 8)))
        assert len(cache) == 11

    def test_values_preserved_across_growth(self, rng):
        cache = LayerKVCache(1, 4)
        first_key = rng.normal(size=(1, 4))
        cache.append(first_key, first_key)
        # Force several re-allocations.
        for _ in range(600):
            cache.append(rng.normal(size=(1, 4)), rng.normal(size=(1, 4)))
        assert np.allclose(cache.keys[:, 0, :], first_key)
        assert len(cache) == 601

    def test_growth_is_bitwise_and_hides_uninitialised_rows(self, rng):
        """Growth allocates without zero-filling and copies the live rows
        only: what was appended must read back bit for bit through ``keys``,
        ``values`` and ``gather``, and the uninitialised tail past
        ``len(cache)`` must never be reachable through any of them."""
        cache = LayerKVCache(2, 4)
        keys, values = [], []
        # single tokens, a chunk that overshoots the doubling rule, an exact
        # fill to the new capacity, then one more token
        for t in (1, 1, 300, 1, 700, 45, 1):
            k, v = rng.normal(size=(2, t, 4)), rng.normal(size=(2, t, 4))
            cache.append(k, v)
            keys.append(k)
            values.append(v)
            n = sum(len_.shape[1] for len_ in keys)
            assert len(cache) == n
            assert cache.keys.shape == cache.values.shape == (2, n, 4)
            assert np.array_equal(cache.keys, np.concatenate(keys, axis=1))
            assert np.array_equal(cache.values, np.concatenate(values, axis=1))
            got_k, got_v = cache.gather(np.array([0, n - 1]))
            assert np.array_equal(got_k, cache.keys[:, [0, n - 1]])
            assert np.array_equal(got_v, cache.values[:, [0, n - 1]])
            with pytest.raises(DimensionError):
                cache.gather(np.array([n]))  # first row of the spare capacity

    def test_growth_stays_amortised(self, rng):
        def token():
            return rng.normal(size=(1, 4)), rng.normal(size=(1, 4))

        cache = LayerKVCache(1, 4)
        cache.append(rng.normal(size=(1, 1000, 4)), rng.normal(size=(1, 1000, 4)))
        prefilled = cache.keys.base
        # a bulk append leaves room: decoding does not copy the prefill whole
        # for its first token
        for _ in range(LayerKVCache._GROWTH):
            cache.append(*token())
        assert cache.keys.base is prefilled
        cache.append(*token())
        doubled = cache.keys.base
        assert doubled is not prefilled
        for _ in range(2 * (1000 + LayerKVCache._GROWTH) - len(cache)):
            cache.append(*token())  # up to twice the old buffer: no new one
        assert cache.keys.base is doubled

    def test_shape_mismatch_rejected(self, rng):
        cache = LayerKVCache(2, 8)
        with pytest.raises(DimensionError):
            cache.append(rng.normal(size=(2, 8)), rng.normal(size=(2, 9)))
        with pytest.raises(DimensionError):
            cache.append(rng.normal(size=(3, 8)), rng.normal(size=(3, 8)))

    def test_gather(self, rng):
        cache = LayerKVCache(2, 4)
        keys = rng.normal(size=(2, 6, 4))
        cache.append(keys, keys)
        gathered_k, gathered_v = cache.gather(np.array([1, 3]))
        assert np.allclose(gathered_k, keys[:, [1, 3], :])

    def test_gather_out_of_range(self, rng):
        cache = LayerKVCache(1, 4)
        cache.append(rng.normal(size=(1, 3, 4)), rng.normal(size=(1, 3, 4)))
        with pytest.raises(DimensionError):
            cache.gather(np.array([5]))

    def test_nbytes(self, rng):
        cache = LayerKVCache(2, 8)
        cache.append(rng.normal(size=(2, 10, 8)), rng.normal(size=(2, 10, 8)))
        assert cache.nbytes(dtype_bytes=2) == 2 * 2 * 10 * 8 * 2

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            LayerKVCache(0, 8)


class TestKVCache:
    def test_layer_access_and_len(self, rng):
        cache = KVCache(num_layers=3, num_kv_heads=2, head_dim=4)
        for layer in range(3):
            cache[layer].append(rng.normal(size=(2, 5, 4)), rng.normal(size=(2, 5, 4)))
        assert len(cache) == 5
        assert cache.seq_len == 5

    def test_nbytes_sums_layers(self, rng):
        cache = KVCache(2, 1, 4)
        for layer in range(2):
            cache[layer].append(rng.normal(size=(1, 3, 4)), rng.normal(size=(1, 3, 4)))
        assert cache.nbytes(2) == 2 * cache[0].nbytes(2)

    def test_invalid_layers(self):
        with pytest.raises(ConfigurationError):
            KVCache(0, 1, 4)


class TestTokenSegments:
    def test_basic_partition(self):
        seg = TokenSegments(seq_len=100, num_initial=4, num_local=16)
        assert list(seg.initial_indices) == list(range(4))
        assert list(seg.local_indices) == list(range(84, 100))
        assert seg.num_middle == 80
        assert seg.describe()["middle"] == 80

    def test_partition_covers_everything_once(self):
        seg = TokenSegments(seq_len=50, num_initial=3, num_local=10)
        union = np.concatenate([seg.initial_indices, seg.middle_indices,
                                seg.local_indices])
        assert sorted(union.tolist()) == list(range(50))

    def test_short_sequence_no_middle(self):
        seg = TokenSegments(seq_len=10, num_initial=4, num_local=16)
        assert seg.num_middle == 0
        assert seg.initial_indices.size + seg.local_indices.size == 10

    def test_zero_length(self):
        seg = TokenSegments(seq_len=0, num_initial=4, num_local=4)
        assert seg.initial_indices.size == 0
        assert seg.middle_indices.size == 0
        assert seg.local_indices.size == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            TokenSegments(seq_len=-1, num_initial=0, num_local=0)
        with pytest.raises(ConfigurationError):
            TokenSegments(seq_len=5, num_initial=-1, num_local=0)

    @given(st.integers(0, 300), st.integers(0, 20), st.integers(0, 50))
    @settings(max_examples=50, deadline=None)
    def test_segments_never_overlap(self, seq_len, num_initial, num_local):
        seg = TokenSegments(seq_len=seq_len, num_initial=num_initial,
                            num_local=num_local)
        initial = set(seg.initial_indices.tolist())
        middle = set(seg.middle_indices.tolist())
        local = set(seg.local_indices.tolist())
        assert not (initial & middle)
        assert not (middle & local)
        assert not (initial & local)
        assert initial | middle | local == set(range(seq_len))
