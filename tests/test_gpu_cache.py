"""Tests for the block-level GPU cache (LRU / LFU)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gpu_cache import BlockGpuCache, CacheStats
from repro.errors import ConfigurationError


class TestConstruction:
    def test_capacity_blocks(self):
        cache = BlockGpuCache(capacity_tokens=1024, block_size=128)
        assert cache.capacity_blocks == 8

    def test_invalid_policy(self):
        with pytest.raises(ConfigurationError):
            BlockGpuCache(capacity_tokens=128, policy="fifo")

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            BlockGpuCache(capacity_tokens=-1)
        with pytest.raises(ConfigurationError):
            BlockGpuCache(capacity_tokens=128, block_size=0)
        with pytest.raises(ConfigurationError):
            BlockGpuCache(capacity_tokens=128, k_cache_blocks=0)


class TestLookupAccess:
    def test_first_access_is_all_misses(self):
        cache = BlockGpuCache(capacity_tokens=512, block_size=128)
        result = cache.access(np.array([0, 1, 200]))
        assert result["hit_tokens"].size == 0
        assert result["miss_tokens"].size == 3

    def test_second_access_hits(self):
        cache = BlockGpuCache(capacity_tokens=512, block_size=128)
        cache.access(np.array([0, 1, 200]))
        result = cache.access(np.array([0, 1, 200]))
        assert result["miss_tokens"].size == 0
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_per_step_hit_rate_covers_accesses_since_begin_step(self):
        """Regression: blocking-byte estimates used the *cumulative* hit
        rate, letting earlier steps' hits/misses leak into the current
        step's traffic estimate.  ``step_hit_rate`` must aggregate exactly
        the accesses since the last ``begin_step()`` (one decode step spans
        one access per layer)."""
        cache = BlockGpuCache(capacity_tokens=512, block_size=128)
        cache.begin_step()
        cache.access(np.array([0, 1, 200]))          # layer 0, cold: 0/3
        cache.access(np.array([0, 1, 200]))          # layer 1, warm: 3/3
        assert cache.stats.step_hit_rate == pytest.approx(0.5)

        cache.begin_step()                           # next decode step
        cache.access(np.array([0, 1, 200]))          # warm: 3/3
        assert cache.stats.step_hit_rate == 1.0
        # The cumulative rate keeps the whole history for reporting.
        assert cache.stats.hit_rate == pytest.approx(6 / 9)

        cache.begin_step()
        cache.access(np.array([0, 900]))             # mixed: 1/2
        assert cache.stats.step_hit_rate == pytest.approx(0.5)
        assert cache.stats.hit_rate == pytest.approx(7 / 11)

    def test_per_step_hit_rate_before_any_access_is_zero(self):
        cache = BlockGpuCache(capacity_tokens=512)
        assert cache.stats.step_hit_rate == 0.0
        stats = cache.stats.as_dict()
        assert stats["step_hit_rate"] == 0.0
        assert stats["hit_rate"] == 0.0

    def test_step_counters_track_cumulative_without_begin_step(self):
        cache = BlockGpuCache(capacity_tokens=512, block_size=128)
        cache.access(np.array([0, 1, 200]))
        cache.access(np.array([0, 1, 200]))
        assert cache.stats.step_hit_rate == cache.stats.hit_rate

    def test_empty_request(self):
        cache = BlockGpuCache(capacity_tokens=512)
        result = cache.access(np.array([], dtype=np.int64))
        assert result["miss_blocks"].size == 0

    def test_zero_capacity_never_caches(self):
        cache = BlockGpuCache(capacity_tokens=0, block_size=128)
        cache.access(np.array([5]))
        result = cache.access(np.array([5]))
        assert result["miss_tokens"].size == 1


class TestEviction:
    def test_lru_evicts_oldest(self):
        cache = BlockGpuCache(capacity_tokens=256, block_size=128, policy="lru",
                              k_cache_blocks=1)
        cache.access(np.array([0]))      # block 0
        cache.access(np.array([128]))    # block 1
        cache.access(np.array([256]))    # block 2 -> evicts block 0
        assert 0 not in cache
        assert 1 in cache and 2 in cache

    def test_lru_refresh_on_access(self):
        cache = BlockGpuCache(capacity_tokens=256, block_size=128, policy="lru",
                              k_cache_blocks=1)
        cache.access(np.array([0]))
        cache.access(np.array([128]))
        cache.access(np.array([0]))      # refresh block 0
        cache.access(np.array([256]))    # should evict block 1 (least recent)
        assert 0 in cache
        assert 1 not in cache

    def test_lfu_evicts_least_frequent(self):
        cache = BlockGpuCache(capacity_tokens=256, block_size=128, policy="lfu",
                              k_cache_blocks=1)
        cache.access(np.array([0]))
        cache.access(np.array([0]))
        cache.access(np.array([128]))
        cache.access(np.array([256]))    # evicts block 1 (freq 1), keeps block 0 (freq 2)
        assert 0 in cache
        assert 1 not in cache

    def test_eviction_counter(self):
        cache = BlockGpuCache(capacity_tokens=128, block_size=128, k_cache_blocks=1)
        cache.access(np.array([0]))
        cache.access(np.array([128]))
        assert cache.stats.block_evictions == 1

    def test_clear(self):
        cache = BlockGpuCache(capacity_tokens=512)
        cache.access(np.array([0, 1]))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0


class TestKCacheBlocks:
    def test_only_top_blocks_are_inserted(self):
        cache = BlockGpuCache(capacity_tokens=10 * 128, block_size=128,
                              k_cache_blocks=1)
        # Block 0 contains 3 requested tokens, block 5 only one: with
        # k_cache_blocks=1 only block 0 enters the cache.
        cache.access(np.array([0, 1, 2, 5 * 128]))
        assert 0 in cache
        assert 5 not in cache


class TestStats:
    def test_hit_rate_zero_without_lookups(self):
        assert CacheStats().hit_rate == 0.0

    def test_as_dict_keys(self):
        stats = CacheStats(lookups=1, token_hits=2, token_misses=2)
        d = stats.as_dict()
        assert d["hit_rate"] == pytest.approx(0.5)
        assert set(d) >= {"lookups", "token_hits", "token_misses"}

    @given(st.lists(st.integers(0, 2000), min_size=1, max_size=50))
    @settings(max_examples=25, deadline=None)
    def test_hit_rate_bounded(self, tokens):
        cache = BlockGpuCache(capacity_tokens=512, block_size=64)
        for token in tokens:
            cache.access(np.array([token]))
        assert 0.0 <= cache.stats.hit_rate <= 1.0
        assert len(cache) <= cache.capacity_blocks
