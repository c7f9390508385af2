"""The decode read path against the loops it replaced.

A selection is an ascending index set from the moment it is picked; the
block cache accounts for it with array operations; the attention kernel
copies each selected row once, into a workspace it reuses.  Each piece must
return exactly what its oracle in ``tests/decode_read_oracle.py`` returns.
"""

import copy
import dataclasses

import numpy as np
import pytest

import decode_read_oracle as oracle
from repro.baselines import PQCachePolicy, SelectionBudget
from repro.core import PQCacheConfig, PQCacheManager, ProductQuantizer
from repro.core.gpu_cache import BlockGpuCache
from repro.errors import DimensionError
from repro.llm import KVCache, TokenSegments
from repro.llm.attention import GroupedDecodeAttention, decode_attention
from repro.utils import DTYPE, topk_indices

NUM_INITIAL, NUM_LOCAL, SEQ = 4, 16, 150


@pytest.fixture()
def manager(tiny_config, rng):
    cache = KVCache(tiny_config.num_layers, tiny_config.num_kv_heads,
                    tiny_config.head_dim)
    for layer in range(tiny_config.num_layers):
        kv = rng.normal(size=(tiny_config.num_kv_heads, SEQ, tiny_config.head_dim))
        cache[layer].append(kv, kv)
    mgr = PQCacheManager(
        tiny_config,
        PQCacheConfig(num_partitions=2, num_bits=4, max_kmeans_iters=3,
                      gpu_cache_tokens=0),
    )
    mgr.build(cache)
    return mgr


@pytest.fixture()
def kv_queries(tiny_config, rng):
    return rng.normal(size=(tiny_config.num_kv_heads, tiny_config.head_dim))


def _segments(seq_len=SEQ):
    return TokenSegments(seq_len=seq_len, num_initial=NUM_INITIAL, num_local=NUM_LOCAL)


def _assert_same_sets(got, scored):
    assert len(got) == len(scored)
    for head_set, head_scored in zip(got, scored):
        assert head_set.dtype == np.int64
        assert np.array_equal(head_set, np.sort(head_scored))


class TestSetTopK:
    """``topk_middle`` returns, ascending, the tokens ``topk_indices`` picks."""

    N_MIDDLE = SEQ - NUM_INITIAL - NUM_LOCAL

    @pytest.mark.parametrize("k", [0, 1, 7, N_MIDDLE - 1, N_MIDDLE, N_MIDDLE + 50])
    def test_random_scores(self, manager, kv_queries, k):
        got = manager.topk_middle(0, kv_queries, _segments(), k)
        _assert_same_sets(got, oracle.topk_middle(manager, 0, kv_queries, _segments(), k))
        assert all(s.size == min(k, self.N_MIDDLE) for s in got)

    def _with_scores(self, monkeypatch, scores):
        monkeypatch.setattr(
            ProductQuantizer, "score_batch",
            staticmethod(lambda codebooks, queries, codes: scores[:, : codes.shape[1]]),
        )

    @pytest.mark.parametrize("k", [1, 5, 40, N_MIDDLE - 1])
    def test_ties_straddling_the_kth_value(self, manager, kv_queries, rng,
                                           monkeypatch, k):
        """Few distinct values: the k-th score is shared by tokens on both
        sides of the cut, and the lowest token indices must win."""
        scores = rng.integers(0, 4, size=(2, self.N_MIDDLE)).astype(np.float64)
        self._with_scores(monkeypatch, scores)
        got = manager.topk_middle(0, kv_queries, _segments(), k)
        _assert_same_sets(got, oracle.topk_middle(manager, 0, kv_queries, _segments(), k))
        for head, head_set in enumerate(got):
            assert np.array_equal(
                head_set, np.sort(topk_indices(scores[head], k)) + NUM_INITIAL
            )

    def test_all_equal_rows_take_the_first_tokens(self, manager, kv_queries,
                                                  monkeypatch):
        self._with_scores(monkeypatch, np.full((2, self.N_MIDDLE), 1.5))
        for head_set in manager.topk_middle(0, kv_queries, _segments(), 9):
            assert np.array_equal(head_set, NUM_INITIAL + np.arange(9))

    @pytest.mark.parametrize("k", [3, 60, N_MIDDLE])
    @pytest.mark.parametrize("num_nan", [1, 100])
    def test_nan_row_falls_back_to_the_reference(self, manager, kv_queries, rng,
                                                 monkeypatch, k, num_nan):
        """NaNs rank below every score (``topk_indices``' rule); a row with
        more NaNs than ``n - k`` has to pick some, by lowest index."""
        scores = rng.normal(size=(2, self.N_MIDDLE))
        scores[1, rng.choice(self.N_MIDDLE, size=num_nan, replace=False)] = np.nan
        self._with_scores(monkeypatch, scores)
        got = manager.topk_middle(0, kv_queries, _segments(), k)
        _assert_same_sets(got, oracle.topk_middle(manager, 0, kv_queries, _segments(), k))

    @pytest.mark.parametrize("k", [4, 1000])
    def test_code_buffer_shorter_than_the_middle(self, manager, kv_queries, k):
        """The cache grew past what is encoded: only encoded tokens are
        candidates (the ``stop`` clamp)."""
        segments = _segments(SEQ + 40)
        assert segments.middle_range[1] > manager.num_codes(0)
        got = manager.topk_middle(0, kv_queries, segments, k)
        _assert_same_sets(got, oracle.topk_middle(manager, 0, kv_queries, segments, k))
        assert all(s.max() < SEQ for s in got)

    def test_no_encoded_middle_token(self, manager, kv_queries):
        segments = TokenSegments(seq_len=SEQ + 40, num_initial=SEQ, num_local=4)
        assert all(s.size == 0 for s in manager.topk_middle(0, kv_queries, segments, 5))


class TestTokenSegments:
    @pytest.mark.parametrize("seq_len,num_initial,num_local", [
        (100, 4, 16), (10, 4, 16), (3, 4, 16), (0, 4, 16), (20, 4, 16), (50, 0, 0),
    ])
    def test_middle_range_is_the_middle_indices(self, seq_len, num_initial, num_local):
        seg = TokenSegments(seq_len=seq_len, num_initial=num_initial, num_local=num_local)
        start, stop = seg.middle_range
        assert np.array_equal(seg.middle_indices, np.arange(start, stop))
        assert seg.num_middle == seg.middle_indices.size
        assert np.array_equal(
            np.concatenate([seg.initial_indices, seg.middle_indices, seg.local_indices]),
            np.arange(seq_len),
        )
        assert seg.describe() == {
            "seq_len": seq_len, "initial": seg.initial_indices.size,
            "middle": seg.num_middle, "local": seg.local_indices.size,
        }


class TestSelectBatch:
    """``select`` / ``select_batch`` == per-head ``np.unique`` over the
    concatenated segments, and the block cache is charged for the union."""

    def _policy(self, budget, tiny_config, prefill, gpu_cache_tokens=256):
        policy = PQCachePolicy(
            budget,
            pq_config=PQCacheConfig(num_bits=4, max_kmeans_iters=2,
                                    gpu_cache_tokens=gpu_cache_tokens,
                                    gpu_cache_block=16),
        )
        owned = copy.deepcopy(prefill)
        policy.on_prefill(tiny_config, owned)
        return policy, owned.kvcache

    def _check(self, policy, cache, query, layer=0):
        charged = []
        real_access = policy.manager.gpu_cache.access
        policy.manager.gpu_cache.access = lambda tokens: (
            charged.append(np.array(tokens)), real_access(tokens))[1]
        segments = policy.budget.segments(len(cache[layer]))
        scored = oracle.topk_middle(
            policy.manager, layer, policy._kv_queries(query), segments,
            policy.budget.middle_budget(policy.prompt_len),
        )
        got = policy.select(layer, query, cache)
        want = oracle.assemble(scored, segments)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == np.int64 and np.array_equal(g, w)
        (union,) = charged
        assert np.array_equal(union, oracle.fetch_union(scored))
        return got

    def test_matches_unique_per_head(self, budget, tiny_config, prefill, rng):
        policy, cache = self._policy(budget, tiny_config, prefill)
        for layer in range(tiny_config.num_layers):
            query = rng.normal(size=(tiny_config.num_heads, tiny_config.head_dim))
            self._check(policy, cache, query, layer)

    def test_empty_middle(self, tiny_config, prefill, rng):
        budget = SelectionBudget(token_ratio=0.2, num_initial=100, num_local=100)
        policy, cache = self._policy(budget, tiny_config, prefill)
        query = rng.normal(size=(tiny_config.num_heads, tiny_config.head_dim))
        got = self._check(policy, cache, query)
        assert all(np.array_equal(g, np.arange(cache.seq_len)) for g in got)
        assert policy.manager.gpu_cache.stats.lookups == 1

    def test_codes_shorter_than_the_middle(self, budget, tiny_config, prefill,
                                           model, rng):
        """Decode steps without the post-append hook: the cache outgrows
        the code buffer and the middle segment reaches past it."""
        policy, cache = self._policy(budget, tiny_config, prefill)
        for _ in range(budget.num_local + 5):
            model.decode_step(11, cache)
        segments = budget.segments(cache.seq_len)
        assert segments.middle_range[1] > policy.manager.num_codes(0)
        query = rng.normal(size=(tiny_config.num_heads, tiny_config.head_dim))
        self._check(policy, cache, query)

    def test_batch_equals_singles_and_times_assemble(self, budget, tiny_config,
                                                     prefill, rng):
        a, cache_a = self._policy(budget, tiny_config, prefill)
        b, cache_b = self._policy(budget, tiny_config, prefill, gpu_cache_tokens=0)
        ref_a, ref_cache_a = self._policy(budget, tiny_config, prefill)
        ref_b, ref_cache_b = self._policy(budget, tiny_config, prefill, gpu_cache_tokens=0)
        queries = rng.normal(size=(2, tiny_config.num_heads, tiny_config.head_dim))
        timings = {}
        batch = PQCachePolicy.select_batch(
            0, [(a, queries[0], cache_a), (b, queries[1], cache_b)], timings=timings
        )
        singles = [ref_a.select(0, queries[0], ref_cache_a),
                   ref_b.select(0, queries[1], ref_cache_b)]
        for got, want in zip(batch, singles):
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
        assert a.manager.gpu_cache.stats == ref_a.manager.gpu_cache.stats
        assert set(timings) == {"score", "topk", "assemble"}
        assert all(v > 0.0 for v in timings.values())


class TestBlockGpuCacheAgainstScalarOracle:
    @staticmethod
    def _assert_same(cache, ref, got, want):
        for key in ("hit_tokens", "miss_tokens", "miss_blocks"):
            assert got[key].dtype == np.int64
            assert np.array_equal(got[key], want[key]), key
        assert dataclasses.asdict(cache.stats) == dataclasses.asdict(ref.stats)
        # order matters: it is the LRU / LFU-tie-break eviction order
        assert cache.resident_blocks == ref.resident_blocks

    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    def test_random_accesses(self, policy):
        rng = np.random.default_rng(3)
        kwargs = dict(capacity_tokens=6 * 16, block_size=16, policy=policy,
                      k_cache_blocks=3)
        cache, ref = BlockGpuCache(**kwargs), oracle.ScalarBlockGpuCache(**kwargs)
        for step in range(200):
            size = int(rng.integers(0, 40))
            hot = rng.integers(0, 64, size=size // 2)       # blocks 0-3, revisited
            cold = rng.integers(0, 400, size=size - size // 2)
            tokens = np.concatenate([hot, cold])
            if step % 3:
                tokens = np.unique(tokens)  # the ascending sets select_batch sends
            if step % 50 == 0:
                cache.begin_step()
                ref.stats.step_hits = ref.stats.step_misses = 0
            if step % 7 == 0:
                self._assert_same(cache, ref, cache.lookup(tokens), ref.lookup(tokens))
            self._assert_same(cache, ref, cache.access(tokens), ref.access(tokens))
        assert cache.stats.block_evictions > 0 and cache.stats.token_hits > 0

    def test_capacity_zero(self):
        cache = BlockGpuCache(capacity_tokens=0, block_size=16)
        ref = oracle.ScalarBlockGpuCache(capacity_tokens=0, block_size=16)
        for tokens in (np.array([5, 6, 40]), np.array([5])):
            self._assert_same(cache, ref, cache.access(tokens), ref.access(tokens))
        assert cache.resident_blocks == []

    def test_empty_input(self):
        cache = BlockGpuCache(capacity_tokens=64, block_size=16)
        ref = oracle.ScalarBlockGpuCache(capacity_tokens=64, block_size=16)
        cache.access(np.array([1, 20])), ref.access(np.array([1, 20]))
        empty = np.empty(0, dtype=np.int64)
        self._assert_same(cache, ref, cache.access(empty), ref.access(empty))
        assert cache.stats.lookups == 2

    def test_resident_block_past_the_residency_table(self):
        """The table only spans the blocks this request touches; a resident
        block with a larger id must neither hit nor fault."""
        cache = BlockGpuCache(capacity_tokens=64, block_size=16)
        ref = oracle.ScalarBlockGpuCache(capacity_tokens=64, block_size=16)
        far = np.array([16 * 1000 + 3])
        cache.access(far), ref.access(far)
        near = np.array([0, 1, 17])
        self._assert_same(cache, ref, cache.access(near), ref.access(near))
        assert 1000 in cache

    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    def test_k_cache_truncation_with_tied_counts(self, policy):
        """Five blocks with two tokens each, room to update three: the
        lowest block ids win the tie, in ascending order."""
        kwargs = dict(capacity_tokens=10 * 16, block_size=16, policy=policy,
                      k_cache_blocks=3)
        cache, ref = BlockGpuCache(**kwargs), oracle.ScalarBlockGpuCache(**kwargs)
        tokens = np.array([b * 16 + o for b in (9, 2, 7, 4, 5) for o in (0, 3)])
        self._assert_same(cache, ref, cache.access(tokens), ref.access(tokens))
        assert cache.resident_blocks == [2, 4, 5]


class TestGatherKernel:
    H, H_KV, D = 4, 2, 8

    def _request(self, rng, seq):
        """One request's query, keys and values, as the model holds them."""
        return (rng.normal(size=(self.H, self.D)).astype(DTYPE),
                rng.normal(size=(self.H_KV, seq, self.D)).astype(DTYPE),
                rng.normal(size=(self.H_KV, seq, self.D)).astype(DTYPE))

    def _assert_equal(self, kernel, requests, selections):
        queries, keys, values = (list(x) for x in zip(*requests))
        got = kernel(queries, keys, values, selections)
        want = oracle.decode_attention_grouped(queries, keys, values, selections)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        return got

    def test_none_shared_and_per_head_selections_of_unequal_lengths(self, rng):
        requests = [self._request(rng, seq) for seq in (30, 45, 30, 12)]
        selections = [
            None,                                                   # all 30 tokens
            np.array([0, 3, 4, 40]),                                # shared by heads
            [np.arange(30), np.array([2, 5, 7, 11])],               # per head, 30 and 4
            [np.array([1]), np.empty(0, dtype=np.int64)],           # one and none
        ]
        got = self._assert_equal(GroupedDecodeAttention(), requests, selections)
        # the empty selection's query heads stay zero
        assert not got[3][self.H // self.H_KV:].any()
        for request, selection, out in zip(requests, selections, got):
            assert np.array_equal(out, decode_attention(*request, selection))

    def test_negative_indices_count_from_the_end(self, rng):
        request = self._request(rng, 20)
        kernel = GroupedDecodeAttention()
        (neg,) = kernel(*([x] for x in request), [np.array([-20, -3, -1])])
        (pos,) = kernel(*([x] for x in request), [np.array([0, 17, 19])])
        assert np.array_equal(neg, pos)
        self._assert_equal(kernel, [request], [[np.array([-1, 2]), np.array([-20, 0])]])

    @pytest.mark.parametrize("bad", [20, 25, -21])
    def test_out_of_range_raises_index_error(self, rng, bad):
        request = self._request(rng, 20)
        for selection in (np.array([0, bad]), [np.array([1]), np.array([bad, 3])]):
            with pytest.raises(IndexError):
                decode_attention(*request, selection)

    def test_shrinking_then_growing_selection_leaves_no_stale_rows(self, rng):
        """The workspace is reused: a call must not see rows a previous,
        larger call left behind, nor lose rows when it has to grow."""
        kernel = GroupedDecodeAttention()
        requests = [self._request(rng, 64) for _ in range(3)]
        for size in (40, 5, 64, 1, 23):
            selections = [
                [np.sort(rng.choice(64, size=size, replace=False)) for _ in range(self.H_KV)]
                for _ in requests
            ]
            self._assert_equal(kernel, requests, selections)
        self._assert_equal(kernel, requests[:1], [None])

    def test_geometry_is_checked(self, rng):
        query, keys, values = self._request(rng, 10)
        with pytest.raises(DimensionError):
            decode_attention(query, keys, values, [np.array([0])])      # 1 of 2 heads
        with pytest.raises(DimensionError):
            decode_attention(rng.normal(size=(3, self.D)), keys, values)

    def test_timings(self, rng):
        request = self._request(rng, 10)
        timings = {}
        GroupedDecodeAttention()(*([x] for x in request), [None], timings)
        assert set(timings) == {"gather", "attention"}
