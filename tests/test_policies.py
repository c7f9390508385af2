"""Tests for the selective-attention policies (base machinery + baselines)."""

import copy

import numpy as np
import pytest

from repro.baselines import (
    FullAttentionPolicy,
    H2OPolicy,
    InfLLMPolicy,
    KVCachePolicy,
    OracleTopKPolicy,
    PQCachePolicy,
    POLICY_NAMES,
    PyramidKVPolicy,
    SelectionBudget,
    SnapKVPolicy,
    SparqPolicy,
    StreamingLLMPolicy,
    build_policy,
    default_policy_suite,
)
from repro.core import PQCacheConfig
from repro.errors import ConfigurationError


@pytest.fixture()
def decode_query(tiny_config, rng):
    return rng.normal(size=(tiny_config.num_heads, tiny_config.head_dim))


def _prepare(policy, tiny_config, prefill):
    """Give the policy its own cache copy and run on_prefill."""
    owned = copy.deepcopy(prefill)
    policy.on_prefill(tiny_config, owned)
    return owned


class TestSelectionBudget:
    def test_total_and_middle(self):
        budget = SelectionBudget(token_ratio=0.2, num_initial=4, num_local=16)
        assert budget.total_tokens(1000) == 200
        assert budget.middle_budget(1000) == 180

    def test_min_middle_floor(self):
        budget = SelectionBudget(token_ratio=0.1, num_initial=8, num_local=64,
                                 min_middle=4)
        assert budget.middle_budget(100) == 4

    def test_invalid_ratios(self):
        with pytest.raises(ConfigurationError):
            SelectionBudget(token_ratio=0.0)
        with pytest.raises(ConfigurationError):
            SelectionBudget(comm_ratio=2.0)

    def test_segments(self):
        budget = SelectionBudget(num_initial=2, num_local=8)
        seg = budget.segments(100)
        assert seg.initial_indices.size == 2
        assert seg.local_indices.size == 8


class TestCommonBehaviour:
    """Properties every policy in the suite must satisfy."""

    @pytest.fixture(params=sorted(set(POLICY_NAMES) - {"full"}))
    def policy(self, request, budget):
        return build_policy(request.param, budget)

    def test_selection_respects_budget_and_bounds(self, policy, tiny_config,
                                                  prefill, decode_query):
        _prepare(policy, tiny_config, prefill)
        owned = policy  # policy now holds per-layer state
        cloned = copy.deepcopy(prefill)
        # re-prepare on the clone we will query against
        policy.on_prefill(tiny_config, cloned)
        selected = policy.select(0, decode_query, cloned.kvcache)
        assert isinstance(selected, list)
        assert len(selected) == tiny_config.num_kv_heads
        seq_len = cloned.kvcache.seq_len
        segments = policy.budget.segments(seq_len)
        allowed_non_middle = segments.initial_indices.size + segments.local_indices.size
        budget_middle = policy.budget.middle_budget(policy.prompt_len)
        for per_head in selected:
            assert per_head.min() >= 0
            assert per_head.max() < seq_len
            assert np.unique(per_head).size == per_head.size
            # dropping methods may retain a compensated (larger) budget, but
            # never more than twice the base plus the reserved segments.
            assert per_head.size <= 2 * budget_middle + allowed_non_middle + 8

    def test_select_before_prefill_raises(self, policy, decode_query, prefill,
                                          tiny_config):
        cloned = copy.deepcopy(prefill)
        with pytest.raises(Exception):
            policy.select(0, decode_query, cloned.kvcache)

    def test_describe_contains_name(self, policy):
        info = policy.describe()
        assert info["name"] == policy.name
        assert "token_ratio" in info


class TestAssembleReference:
    """``select`` against the definition of the per-request ``_assemble``
    that the grouped sort-and-mask replaced: per KV head,
    ``np.unique(np.concatenate([initial, middle, local]))``."""

    NAMES = ("streaming-llm", "h2o", "snapkv", "pyramidkv", "sparq", "infllm",
             "oracle")

    @staticmethod
    def _reference(middle_per_head, segments):
        return [
            np.unique(np.concatenate(
                [segments.initial_indices, middle, segments.local_indices]
            ))
            for middle in middle_per_head
        ]

    @staticmethod
    def _assert_same(got, want):
        assert len(got) == len(want)
        for got_head, want_head in zip(got, want):
            assert got_head.dtype == want_head.dtype == np.int64
            assert np.array_equal(got_head, want_head)

    @pytest.mark.parametrize("name", NAMES)
    def test_select_equals_unique_of_concatenation(
        self, name, budget, tiny_config, prefill, model, rng, monkeypatch
    ):
        policy = build_policy(name, budget)
        cloned = _prepare(policy, tiny_config, prefill)
        assembled = []
        grouped = KVCachePolicy._assemble_batch

        def spy(items):
            results = grouped(items)
            assembled.extend(zip(items, results))
            return results

        monkeypatch.setattr(KVCachePolicy, "_assemble_batch", staticmethod(spy))

        def check_every_layer():
            query = rng.normal(size=(tiny_config.num_heads, tiny_config.head_dim))
            for layer in range(tiny_config.num_layers):
                assembled.clear()
                selected = policy.select(layer, query, cloned.kvcache)
                ((_, middle_per_head, segments), result), = assembled
                assert segments.seq_len == len(cloned.kvcache[layer])
                assert len(middle_per_head) == tiny_config.num_kv_heads
                self._assert_same(selected, self._reference(middle_per_head, segments))
                self._assert_same(selected, result)

        check_every_layer()
        for _ in range(4):
            model.decode_step(9, cloned.kvcache,
                              lambda layer, q, c: policy.select(layer, q, c))
            policy.on_decode_step(cloned.kvcache)
        check_every_layer()

    def test_assemble_empty_and_repeated_middle(self, budget, tiny_config, prefill):
        policy = StreamingLLMPolicy(budget)
        _prepare(policy, tiny_config, prefill)
        heads = tiny_config.num_kv_heads
        empty = [np.empty(0, dtype=np.int64)] * heads
        # unsorted, one index twice, one inside the local window and one
        # inside the initial segment; a shorter row for the last head
        repeated = [np.array([90, 31, 90, 158, 2, 47])] * (heads - 1) + [np.array([31, 31])]
        for seq_len, middle in ((160, empty), (160, repeated), (12, empty), (0, empty)):
            segments = budget.segments(seq_len)
            self._assert_same(
                policy._assemble(middle, segments), self._reference(middle, segments)
            )


class TestFullAndOracle:
    def test_full_returns_none(self, budget, tiny_config, prefill, decode_query):
        policy = FullAttentionPolicy(budget)
        cloned = _prepare(policy, tiny_config, prefill)
        assert policy.select(0, decode_query, cloned.kvcache) is None

    def test_oracle_selects_exact_topk(self, budget, tiny_config, prefill, rng):
        policy = OracleTopKPolicy(budget)
        cloned = _prepare(policy, tiny_config, prefill)
        layer_cache = cloned.kvcache[0]
        query = rng.normal(size=(tiny_config.num_heads, tiny_config.head_dim))
        selected = policy.select(0, query, cloned.kvcache)
        segments = budget.segments(len(layer_cache))
        k = budget.middle_budget(policy.prompt_len)
        kv_query = query.reshape(tiny_config.num_kv_heads, -1,
                                 tiny_config.head_dim).mean(axis=1)
        for head in range(tiny_config.num_kv_heads):
            middle = segments.middle_indices
            scores = layer_cache.keys[head, middle, :] @ kv_query[head]
            expected = set(middle[np.argsort(-scores)[:k]].tolist())
            chosen_middle = set(selected[head].tolist()) & set(middle.tolist())
            assert chosen_middle == expected


class TestDroppingPolicies:
    def test_streaming_keeps_only_sink_and_local(self, budget, tiny_config, prefill,
                                                 decode_query):
        policy = StreamingLLMPolicy(budget)
        cloned = _prepare(policy, tiny_config, prefill)
        selected = policy.select(0, decode_query, cloned.kvcache)
        segments = budget.segments(cloned.kvcache.seq_len)
        expected = set(segments.initial_indices.tolist()) | set(
            segments.local_indices.tolist()
        )
        for per_head in selected:
            assert set(per_head.tolist()) == expected

    def test_h2o_selection_is_static_per_layer(self, budget, tiny_config, prefill,
                                               decode_query, rng):
        policy = H2OPolicy(budget, compensated=False)
        cloned = _prepare(policy, tiny_config, prefill)
        first = policy.select(0, decode_query, cloned.kvcache)
        other_query = rng.normal(size=decode_query.shape)
        second = policy.select(0, other_query, cloned.kvcache)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_h2o_compensation_increases_budget(self, tiny_config, prefill, decode_query):
        budget = SelectionBudget(token_ratio=0.1, comm_ratio=1 / 16, num_initial=2,
                                 num_local=8)
        plain = H2OPolicy(budget, compensated=False)
        comp = H2OPolicy(budget, compensated=True)
        c1 = _prepare(plain, tiny_config, prefill)
        c2 = _prepare(comp, tiny_config, prefill)
        plain_sel = plain.select(0, decode_query, c1.kvcache)
        comp_sel = comp.select(0, decode_query, c2.kvcache)
        assert comp_sel[0].size >= plain_sel[0].size

    def test_h2o_decode_update_keeps_budget(self, budget, tiny_config, prefill,
                                            decode_query, model):
        policy = H2OPolicy(budget)
        cloned = _prepare(policy, tiny_config, prefill)
        k = policy.budget.middle_budget(policy.prompt_len)
        for _ in range(3):
            model.decode_step(9, cloned.kvcache,
                              lambda layer, q, c: policy.select(layer, q, c))
            policy.on_decode_step(cloned.kvcache)
        for layer in range(tiny_config.num_layers):
            for head in range(tiny_config.num_kv_heads):
                retained = policy._retained[layer][head]
                assert retained.size <= k + int(
                    round(policy.prompt_len * budget.comm_ratio / 2)
                ) + 1

    def test_snapkv_prefers_window_heavy_tokens(self, budget, tiny_config, prefill,
                                                decode_query):
        policy = SnapKVPolicy(budget, compensated=False, pool_size=1)
        cloned = _prepare(policy, tiny_config, prefill)
        selected = policy.select(0, decode_query, cloned.kvcache)
        segments = budget.segments(cloned.kvcache.seq_len)
        middle = segments.middle_indices
        window = prefill.aggregates[0].window_scores[0, middle]
        k = budget.middle_budget(policy.prompt_len)
        expected = set(middle[np.argsort(-window)[:k]].tolist())
        chosen_middle = set(selected[0].tolist()) & set(middle.tolist())
        assert chosen_middle == expected

    def test_snapkv_pool_size_validation(self, budget):
        with pytest.raises(ConfigurationError):
            SnapKVPolicy(budget, pool_size=2)

    def test_pyramidkv_budgets_decay_with_depth(self, budget, tiny_config, prefill,
                                                decode_query):
        policy = PyramidKVPolicy(budget, compensated=False, decay=2.0)
        cloned = _prepare(policy, tiny_config, prefill)
        first = policy.select(0, decode_query, cloned.kvcache)
        last = policy.select(tiny_config.num_layers - 1, decode_query, cloned.kvcache)
        assert first[0].size >= last[0].size

    def test_pyramidkv_decay_validation(self, budget):
        with pytest.raises(ConfigurationError):
            PyramidKVPolicy(budget, decay=0.5)

    def test_dropping_policies_report_zero_communication(self, budget, tiny_config,
                                                         prefill):
        for cls in (H2OPolicy, SnapKVPolicy, PyramidKVPolicy, StreamingLLMPolicy):
            policy = cls(budget)
            _prepare(policy, tiny_config, prefill)
            comm = policy.step_communication_bytes(1000)
            assert comm["blocking"] == 0.0
            assert comm["overlappable"] == 0.0


class TestOffloadingPolicies:
    def test_sparq_rank_derived_from_comm_ratio(self, tiny_config, prefill,
                                                decode_query):
        budget = SelectionBudget(comm_ratio=1 / 8)
        policy = SparqPolicy(budget)
        cloned = _prepare(policy, tiny_config, prefill)
        assert policy._effective_rank() == max(int(round(tiny_config.head_dim / 8)), 1)
        selected = policy.select(0, decode_query, cloned.kvcache)
        assert len(selected) == tiny_config.num_kv_heads

    def test_sparq_more_dims_improves_agreement_with_oracle(self, tiny_config,
                                                            prefill, decode_query,
                                                            budget):
        oracle = OracleTopKPolicy(budget)
        c0 = _prepare(oracle, tiny_config, prefill)
        oracle_sel = oracle.select(0, decode_query, c0.kvcache)

        def overlap(rank):
            policy = SparqPolicy(budget, rank=rank)
            cloned = _prepare(policy, tiny_config, prefill)
            sel = policy.select(0, decode_query, cloned.kvcache)
            return np.mean([
                len(set(a.tolist()) & set(b.tolist())) / max(len(b), 1)
                for a, b in zip(sel, oracle_sel)
            ])

        assert overlap(tiny_config.head_dim) >= overlap(1) - 1e-9

    def test_sparq_communication_scales_with_sequence(self, budget, tiny_config,
                                                      prefill):
        policy = SparqPolicy(budget)
        _prepare(policy, tiny_config, prefill)
        short = policy.step_communication_bytes(1000)["blocking"]
        long = policy.step_communication_bytes(10000)["blocking"]
        assert long > short

    def test_infllm_selects_whole_blocks(self, tiny_config, prefill, decode_query):
        budget = SelectionBudget(token_ratio=0.3, num_initial=4, num_local=16)
        policy = InfLLMPolicy(budget, block_size=16)
        cloned = _prepare(policy, tiny_config, prefill)
        selected = policy.select(0, decode_query, cloned.kvcache)
        segments = budget.segments(cloned.kvcache.seq_len)
        middle = set(segments.middle_indices.tolist())
        chosen_middle = sorted(set(selected[0].tolist()) & middle)
        assert chosen_middle, "InfLLM should select some middle tokens"
        # Block-level fetching means the chosen middle tokens form only a few
        # contiguous runs (one per fetched block), not scattered singletons.
        runs = 1 + sum(
            1 for a, b in zip(chosen_middle, chosen_middle[1:]) if b != a + 1
        )
        max_blocks = int(np.ceil(budget.middle_budget(policy.prompt_len) / 16)) + 1
        assert runs <= max_blocks

    def test_infllm_block_size_validation(self, budget):
        with pytest.raises(ConfigurationError):
            InfLLMPolicy(budget, block_size=0)

    def test_infllm_communication_split(self, budget, tiny_config, prefill):
        policy = InfLLMPolicy(budget)
        _prepare(policy, tiny_config, prefill)
        comm = policy.step_communication_bytes(2000)
        assert comm["overlappable"] > 0
        assert comm["blocking"] > 0


class TestPQCachePolicy:
    def test_builds_manager_on_prefill(self, budget, tiny_config, prefill):
        policy = PQCachePolicy(budget, pq_config=PQCacheConfig(num_bits=4,
                                                               max_kmeans_iters=4))
        _prepare(policy, tiny_config, prefill)
        assert policy.manager is not None
        assert policy.manager.is_built

    def test_selection_close_to_oracle(self, tiny_config, prefill, decode_query):
        budget = SelectionBudget(token_ratio=0.3, num_initial=4, num_local=16)
        oracle = OracleTopKPolicy(budget)
        pqc = PQCachePolicy(budget, pq_config=PQCacheConfig(num_partitions=4,
                                                            num_bits=6,
                                                            max_kmeans_iters=15,
                                                            gpu_cache_tokens=0))
        c0 = _prepare(oracle, tiny_config, prefill)
        c1 = _prepare(pqc, tiny_config, prefill)
        oracle_sel = oracle.select(0, decode_query, c0.kvcache)
        pq_sel = pqc.select(0, decode_query, c1.kvcache)
        overlaps = [
            len(set(a.tolist()) & set(b.tolist())) / max(len(b), 1)
            for a, b in zip(pq_sel, oracle_sel)
        ]
        assert np.mean(overlaps) > 0.5

    def test_decode_step_encodes_evicted_tokens(self, tiny_config, prefill, model):
        # Small local window so generated tokens leave it (and must be PQ
        # encoded) after only a few decode steps.
        budget = SelectionBudget(token_ratio=0.2, num_initial=4, num_local=4)
        policy = PQCachePolicy(budget, pq_config=PQCacheConfig(num_bits=4,
                                                               max_kmeans_iters=2,
                                                               gpu_cache_tokens=0))
        cloned = _prepare(policy, tiny_config, prefill)
        before = policy.manager.num_codes(0)
        steps = 6
        for _ in range(steps):
            model.decode_step(11, cloned.kvcache,
                              lambda layer, q, c: policy.select(layer, q, c))
            policy.on_decode_step(cloned.kvcache)
        # After `steps` steps the middle segment ends at prompt_len + steps -
        # num_local, so exactly (steps - num_local) new tokens were encoded.
        assert policy.manager.num_codes(0) == before + steps - budget.num_local

    def test_gpu_cache_records_traffic(self, budget, tiny_config, prefill,
                                       decode_query):
        policy = PQCachePolicy(budget, pq_config=PQCacheConfig(num_bits=4,
                                                               max_kmeans_iters=2,
                                                               gpu_cache_tokens=256))
        cloned = _prepare(policy, tiny_config, prefill)
        policy.select(0, decode_query, cloned.kvcache)
        assert policy.manager.gpu_cache.stats.lookups == 1

    def test_communication_reports_pq_codes(self, budget, tiny_config, prefill):
        policy = PQCachePolicy(budget)
        _prepare(policy, tiny_config, prefill)
        comm = policy.step_communication_bytes(2000)
        assert comm["overlappable"] > 0
        assert comm["blocking"] > 0

    def test_blocking_bytes_use_per_step_hit_rate(self, budget, tiny_config,
                                                  prefill, decode_query):
        """Regression: blocking bytes were scaled by the *cumulative* hit
        rate, so a cold first step leaked into every later estimate (and
        vice versa).  They must follow the current step's hit/miss split,
        aggregated over every layer's retrieval of that step (a layer-0
        select opens a new step)."""
        policy = PQCachePolicy(budget, pq_config=PQCacheConfig(num_bits=4,
                                                               max_kmeans_iters=2,
                                                               gpu_cache_tokens=4096))
        cloned = _prepare(policy, tiny_config, prefill)
        seq_len = cloned.kvcache.seq_len
        unscaled = policy.manager.step_communication_bytes(
            seq_len, budget.middle_budget(policy.prompt_len))["blocking"]

        # Step 1: layer 0 is cold (all misses), layer 1 re-fetches the same
        # working set and mostly hits — the step rate aggregates both.
        policy.select(0, decode_query, cloned.kvcache)
        after_layer0 = policy.manager.gpu_cache.stats.step_hit_rate
        assert after_layer0 == 0.0
        policy.select(1, decode_query, cloned.kvcache)
        step1_rate = policy.manager.gpu_cache.stats.step_hit_rate
        assert 0.0 < step1_rate < 1.0
        step1 = policy.step_communication_bytes(seq_len)["blocking"]
        assert step1 == pytest.approx(unscaled * (1.0 - step1_rate))

        # Step 2: layer 0 resets the step counters; everything now hits, so
        # blocking traffic drops to zero even though the cumulative rate
        # (kept for reporting) remembers step 1's misses.
        policy.select(0, decode_query, cloned.kvcache)
        policy.select(1, decode_query, cloned.kvcache)
        warm = policy.step_communication_bytes(seq_len)["blocking"]
        assert warm == 0.0
        assert 0.0 < policy.manager.gpu_cache.stats.hit_rate < 1.0

    def test_step_cache_hit_rate(self, budget, tiny_config, prefill, decode_query):
        """What the engine bills TPOT with: 0.0 for policies without a GPU
        cache (the base default), before prefill, before the first lookup
        and with the cache disabled; the block cache's per-step rate after."""
        assert H2OPolicy(budget).step_cache_hit_rate() == 0.0
        disabled = PQCachePolicy(budget, pq_config=PQCacheConfig(
            num_bits=4, max_kmeans_iters=2, gpu_cache_tokens=0))
        policy = PQCachePolicy(budget, pq_config=PQCacheConfig(
            num_bits=4, max_kmeans_iters=2, gpu_cache_tokens=4096))
        assert policy.step_cache_hit_rate() == 0.0
        for each in (disabled, policy):
            cloned = _prepare(each, tiny_config, prefill)
            assert each.step_cache_hit_rate() == 0.0
            each.select(0, decode_query, cloned.kvcache)
            each.select(1, decode_query, cloned.kvcache)
        assert disabled.step_cache_hit_rate() == 0.0
        rate = policy.step_cache_hit_rate()
        assert isinstance(rate, float) and 0.0 < rate < 1.0
        assert rate == policy.manager.gpu_cache.stats.step_hit_rate

    def test_refresh_bills_only_its_own_iterations(self, tiny_config, prefill):
        """A refresh right after ``finish_prefill``, with no select between
        them, bills the refresh's Lloyd iterations and none of the prefill
        refine's, which nothing has collected when the refresh starts."""
        budget = SelectionBudget(token_ratio=0.2, num_initial=4, num_local=4)
        config = PQCacheConfig(num_bits=4, max_kmeans_iters=3, gpu_cache_tokens=0)

        def prefilled(refresh_every):
            policy = PQCachePolicy(budget, pq_config=config, sketch_tokens=64,
                                   refresh_every=refresh_every)
            owned = copy.deepcopy(prefill)
            policy.on_prefill_chunk(tiny_config, owned.kvcache, 0, owned.seq_len,
                                    owned.seq_len)
            policy.finish_prefill(tiny_config, owned)
            return policy, owned

        reference, _ = prefilled(None)
        prefill_iterations = reference.manager.total_kmeans_iterations
        policy, owned = prefilled(1)
        rng = np.random.default_rng(0)
        shape = (tiny_config.num_kv_heads, 1, tiny_config.head_dim)
        for layer in range(tiny_config.num_layers):
            owned.kvcache[layer].append(rng.normal(size=shape), rng.normal(size=shape))
        policy.on_decode_step(owned.kvcache)
        billed = policy.consume_maintenance()
        refresh_iterations = policy.manager.total_kmeans_iterations - prefill_iterations
        jobs = tiny_config.num_layers * tiny_config.num_kv_heads * config.num_partitions
        assert billed["kind"] == "pq_refresh" and refresh_iterations > 0
        assert billed["iterations"] == refresh_iterations / jobs

    def test_describe_includes_pq_settings(self, budget):
        policy = PQCachePolicy(budget, pq_config=PQCacheConfig(num_partitions=4,
                                                               num_bits=8))
        info = policy.describe()
        assert info["pq_partitions"] == 4
        assert info["pq_bits"] == 8


class TestRegistry:
    def test_all_names_buildable(self, budget):
        for name in POLICY_NAMES:
            policy = build_policy(name, budget)
            assert policy.budget is budget

    def test_unknown_name(self, budget):
        with pytest.raises(ConfigurationError):
            build_policy("does-not-exist", budget)

    def test_default_suite_composition(self, budget):
        suite = default_policy_suite(budget)
        assert list(suite) == ["full", "oracle", "h2o(c)", "snapkv(c)",
                               "pyramidkv(c)", "infllm", "sparq", "pqcache"]

    def test_suite_without_references(self, budget):
        suite = default_policy_suite(budget, include_full=False, include_oracle=False)
        assert "full" not in suite and "oracle" not in suite
