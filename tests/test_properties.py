"""Cross-module property-based tests on the library's core invariants.

These complement the per-module unit tests with randomised checks of the
invariants the system design relies on:

* PQ scores are exactly the inner products against the reconstructed keys,
  for any configuration and data.
* Selection budgets never exceed the prompt length and always leave room for
  the reserved initial/local segments.
* Every policy's selected indices are valid, unique, and include the
  initial and local segments.
* The GPU cache never holds more blocks than its capacity, regardless of the
  access pattern.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SelectionBudget, build_policy
from repro.core import BlockGpuCache, PQConfig, ProductQuantizer
from repro.eval import clone_prefill
from repro.llm import ModelConfig, TransformerLM
from repro.utils import DTYPE


@st.composite
def pq_setup(draw):
    partitions = draw(st.sampled_from([1, 2, 4]))
    bits = draw(st.integers(2, 6))
    n = draw(st.integers(20, 120))
    seed = draw(st.integers(0, 1000))
    return partitions, bits, n, seed


class TestPQInvariants:
    @given(pq_setup())
    @settings(max_examples=15, deadline=None)
    def test_score_equals_reconstructed_inner_product(self, setup):
        partitions, bits, n, seed = setup
        rng = np.random.default_rng(seed)
        keys = rng.normal(size=(n, 16))
        pq = ProductQuantizer(PQConfig(dim=16, num_partitions=partitions,
                                       num_bits=bits, max_kmeans_iters=5, seed=0))
        codes = pq.fit(keys)
        query = rng.normal(size=16)
        recon = pq.decode(codes)
        # a float32 dot product of 16 terms: within 16 epsilons of
        # sum |q_d c_d| per key (the textbook bound; 1.1 measured)
        bound = np.abs(recon) @ np.abs(query)
        error = np.abs(pq.score(query, codes) - recon @ query)
        assert (error <= 16 * np.finfo(DTYPE).eps * bound).all()

    @given(pq_setup())
    @settings(max_examples=15, deadline=None)
    def test_codes_within_codebook_range(self, setup):
        partitions, bits, n, seed = setup
        rng = np.random.default_rng(seed)
        keys = rng.normal(size=(n, 16))
        pq = ProductQuantizer(PQConfig(dim=16, num_partitions=partitions,
                                       num_bits=bits, max_kmeans_iters=3, seed=0))
        codes = pq.fit(keys)
        assert codes.max() < (1 << bits)
        assert codes.shape == (n, partitions)


class TestBudgetInvariants:
    @given(st.floats(0.01, 1.0), st.integers(0, 16), st.integers(0, 64),
           st.integers(32, 4096))
    @settings(max_examples=50, deadline=None)
    def test_budget_bounds(self, ratio, num_initial, num_local, prompt_len):
        budget = SelectionBudget(token_ratio=ratio, num_initial=num_initial,
                                 num_local=num_local)
        total = budget.total_tokens(prompt_len)
        middle = budget.middle_budget(prompt_len)
        assert 1 <= total <= prompt_len + 1
        assert middle >= budget.min_middle
        segments = budget.segments(prompt_len)
        assert segments.initial_indices.size <= num_initial
        assert segments.local_indices.size <= num_local


class TestPolicySelectionInvariants:
    @pytest.fixture(scope="class")
    def setup(self):
        config = ModelConfig.tiny()
        model = TransformerLM(config, seed=0)
        rng = np.random.default_rng(1)
        prompt = rng.integers(4, config.vocab_size, size=120).tolist()
        prefill = model.prefill(prompt, observation_window=8)
        return config, prefill

    @given(st.sampled_from(["oracle", "h2o", "snapkv", "pyramidkv", "sparq",
                            "infllm", "pqcache", "streaming-llm"]),
           st.floats(0.05, 0.5), st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_selected_indices_always_valid(self, setup, name, ratio, qseed):
        config, prefill = setup
        budget = SelectionBudget(token_ratio=ratio, comm_ratio=1 / 64,
                                 num_initial=4, num_local=8)
        policy = build_policy(name, budget)
        owned = clone_prefill(prefill, config)
        policy.on_prefill(config, owned)
        query = np.random.default_rng(qseed).normal(
            size=(config.num_heads, config.head_dim))
        selected = policy.select(0, query, owned.kvcache)
        seq_len = owned.kvcache.seq_len
        segments = budget.segments(seq_len)
        for per_head in selected:
            assert per_head.dtype == np.int64
            assert per_head.size == np.unique(per_head).size
            if per_head.size:
                assert per_head.min() >= 0
                assert per_head.max() < seq_len
            assert set(segments.initial_indices.tolist()) <= set(per_head.tolist())
            assert set(segments.local_indices.tolist()) <= set(per_head.tolist())


class TestGpuCacheInvariants:
    @given(st.lists(st.lists(st.integers(0, 5000), min_size=1, max_size=40),
                    min_size=1, max_size=30),
           st.sampled_from(["lru", "lfu"]),
           st.integers(1, 16))
    @settings(max_examples=30, deadline=None)
    def test_capacity_never_exceeded(self, accesses, policy, capacity_blocks):
        cache = BlockGpuCache(capacity_tokens=capacity_blocks * 64, block_size=64,
                              policy=policy, k_cache_blocks=8)
        for step in accesses:
            cache.access(np.asarray(step, dtype=np.int64))
            assert len(cache) <= cache.capacity_blocks
        stats = cache.stats.as_dict()
        assert stats["lookups"] == len(accesses)
        assert 0.0 <= stats["hit_rate"] <= 1.0
