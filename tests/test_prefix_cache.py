"""Shared-prefix cache: matching, collisions, eviction, and engine reuse.

The headline property tested here is the tentpole acceptance criterion:
decode outputs are **byte-identical** between a request served cold and the
same request served through a prefix-cache hit — per policy, including the
PQ-artifact reuse path and the aggregate-snapshot resume path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import SelectionBudget
from repro.baselines.pqcache_policy import PQCachePolicy
from repro.core.pqcache import PQCacheConfig
from repro.errors import CapacityError, ConfigurationError
from repro.llm import ModelConfig, TransformerLM
from repro.llm.kvcache import BlockAllocator, PagedKVCache, SwapSpace
from repro.serve import (
    InferenceEngine,
    PolicySpec,
    PrefixCache,
    Request,
    SamplingParams,
    SchedulerConfig,
)


@pytest.fixture(scope="module")
def small_model():
    config = ModelConfig(
        num_layers=2, hidden_dim=64, num_heads=4, num_kv_heads=2,
        ffn_dim=128, vocab_size=256, name="prefix-test",
    )
    return TransformerLM(config, seed=3)


@pytest.fixture(scope="module")
def prompt():
    rng = np.random.default_rng(11)
    return rng.integers(4, 256, size=700).tolist()


def _engine(model, chunk=256, caching=True, **kwargs):
    return InferenceEngine(
        model,
        scheduler_config=SchedulerConfig(max_prefill_chunk_tokens=chunk),
        enable_prefix_caching=caching,
        **kwargs,
    )


def _serve(engine, prompt, policy_name, max_new_tokens=6):
    spec = None
    if policy_name is not None:
        budget = SelectionBudget(token_ratio=0.25, num_initial=4, num_local=16)
        spec = PolicySpec.named(policy_name, budget)
    rid = engine.submit(
        Request(
            prompt_ids=list(prompt),
            sampling=SamplingParams(max_new_tokens=max_new_tokens),
            policy_spec=spec,
        )
    )
    return engine.run()[rid]


# --------------------------------------------------------- cache unit tests


class TestPrefixCacheUnit:
    def _fill(self, alloc, tokens):
        """Write a token-length chain of dummy KV and return the paged cache."""
        paged = PagedKVCache(alloc)
        h_kv, d_h = alloc.num_kv_heads, alloc.head_dim
        for layer in range(alloc.num_layers):
            keys = np.full((h_kv, len(tokens), d_h), float(layer + 1))
            paged[layer].append(keys, keys)
        return paged

    def test_insert_then_match_longest_prefix(self):
        alloc = BlockAllocator(1, 1, 4, block_size=4)
        cache = PrefixCache(SwapSpace(alloc))
        tokens = list(range(100, 110))  # 2 full blocks + 2 spare tokens
        paged = self._fill(alloc, tokens)
        assert cache.insert(tokens, paged.table.block_ids) == 2

        match = cache.match(tokens)
        assert match is not None and match.matched_tokens == 8
        assert match.block_ids == paged.table.block_ids[:2]
        # Diverging after the first block matches only that block.
        other = tokens[:4] + [0, 0, 0, 0]
        match = cache.match(other)
        assert match is not None and match.matched_tokens == 4
        assert cache.match([1, 2, 3, 4]) is None
        assert cache.stats.hits == 2 and cache.stats.queries == 3

    def test_hash_collision_falls_back_to_miss(self):
        alloc = BlockAllocator(1, 1, 4, block_size=4)
        cache = PrefixCache(SwapSpace(alloc), hash_fn=lambda parent, tokens: b"same")
        first = [1, 2, 3, 4]
        second = [9, 9, 9, 9]
        paged = self._fill(alloc, first)
        cache.insert(first, paged.table.block_ids)
        # The colliding chain cannot be cached (slot taken) ...
        paged2 = self._fill(alloc, second)
        assert cache.insert(second, paged2.table.block_ids) == 0
        # ... and its lookup is a verified miss, not a silent wrong hit.
        assert cache.match(second) is None
        assert cache.match(first).matched_tokens == 4
        assert cache.stats.collisions >= 2

    def test_eviction_frees_lru_leaves_only(self):
        alloc = BlockAllocator(1, 1, 4, block_size=4)
        cache = PrefixCache(SwapSpace(alloc, disk_capacity_blocks=0))
        paged = self._fill(alloc, list(range(8)))
        cache.insert(list(range(8)), paged.table.block_ids)
        paged.release()  # only the cache references the chain now
        assert alloc.num_allocated == 2
        # One block: evicts the chain tail (a leaf), never the root first.
        assert cache.evict(1) == 1
        assert cache.match(list(range(8))).matched_tokens == 4
        assert cache.evict(10) == 1  # the root became a leaf
        assert cache.match(list(range(8))) is None
        assert alloc.num_allocated == 0

    def test_eviction_skips_blocks_held_by_requests(self):
        alloc = BlockAllocator(1, 1, 4, block_size=4)
        cache = PrefixCache(SwapSpace(alloc, disk_capacity_blocks=0))
        paged = self._fill(alloc, list(range(4)))
        cache.insert(list(range(4)), paged.table.block_ids)
        assert cache.evict(1) == 0  # the request still holds the block
        paged.release()
        assert cache.evict(1) == 1

    def test_pool_exhaustion_mid_admission_evicts_cached_chain(self, small_model):
        """An admission that outgrows the pool reclaims cold cached blocks."""
        engine = _engine(
            small_model, chunk=None, caching=True,
            kv_block_size=32, kv_pool_blocks=8,
        )
        rng = np.random.default_rng(5)
        first = rng.integers(4, 256, size=128).tolist()   # 4 blocks
        out = _serve(engine, first, None, max_new_tokens=2)
        engine.release(out.request_id)  # blocks now held by the cache only
        assert len(engine.prefix_cache) > 0
        # A different prompt needing 7 blocks (+1 for decode) forces
        # eviction of the cold cached chain mid-admission.
        second = rng.integers(4, 256, size=224).tolist()
        out2 = _serve(engine, second, None, max_new_tokens=2)
        assert out2.finished
        # With the disk spill tier (default) the cold chain is demoted, not
        # dropped: the pool blocks come back either way.
        stats = engine.prefix_cache.stats
        assert stats.evicted_blocks + stats.spilled_blocks > 0
        # With everything pinned (no release), the same pressure is fatal.
        third = rng.integers(4, 256, size=256).tolist()
        with pytest.raises(CapacityError):
            _serve(engine, third, None, max_new_tokens=2)

    def test_insert_rejects_misaligned_acc_boundary(self):
        alloc = BlockAllocator(1, 1, 4, block_size=4)
        cache = PrefixCache(SwapSpace(alloc))
        paged = self._fill(alloc, list(range(8)))
        with pytest.raises(ConfigurationError):
            cache.insert(
                list(range(8)), paged.table.block_ids,
                acc_boundary=3, acc_scores=[np.zeros((1, 3))],
            )


# ----------------------------------------------- engine byte-identity tests


class TestEngineByteIdentity:
    """Cold vs prefix-cache-hit decode outputs, asserted per policy."""

    @pytest.mark.parametrize(
        "policy_name", [None, "pqcache", "snapkv", "h2o", "sparq"]
    )
    def test_warm_equals_cold(self, small_model, prompt, policy_name):
        engine = _engine(small_model)
        cold = _serve(engine, prompt, policy_name)
        warm = _serve(engine, prompt, policy_name)
        assert warm.metrics.cached_prefix_tokens > 0, "expected a cache hit"
        assert warm.token_ids == cold.token_ids
        assert np.array_equal(warm.logits, cold.logits)
        # And both equal an engine that has no prefix cache at all.
        plain = _serve(_engine(small_model, caching=False), prompt, policy_name)
        assert plain.token_ids == cold.token_ids
        assert np.array_equal(plain.logits, cold.logits)

    def test_pqcache_artifacts_are_attached_not_recomputed(
        self, small_model, prompt
    ):
        engine = _engine(small_model)
        _serve(engine, prompt, "pqcache")
        budget = SelectionBudget(token_ratio=0.25, num_initial=4, num_local=16)
        policy = PQCachePolicy(budget, PQCacheConfig())
        engine.submit(
            Request(
                prompt_ids=list(prompt),
                sampling=SamplingParams(max_new_tokens=4),
                policy_spec=PolicySpec.from_instance(policy),
            )
        )
        engine.run()
        # The warm policy attached the producer's snapshot: the sketch fit
        # was skipped, so no from-scratch k-means iterations were spent
        # before the final refinement.
        assert policy.manager is not None
        assert policy.manager.sketch_upto > 0

    def test_unchunked_engine_also_reuses(self, small_model, prompt):
        engine = _engine(small_model, chunk=None)
        cold = _serve(engine, prompt, "pqcache")
        warm = _serve(engine, prompt, "pqcache")
        assert warm.metrics.cached_prefix_tokens > 0
        assert warm.token_ids == cold.token_ids
        assert np.array_equal(warm.logits, cold.logits)

    def test_extension_prompt_attach_matches_cold(self, small_model, prompt):
        """Producer prompt is a strict prefix of the consumer's (unchunked).

        The PQ sketch is fitted at a schedule-independent boundary (exactly
        ``sketch_tokens``), so the attached snapshot equals what the
        consumer's own cold pipeline would have built — even though producer
        and consumer prefill with different chunk shapes.
        """
        extended = list(prompt) + list(prompt[:256])
        warm_engine = _engine(small_model, chunk=None)
        _serve(warm_engine, prompt, "pqcache")
        warm = _serve(warm_engine, extended, "pqcache")
        cold = _serve(_engine(small_model, chunk=None), extended, "pqcache")
        assert warm.metrics.cached_prefix_tokens >= 640
        assert warm.token_ids == cold.token_ids
        assert np.array_equal(warm.logits, cold.logits)

    def test_partially_shared_prompt(self, small_model, prompt):
        """Divergence mid-prompt: reuse covers only the shared blocks."""
        engine = _engine(small_model)
        _serve(engine, prompt, "pqcache")
        forked = list(prompt)
        forked[400:] = np.random.default_rng(9).integers(
            4, 256, size=len(prompt) - 400
        ).tolist()
        cold = _serve(_engine(small_model), forked, "pqcache")
        warm = _serve(engine, forked, "pqcache")
        assert 0 < warm.metrics.cached_prefix_tokens <= 400
        assert warm.token_ids == cold.token_ids
        assert np.array_equal(warm.logits, cold.logits)


# ------------------------------------------------------- multi-turn serving


class TestMultiTurnServing:
    @pytest.mark.parametrize("policy_name", ["pqcache", "snapkv", None])
    def test_turns_reuse_prompt_blocks_only(self, small_model, policy_name):
        """Each turn reuses blocks of the previous turn's prompt and nothing
        past it: the previous answer's decoded KV is never cached.  An
        aggregate-free policy (PQCache) reuses every full prompt block; the
        others resume at an accumulated-score boundary at or before it."""
        rng = np.random.default_rng(21)
        engine = _engine(small_model, kv_block_size=16)
        history = rng.integers(4, 256, size=640).tolist()
        prompts, hit_tokens = [], []
        for _ in range(3):
            prompt = history + rng.integers(4, 256, size=40).tolist()
            out = _serve(engine, prompt, policy_name, max_new_tokens=20)
            prompts.append(prompt)
            hit_tokens.append(out.metrics.cached_prefix_tokens)
            history = prompt + out.token_ids
        assert hit_tokens[0] == 0
        for previous, hit in zip(prompts, hit_tokens[1:]):
            assert hit % 16 == 0 and 0 < hit <= len(previous)
            if policy_name == "pqcache":
                assert hit == len(previous) // 16 * 16
        assert engine.metrics.prefix_cache_hit_tokens == sum(hit_tokens)

    @pytest.mark.parametrize("policy_name", ["pqcache", "snapkv"])
    def test_default_multiturn_stays_byte_identical(
        self, small_model, policy_name
    ):
        """Turn 2 embedding turn 1's answer: warm == cold.

        Decoded blocks are never cached, so the warm turn-2 request reuses
        only the turn-1 *prompt* region — whose KV a cold prefill reproduces
        bit-for-bit — never the policy-dependent decoded region, and the
        outputs must match a cold engine exactly.
        """
        rng = np.random.default_rng(33)
        prompt_1 = rng.integers(4, 256, size=304).tolist()
        engine = _engine(small_model, kv_block_size=16)
        out_1 = _serve(engine, prompt_1, policy_name, max_new_tokens=20)
        prompt_2 = (
            prompt_1 + out_1.token_ids + rng.integers(4, 256, size=40).tolist()
        )
        warm = _serve(engine, prompt_2, policy_name, max_new_tokens=8)
        cold = _serve(
            _engine(small_model, caching=False), prompt_2, policy_name,
            max_new_tokens=8,
        )
        assert 0 < warm.metrics.cached_prefix_tokens <= len(prompt_1)
        assert warm.token_ids == cold.token_ids
        assert np.array_equal(warm.logits, cold.logits)

    def test_release_and_trim_return_blocks(self, small_model):
        engine = _engine(small_model, kv_block_size=32, max_retained_outputs=1)
        rng = np.random.default_rng(2)
        alloc = engine.block_allocator
        for _ in range(3):
            _serve(
                engine, rng.integers(4, 256, size=96).tolist(), None,
                max_new_tokens=2,
            )
        # Only one retained output pins blocks beyond the cache's own refs:
        # every block is referenced by the cache and at most one request.
        for node_blocks in [engine.prefix_cache]:
            assert len(node_blocks) > 0
        for block_id in list(alloc._refcounts):
            assert alloc.refcount(block_id) <= 2

    def test_abort_mid_prefill_releases_blocks(self, small_model, prompt):
        engine = _engine(small_model, chunk=128)
        rid = engine.submit(
            Request(
                prompt_ids=list(prompt),
                sampling=SamplingParams(max_new_tokens=2),
            )
        )
        engine.step()  # admission + first chunk only
        in_use = engine.block_allocator.num_allocated
        assert in_use > 0
        engine.abort(rid)
        assert engine.block_allocator.num_allocated == 0


# ------------------------------------------------------------- PQ snapshots


class TestPQSnapshotSemantics:
    def test_snapshot_is_immune_to_producer_refine_and_appends(
        self, small_model, prompt
    ):
        """COW: the cached snapshot must not change under the producer."""
        engine = _engine(small_model)
        _serve(engine, prompt, "pqcache", max_new_tokens=24)
        match = engine.prefix_cache.match(
            prompt, ("pqcache", PQCacheConfig(), 256)
        )
        assert match is not None and match.pq_snapshot is not None
        snap = match.pq_snapshot
        codes_before = [c.copy() for c in snap.codes]
        codebooks_before = [c.copy() for c in snap.codebooks]
        # Serve more traffic through the same chain (attach + refine + decode
        # appends on the consumer side, refine + appends happened on the
        # producer side already).
        _serve(engine, prompt, "pqcache", max_new_tokens=24)
        for before, after in zip(codes_before, snap.codes):
            assert np.array_equal(before, after)
        for before, after in zip(codebooks_before, snap.codebooks):
            assert np.array_equal(before, after)
        assert snap.total_attaches >= 1

    def test_snapshot_refcounting_balanced_by_engine(self, small_model, prompt):
        """Every attach is released at request teardown: no live refs leak."""
        engine = _engine(small_model)
        _serve(engine, prompt, "pqcache")
        match = engine.prefix_cache.match(
            prompt, ("pqcache", PQCacheConfig(), 256)
        )
        snap = match.pq_snapshot
        total = snap.total_attaches
        _serve(engine, prompt, "pqcache")
        assert snap.total_attaches == total + 1
        assert snap.attach_count == 0  # released when the request finished
        with pytest.raises(ConfigurationError):
            snap.release()  # unbalanced release is a caller bug

    def test_shallow_foreign_snapshot_cannot_poison_consumer(self, small_model):
        """Regression: a snapshot found on a shallow node must be clamped.

        Producer A shares only one block with the consumer and then
        diverges for hundreds of tokens — its (long) pre-refine snapshot
        lands on the shared depth-1 node.  Producer B shares three blocks.
        The match must never prefer A's snapshot just because it is longer:
        its codes beyond the first block encode A's diverging suffix, and
        adopting them would silently corrupt the consumer's PQ index.  The
        consumer's decode output must stay byte-identical to a cold run.
        """
        rng = np.random.default_rng(17)
        shared = rng.integers(4, 256, size=192).tolist()
        producer_a = shared[:64] + rng.integers(4, 256, size=260).tolist()
        producer_b = shared[:192] + rng.integers(4, 256, size=40).tolist()
        consumer = shared[:192] + rng.integers(4, 256, size=80).tolist()

        def spec():
            budget = SelectionBudget(token_ratio=0.25, num_initial=4, num_local=16)
            return PolicySpec.named("pqcache", budget, sketch_tokens=64)

        def serve(engine, prompt):
            rid = engine.submit(Request(
                prompt_ids=list(prompt),
                sampling=SamplingParams(max_new_tokens=6),
                policy_spec=spec(),
            ))
            return engine.run()[rid]

        cold = serve(_engine(small_model), consumer)
        engine = _engine(small_model)
        serve(engine, producer_a)
        serve(engine, producer_b)
        warm = serve(engine, consumer)
        assert warm.metrics.cached_prefix_tokens == 192
        assert warm.token_ids == cold.token_ids
        assert np.array_equal(warm.logits, cold.logits)
