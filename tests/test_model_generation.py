"""Tests for the transformer substrate, tokenizer and generation through the
serving engine."""

import numpy as np
import pytest

from repro.baselines import FullAttentionPolicy, OracleTopKPolicy, SelectionBudget
from repro.errors import ConfigurationError
from repro.llm import ModelConfig, SimpleTokenizer, TransformerLM
from repro.serve import InferenceEngine, PolicySpec, Request, SamplingParams


class TestPrefill:
    def test_cache_filled_for_every_layer(self, model, prefill, prompt_ids, tiny_config):
        assert prefill.seq_len == len(prompt_ids)
        for layer in range(tiny_config.num_layers):
            assert len(prefill.kvcache[layer]) == len(prompt_ids)
            assert prefill.kvcache[layer].keys.shape == (
                tiny_config.num_kv_heads, len(prompt_ids), tiny_config.head_dim
            )

    def test_logits_shape(self, prefill, tiny_config):
        assert prefill.logits.shape == (tiny_config.vocab_size,)

    def test_aggregates_shape(self, prefill, tiny_config, prompt_ids):
        assert len(prefill.aggregates) == tiny_config.num_layers
        agg = prefill.aggregates[0]
        assert agg.accumulated_scores.shape == (tiny_config.num_kv_heads, len(prompt_ids))
        assert agg.window_scores.shape == (tiny_config.num_kv_heads, len(prompt_ids))
        assert agg.observation_window == 16

    def test_accumulated_scores_sum_to_query_count(self, prefill, prompt_ids):
        """Each prompt query contributes a probability row summing to 1, so the
        per-head accumulated column sums must total the number of queries."""
        acc = prefill.aggregates[0].accumulated_scores
        assert np.allclose(acc.sum(axis=-1), len(prompt_ids), rtol=1e-6)

    def test_window_scores_sum_to_window(self, prefill):
        win = prefill.aggregates[0].window_scores
        assert np.allclose(win.sum(axis=-1), 16, rtol=1e-6)

    def test_chunk_size_does_not_change_results(self, model, prompt_ids):
        small = model.prefill(prompt_ids[:64], chunk_size=16)
        large = model.prefill(prompt_ids[:64], chunk_size=1024)
        assert np.allclose(small.logits, large.logits)
        assert np.allclose(small.aggregates[0].accumulated_scores,
                           large.aggregates[0].accumulated_scores)

    def test_collect_queries(self, model, prompt_ids, tiny_config):
        result = model.prefill(prompt_ids[:32], collect_queries=True)
        assert len(result.prompt_queries) == tiny_config.num_layers
        assert result.prompt_queries[0].shape == (tiny_config.num_heads, 32,
                                                  tiny_config.head_dim)

    def test_empty_prompt_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.prefill([])

    def test_deterministic(self, tiny_config, prompt_ids):
        a = TransformerLM(tiny_config, seed=3).prefill(prompt_ids[:40])
        b = TransformerLM(tiny_config, seed=3).prefill(prompt_ids[:40])
        assert np.allclose(a.logits, b.logits)

    def test_different_seeds_differ(self, tiny_config, prompt_ids):
        a = TransformerLM(tiny_config, seed=1).prefill(prompt_ids[:40])
        b = TransformerLM(tiny_config, seed=2).prefill(prompt_ids[:40])
        assert not np.allclose(a.logits, b.logits)


class TestDecodeStep:
    def test_appends_to_cache(self, model, prompt_ids, tiny_config):
        result = model.prefill(prompt_ids[:40])
        model.decode_step(5, result.kvcache)
        assert result.kvcache.seq_len == 41

    def test_full_selector_equivalent_to_none(self, model, prompt_ids, tiny_config):
        a = model.prefill(prompt_ids[:40])
        b = model.prefill(prompt_ids[:40])
        all_tokens = lambda layer, query, cache: None
        explicit = lambda layer, query, cache: [
            np.arange(len(cache[layer]), dtype=np.int64)
        ] * tiny_config.num_kv_heads
        logits_a = model.decode_step(7, a.kvcache, all_tokens)
        logits_b = model.decode_step(7, b.kvcache, explicit)
        assert np.allclose(logits_a, logits_b)

    def test_selective_attention_changes_logits(self, model, prompt_ids, tiny_config):
        a = model.prefill(prompt_ids[:60])
        b = model.prefill(prompt_ids[:60])
        restricted = lambda layer, query, cache: np.arange(5, dtype=np.int64)
        full_logits = model.decode_step(7, a.kvcache, None)
        restricted_logits = model.decode_step(7, b.kvcache, restricted)
        assert not np.allclose(full_logits, restricted_logits)


class TestQkCoupling:
    def test_coupling_validated(self, tiny_config):
        with pytest.raises(ConfigurationError):
            TransformerLM(tiny_config, qk_coupling=1.5)

    def test_coupling_creates_matching_attention(self, tiny_config):
        """With full QK coupling, a repeated token's key must score higher
        against the same token's query than random tokens do."""
        model = TransformerLM(tiny_config, seed=0, qk_coupling=1.0, rope_base=1e6)
        rng = np.random.default_rng(0)
        prompt = rng.integers(4, tiny_config.vocab_size, size=100).tolist()
        target = prompt[50]
        result = model.prefill(prompt + [target], collect_queries=True)
        queries = result.prompt_queries[0]
        kv_query = queries[:, -1, :].reshape(tiny_config.num_kv_heads, -1,
                                             tiny_config.head_dim).mean(axis=1)
        keys = result.kvcache[0].keys
        scores = np.einsum("hd,hsd->hs", kv_query, keys)
        # Rank of the matching position among all non-final positions.
        ranks = [int((scores[h] > scores[h, 50]).sum()) for h in range(tiny_config.num_kv_heads)]
        assert min(ranks) < 10

    def test_embedding_overrides(self, tiny_config):
        override = np.ones(tiny_config.hidden_dim)
        model = TransformerLM(tiny_config, seed=0, embedding_overrides={7: override})
        assert np.allclose(model.embedding[7], override)


def generate(model, prompt_ids, max_new_tokens, policy=None, forbidden_ids=()):
    """One request alone on a fresh engine; its final output."""
    request = Request(
        prompt_ids=list(prompt_ids),
        sampling=SamplingParams(max_new_tokens=max_new_tokens,
                                forbidden_ids=tuple(forbidden_ids)),
        policy_spec=None if policy is None else PolicySpec.from_instance(policy),
    )
    return InferenceEngine(model).run([request])[request.request_id]


class TestEngineGeneration:
    def test_generates_requested_tokens(self, model, prompt_ids):
        result = generate(model, prompt_ids[:40], max_new_tokens=4)
        assert len(result.token_ids) == 4
        assert result.logits.shape[0] == 4

    def test_policy_receives_selections(self, model, prompt_ids, budget, tiny_config):
        policy = OracleTopKPolicy(budget)
        result = generate(model, prompt_ids[:80], max_new_tokens=2, policy=policy)
        assert len(result.selections) == 2
        assert len(result.selections[0]) == tiny_config.num_layers

    def test_full_policy_matches_no_policy(self, model, prompt_ids, budget):
        without = generate(model, prompt_ids[:40], max_new_tokens=3)
        with_full = generate(model, prompt_ids[:40], max_new_tokens=3,
                             policy=FullAttentionPolicy(budget))
        assert without.token_ids == with_full.token_ids

    def test_forbidden_ids_never_emitted(self, model, prompt_ids):
        forbidden = list(range(0, 256))
        result = generate(model, prompt_ids[:40], max_new_tokens=5,
                          forbidden_ids=forbidden)
        assert all(t >= 256 for t in result.token_ids)

    def test_zero_tokens_rejected(self, model, prompt_ids):
        with pytest.raises(ConfigurationError):
            generate(model, prompt_ids[:10], max_new_tokens=0)


class TestTokenizer:
    def test_roundtrip(self):
        tok = SimpleTokenizer()
        ids = tok.encode("hello world hello")
        assert ids[0] == tok.BOS
        assert tok.decode(ids) == "hello world hello"

    def test_same_word_same_id(self):
        tok = SimpleTokenizer()
        assert tok.token_id("alpha") == tok.token_id("alpha")

    def test_ids_within_vocab(self):
        tok = SimpleTokenizer(vocab_size=64)
        ids = tok.encode("a b c d e f g h i j")
        assert max(ids) < 64
        assert min(ids) >= 0

    def test_vocab_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            SimpleTokenizer(vocab_size=4, num_special=4)

    def test_decode_stops_at_eos(self):
        tok = SimpleTokenizer()
        ids = tok.encode("alpha beta") + [tok.EOS] + tok.encode("gamma", add_bos=False)
        assert "gamma" not in tok.decode(ids)
