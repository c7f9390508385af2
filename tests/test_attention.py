"""Tests for the attention kernels (causal prefill + selective decode)."""

import numpy as np
import pytest

from prefill_attention_oracle import causal_attention
from repro.errors import DimensionError
from repro.llm.attention import (
    attention_scores_single_query,
    decode_attention,
    expand_kv_heads,
)
from repro.utils import softmax


class TestExpandKvHeads:
    def test_repeats_consecutively(self, rng):
        kv = rng.normal(size=(2, 3, 4))
        expanded = expand_kv_heads(kv, 2)
        assert expanded.shape == (4, 3, 4)
        assert np.allclose(expanded[0], expanded[1])
        assert np.allclose(expanded[2], expanded[3])

    def test_invalid_group(self, rng):
        with pytest.raises(DimensionError):
            expand_kv_heads(rng.normal(size=(2, 3, 4)), 0)


class TestCausalAttention:
    def test_output_shape(self, rng):
        q = rng.normal(size=(4, 6, 8))
        k = rng.normal(size=(2, 6, 8))
        v = rng.normal(size=(2, 6, 8))
        out = causal_attention(q, k, v)
        assert out.shape == (4, 6, 8)

    def test_scores_are_causal(self, rng):
        q = rng.normal(size=(2, 5, 4))
        k = rng.normal(size=(2, 5, 4))
        v = rng.normal(size=(2, 5, 4))
        _, scores = causal_attention(q, k, v, return_scores=True)
        upper = np.triu(np.ones((5, 5), dtype=bool), k=1)
        assert np.allclose(scores[:, upper], 0.0)

    def test_scores_rows_sum_to_one(self, rng):
        q = rng.normal(size=(2, 5, 4))
        k = rng.normal(size=(2, 5, 4))
        v = rng.normal(size=(2, 5, 4))
        _, scores = causal_attention(q, k, v, return_scores=True)
        assert np.allclose(scores.sum(axis=-1), 1.0)

    def test_first_token_attends_only_to_itself(self, rng):
        q = rng.normal(size=(1, 4, 4))
        k = rng.normal(size=(1, 4, 4))
        v = rng.normal(size=(1, 4, 4))
        out = causal_attention(q, k, v)
        assert np.allclose(out[0, 0], v[0, 0])

    def test_head_mismatch_rejected(self, rng):
        with pytest.raises(DimensionError):
            causal_attention(rng.normal(size=(3, 4, 4)), rng.normal(size=(2, 4, 4)),
                             rng.normal(size=(2, 4, 4)))


class TestDecodeAttention:
    def test_full_matches_manual_softmax(self, rng):
        query = rng.normal(size=(2, 4))
        keys = rng.normal(size=(1, 6, 4))
        values = rng.normal(size=(1, 6, 4))
        out = decode_attention(query, keys, values)
        for head in range(2):
            weights = softmax(keys[0] @ query[head] / 2.0)
            assert np.allclose(out[head], weights @ values[0])

    def test_selected_subset_shared(self, rng):
        query = rng.normal(size=(2, 4))
        keys = rng.normal(size=(2, 6, 4))
        values = rng.normal(size=(2, 6, 4))
        subset = np.array([0, 3, 5])
        out = decode_attention(query, keys, values, selected=subset)
        manual = decode_attention(query, keys[:, subset, :], values[:, subset, :])
        assert np.allclose(out, manual)

    def test_per_head_selection(self, rng):
        query = rng.normal(size=(4, 4))
        keys = rng.normal(size=(2, 6, 4))
        values = rng.normal(size=(2, 6, 4))
        per_head = [np.array([0, 1]), np.array([4, 5])]
        out = decode_attention(query, keys, values, selected=per_head)
        assert out.shape == (4, 4)

    def test_wrong_per_head_count(self, rng):
        with pytest.raises(DimensionError):
            decode_attention(rng.normal(size=(2, 4)), rng.normal(size=(2, 6, 4)),
                             rng.normal(size=(2, 6, 4)), selected=[np.array([0])])

    def test_empty_selection_gives_zero_output(self, rng):
        query = rng.normal(size=(2, 4))
        keys = rng.normal(size=(1, 6, 4))
        values = rng.normal(size=(1, 6, 4))
        out = decode_attention(query, keys, values,
                               selected=[np.empty(0, dtype=np.int64)])
        assert np.allclose(out, 0.0)

    def test_query_heads_not_multiple_of_kv_heads_rejected(self, rng):
        """Regression: ``h % h_kv != 0`` used to silently truncate the group
        size and ignore trailing query heads."""
        with pytest.raises(DimensionError):
            decode_attention(rng.normal(size=(5, 4)), rng.normal(size=(2, 6, 4)),
                             rng.normal(size=(2, 6, 4)))

    def test_selection_of_topk_tokens_approximates_full(self, rng):
        """Selecting the highest-scoring half of tokens should approximate the
        full-attention output better than selecting the lowest-scoring half."""
        query = rng.normal(size=(1, 8))
        keys = rng.normal(size=(1, 64, 8))
        values = rng.normal(size=(1, 64, 8))
        full = decode_attention(query, keys, values)
        scores = keys[0] @ query[0]
        order = np.argsort(-scores)
        best = decode_attention(query, keys, values, selected=order[:32])
        worst = decode_attention(query, keys, values, selected=order[32:])
        assert np.linalg.norm(best - full) < np.linalg.norm(worst - full)


class TestSingleQueryScores:
    def test_shape_and_scale(self, rng):
        query = rng.normal(size=(4, 8))
        keys = rng.normal(size=(2, 10, 8))
        logits = attention_scores_single_query(query, keys, group_size=2)
        assert logits.shape == (4, 10)
        manual = keys[0] @ query[0] / np.sqrt(8)
        assert np.allclose(logits[0], manual)

    def test_group_mismatch(self, rng):
        with pytest.raises(DimensionError):
            attention_scores_single_query(rng.normal(size=(4, 8)),
                                          rng.normal(size=(2, 10, 8)), group_size=3)

    def test_query_heads_not_multiple_of_kv_heads_rejected(self, rng):
        with pytest.raises(DimensionError):
            attention_scores_single_query(rng.normal(size=(5, 8)),
                                          rng.normal(size=(2, 10, 8)), group_size=2)
