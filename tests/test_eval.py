"""Tests for the evaluation metrics and harness."""

import numpy as np
import pytest

from repro.baselines import SelectionBudget, build_policy, sparse_prefill
from repro.baselines.sparse_prefill import SparsePrefillConfig
from repro.eval import (
    EvaluationHarness,
    StepObservation,
    attention_recall_at_k,
    evidence_coverage,
    evidence_exact,
    evidence_recovery,
    logit_divergence,
    score_step,
)
from repro.llm import ModelConfig, TokenSegments
from repro.utils import as_rng
from repro.workloads import kv_retrieval, single_fact_qa


def _make_obs(selected, seq_len=32, h_kv=2, d_h=8, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.normal(size=(h_kv, seq_len, d_h))
    queries = rng.normal(size=(h_kv, d_h))
    return StepObservation(
        layer=0,
        kv_queries=queries,
        keys=keys,
        selected=selected,
        segments=TokenSegments(seq_len=seq_len, num_initial=2, num_local=4),
    )


class TestMetrics:
    def test_full_selection_scores_one(self):
        obs = _make_obs(selected=None)
        evidence = np.array([5, 6])
        assert evidence_recovery(obs, evidence) == pytest.approx(1.0)
        assert evidence_exact(obs, evidence) == 1.0
        assert evidence_coverage(obs, evidence) == 1.0

    def test_empty_selection_scores_zero(self):
        obs = _make_obs(selected=[np.empty(0, dtype=np.int64)] * 2)
        evidence = np.array([5, 6])
        assert evidence_recovery(obs, evidence) == pytest.approx(0.0)
        assert evidence_exact(obs, evidence) == 0.0
        assert evidence_coverage(obs, evidence) == 0.0

    def test_partial_coverage(self):
        obs = _make_obs(selected=[np.array([5]), np.array([5])])
        evidence = np.array([5, 6])
        assert evidence_coverage(obs, evidence) == pytest.approx(0.5)
        assert evidence_exact(obs, evidence) == 0.0

    def test_empty_evidence_is_trivially_satisfied(self):
        obs = _make_obs(selected=[np.array([1]), np.array([2])])
        empty = np.array([], dtype=np.int64)
        assert evidence_recovery(obs, empty) == 1.0
        assert evidence_exact(obs, empty) == 1.0

    def test_union_across_heads_counts(self):
        obs = _make_obs(selected=[np.array([5]), np.array([6])])
        assert evidence_exact(obs, np.array([5, 6])) == 1.0

    def test_attention_recall_full_is_one(self):
        obs = _make_obs(selected=None)
        assert attention_recall_at_k(obs, k=5) == 1.0

    def test_attention_recall_detects_misses(self):
        obs_all = _make_obs(selected=None)
        obs_none = _make_obs(selected=[np.empty(0, dtype=np.int64)] * 2)
        assert attention_recall_at_k(obs_none, k=5) < attention_recall_at_k(obs_all, k=5)

    def test_score_step_dispatch(self):
        obs = _make_obs(selected=None)
        for metric in ("recovery", "exact", "coverage"):
            assert score_step(metric, obs, np.array([3])) == 1.0

    def test_logit_divergence(self):
        logits = np.array([1.0, 2.0, 3.0])
        assert logit_divergence(logits, logits) == pytest.approx(0.0, abs=1e-9)
        assert logit_divergence(logits[::-1], logits) > 0.0


@pytest.fixture(scope="module")
def harness():
    return EvaluationHarness(ModelConfig.tiny(), seed=0, qk_coupling=1.0)


@pytest.fixture(scope="module")
def qa_dataset():
    return single_fact_qa(num_samples=2, seq_len=320, seed=0)


class TestHarness:
    def test_full_policy_scores_100(self, harness, qa_dataset, budget):
        result = harness.evaluate(lambda: build_policy("full", budget), qa_dataset)
        assert result.score == pytest.approx(100.0)
        assert len(result.per_sample) == 2

    def test_oracle_beats_streaming(self, harness, qa_dataset, budget):
        oracle = harness.evaluate(lambda: build_policy("oracle", budget), qa_dataset)
        streaming = harness.evaluate(lambda: build_policy("streaming-llm", budget),
                                     qa_dataset)
        assert oracle.score > streaming.score

    def test_prefill_cache_reused(self, harness, qa_dataset, budget):
        harness.evaluate(lambda: build_policy("oracle", budget), qa_dataset)
        cached = len(harness._prefill_cache)
        harness.evaluate(lambda: build_policy("snapkv", budget), qa_dataset)
        assert len(harness._prefill_cache) == cached
        harness.clear_cache()
        assert len(harness._prefill_cache) == 0

    def test_evaluate_suite_has_average_row(self, harness, budget):
        datasets = [single_fact_qa(num_samples=1, seq_len=256, seed=1),
                    kv_retrieval(num_samples=1, seq_len=256, seed=2)]
        table = harness.evaluate_suite(
            {"full": lambda: build_policy("full", budget),
             "oracle": lambda: build_policy("oracle", budget)},
            datasets,
        )
        assert "average" in table
        assert table["average"]["full"] == pytest.approx(100.0)
        rendered = EvaluationHarness.format_table(table)
        assert "average" in rendered and "oracle" in rendered

    def test_recall_metric_recorded(self, harness, qa_dataset, budget):
        result = harness.evaluate(lambda: build_policy("oracle", budget), qa_dataset,
                                  recall_k=8)
        assert 0.0 <= result.attention_recall <= 1.0

    def test_layer_aggregation_mean_is_stricter(self, harness, qa_dataset, budget):
        max_agg = harness.evaluate(lambda: build_policy("pqcache", budget), qa_dataset,
                                   layer_aggregation="max")
        mean_agg = harness.evaluate(lambda: build_policy("pqcache", budget), qa_dataset,
                                    layer_aggregation="mean")
        assert mean_agg.score <= max_agg.score + 1e-9

    def test_dataset_score_as_dict(self, harness, qa_dataset, budget):
        result = harness.evaluate(lambda: build_policy("full", budget), qa_dataset)
        d = result.as_dict()
        assert d["policy"] == "full"
        assert d["num_samples"] == 2


class TestSparsePrefill:
    def test_config_validation(self):
        with pytest.raises(Exception):
            SparsePrefillConfig(sink_tokens=-1)
        cfg = SparsePrefillConfig(sink_tokens=8, local_window=32, vertical_stripes=4)
        assert 0 < cfg.kept_fraction(1024) < 1
        assert cfg.speedup(1024) > 1.0

    def test_sparse_prefill_masks_window_scores(self, tiny_config):
        from repro.llm import TransformerLM
        model = TransformerLM(tiny_config, seed=0)
        rng = np.random.default_rng(0)
        prompt = rng.integers(4, tiny_config.vocab_size, size=200).tolist()
        dense = model.prefill(prompt)
        sparse = sparse_prefill(model, prompt,
                                SparsePrefillConfig(sink_tokens=4, local_window=16,
                                                    vertical_stripes=2))
        assert sparse.seq_len == dense.seq_len
        # Outside the sparse pattern the window aggregate must be zeroed.
        zeros_sparse = (sparse.aggregates[0].window_scores == 0).sum()
        zeros_dense = (dense.aggregates[0].window_scores == 0).sum()
        assert zeros_sparse > zeros_dense

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_sparse_prefill_perturbs_keys_outside_the_pattern(
        self, model, prompt_ids, noise
    ):
        """Against a dense prefill: values bitwise equal, keys equal inside
        the sink, local and stripe pattern and moved outside it."""
        config = SparsePrefillConfig(
            sink_tokens=4, local_window=16, vertical_stripes=6,
            key_noise_scale=noise, seed=3,
        )
        dense = model.prefill(prompt_ids)
        sparse = sparse_prefill(model, prompt_ids, config)
        seq_len = len(prompt_ids)
        # The pattern, drawn as sparse_prefill draws it: sinks, the local
        # band, then the stripes from the seed's first draw.
        mask = np.zeros(seq_len, dtype=bool)
        mask[:4] = mask[-16:] = True
        mask[as_rng(3).choice(seq_len, size=6, replace=False)] = True
        assert 20 < mask.sum() < seq_len
        assert np.all(sparse.aggregates[0].window_scores[:, ~mask] == 0.0)
        for layer in range(model.config.num_layers):
            dense_k, dense_v = dense.kvcache[layer].read()
            sparse_k, sparse_v = sparse.kvcache[layer].read()
            assert np.array_equal(sparse_v, dense_v)
            assert np.array_equal(sparse_k[:, mask], dense_k[:, mask])
            moved = np.any(sparse_k != dense_k, axis=(0, 2))
            assert np.array_equal(moved, ~mask if noise > 0 else np.zeros_like(mask))

    def test_harness_accepts_custom_prefill(self, tiny_config, budget):
        harness = EvaluationHarness(
            tiny_config, seed=0, qk_coupling=1.0,
            prefill_fn=lambda model, ids: sparse_prefill(
                model, ids, SparsePrefillConfig(sink_tokens=4, local_window=16)
            ),
        )
        dataset = single_fact_qa(num_samples=1, seq_len=256, seed=3)
        result = harness.evaluate(lambda: build_policy("pqcache", budget), dataset)
        assert 0.0 <= result.score <= 100.0
