"""Integration tests: end-to-end generation and paper-level quality orderings.

These tests exercise the whole stack (workload -> prefill -> policy -> decode
-> scoring) and assert the *qualitative* claims of the paper's evaluation:

* PQCache tracks the Oracle closely and beats the offloading baselines,
* dropping methods collapse on exact retrieval (Retr.KV-style) tasks,
* SnapKV/PyramidKV degrade when the question is moved to the front of the
  prompt while PQCache does not (Table 3),
* more PQ bits / more K-Means iterations do not hurt quality (Fig 10b / 12c).
"""

import numpy as np
import pytest

from repro.baselines import SelectionBudget, build_policy, default_policy_suite
from repro.core import PQCacheConfig
from repro.eval import EvaluationHarness
from repro.llm import ModelConfig, TransformerLM
from repro.serve import InferenceEngine, PolicySpec, Request, SamplingParams
from repro.workloads import kv_retrieval, single_fact_qa

BUDGET = SelectionBudget(token_ratio=0.2, comm_ratio=1.0 / 64.0,
                         num_initial=4, num_local=16)


@pytest.fixture(scope="module")
def harness():
    return EvaluationHarness(ModelConfig.tiny(), seed=0, qk_coupling=1.0)


@pytest.fixture(scope="module")
def qa_scores(harness):
    dataset = single_fact_qa(num_samples=4, seq_len=448, seed=11)
    factories = {
        name: (lambda n=name: build_policy(n.split("(")[0], BUDGET))
        for name in ("full", "oracle", "pqcache", "infllm", "streaming-llm")
    }
    return harness.evaluate_suite(factories, [dataset])[dataset.name]


@pytest.fixture(scope="module")
def retrieval_scores(harness):
    dataset = kv_retrieval(num_samples=4, seq_len=448, seed=12)
    factories = {
        "oracle": lambda: build_policy("oracle", BUDGET),
        "pqcache": lambda: build_policy("pqcache", BUDGET),
        "h2o(c)": lambda: build_policy("h2o", BUDGET),
        "snapkv(c)": lambda: build_policy("snapkv", BUDGET),
    }
    return harness.evaluate_suite(factories, [dataset])[dataset.name]


class TestQualityOrdering:
    def test_pqcache_close_to_oracle(self, qa_scores):
        assert qa_scores["pqcache"] >= qa_scores["oracle"] - 15.0

    def test_pqcache_beats_infllm_and_streaming(self, qa_scores):
        assert qa_scores["pqcache"] > qa_scores["infllm"]
        assert qa_scores["pqcache"] > qa_scores["streaming-llm"]

    def test_full_is_upper_reference(self, qa_scores):
        assert qa_scores["full"] == pytest.approx(100.0)
        assert all(score <= 100.0 + 1e-9 for score in qa_scores.values())

    def test_dropping_methods_fail_kv_retrieval(self, retrieval_scores):
        """Table 4 Retr.KV: H2O collapses while PQCache stays close to Oracle."""
        assert retrieval_scores["pqcache"] >= retrieval_scores["oracle"] - 20.0
        assert retrieval_scores["h2o(c)"] < retrieval_scores["pqcache"] - 20.0


class TestQuestionPosition:
    def test_snapkv_drops_when_question_first_pqcache_does_not(self, harness):
        """Table 3: moving the question to the front hurts SnapKV but not
        PQCache."""
        end = single_fact_qa(num_samples=3, seq_len=384, seed=21,
                             question_position="end")
        start = single_fact_qa(num_samples=3, seq_len=384, seed=21,
                               question_position="start")
        factories = {
            "snapkv(c)": lambda: build_policy("snapkv", BUDGET),
            "pqcache": lambda: build_policy("pqcache", BUDGET),
        }
        table_end = harness.evaluate_suite(factories, [end])[end.name]
        table_start = harness.evaluate_suite(factories, [start])[start.name]
        snap_drop = table_end["snapkv(c)"] - table_start["snapkv(c)"]
        pqc_drop = table_end["pqcache"] - table_start["pqcache"]
        assert snap_drop > pqc_drop
        assert table_start["pqcache"] > table_start["snapkv(c)"]


class TestPQConfigurationRobustness:
    def test_more_iterations_do_not_hurt(self, harness):
        """Figure 12c: more K-Means iterations give equal or better quality."""
        dataset = single_fact_qa(num_samples=3, seq_len=384, seed=31)
        def factory(iters):
            return lambda: build_policy(
                "pqcache", BUDGET,
                pq_config=PQCacheConfig(num_partitions=2, num_bits=5,
                                        max_kmeans_iters=iters,
                                        gpu_cache_tokens=0),
            )
        low = harness.evaluate(factory(0), dataset).score
        high = harness.evaluate(factory(20), dataset).score
        # The slack absorbs scoring noise: with only 3 samples one flipped
        # answer moves the mean by ~6-12 points, and deterministic top-k
        # tie-breaking (ties at the k-th ADC score are now resolved by lowest
        # token index instead of argpartition's platform-dependent order) can
        # flip a borderline sample either way.
        assert high >= low - 15.0

    def test_config_sweep_all_reasonable(self, harness):
        """Figure 10b: PQCache is robust across m x b configurations."""
        dataset = single_fact_qa(num_samples=2, seq_len=384, seed=41)
        scores = {}
        for m, b in ((1, 6), (2, 4), (4, 4)):
            factory = lambda m=m, b=b: build_policy(
                "pqcache", BUDGET,
                pq_config=PQCacheConfig(num_partitions=m, num_bits=b,
                                        max_kmeans_iters=8, gpu_cache_tokens=0),
            )
            scores[(m, b)] = harness.evaluate(factory, dataset).score
        best = max(scores.values())
        assert best > 50.0
        assert min(scores.values()) > best - 60.0


class TestEndToEndGeneration:
    def test_generation_with_every_policy(self, tiny_config):
        """Every policy must run the real generation loop without error and
        produce the same number of tokens."""
        model = TransformerLM(tiny_config, seed=0)
        rng = np.random.default_rng(5)
        prompt = rng.integers(4, tiny_config.vocab_size, size=200).tolist()
        requests = {
            name: Request(prompt_ids=prompt,
                          sampling=SamplingParams(max_new_tokens=3),
                          policy_spec=PolicySpec.from_instance(policy))
            for name, policy in default_policy_suite(BUDGET).items()
        }
        finals = InferenceEngine(model).run(requests.values())
        outputs = {}
        for name, request in requests.items():
            outputs[name] = finals[request.request_id].token_ids
            assert len(outputs[name]) == 3
        # Full attention and the (exact) oracle agree on the first token at least.
        assert outputs["full"][0] == outputs["oracle"][0]

    def test_pqcache_generation_close_to_full_logits(self, tiny_config):
        """Logit fidelity: selective attention with a generous budget stays
        close to the full-attention next-token distribution."""
        from repro.eval import logit_divergence
        model = TransformerLM(tiny_config, seed=0)
        rng = np.random.default_rng(6)
        prompt = rng.integers(4, tiny_config.vocab_size, size=160).tolist()
        generous = SelectionBudget(token_ratio=0.5, comm_ratio=1 / 64,
                                   num_initial=4, num_local=16)
        requests = [
            Request(prompt_ids=prompt, sampling=SamplingParams(max_new_tokens=2),
                    policy_spec=PolicySpec.named(name, generous))
            for name in ("full", "pqcache", "streaming-llm")
        ]
        finals = InferenceEngine(model).run(requests)
        full, pqc, streaming = (finals[r.request_id] for r in requests)
        kl_pqc = logit_divergence(pqc.logits[0], full.logits[0])
        kl_streaming = logit_divergence(streaming.logits[0], full.logits[0])
        assert kl_pqc < kl_streaming
