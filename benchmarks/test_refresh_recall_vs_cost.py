"""ParisKV-style refresh knob: retrieval recall vs refresh cost.

One long generation (1k-token prompt, 96 decoded tokens) with
``PQCachePolicy(refresh_every=16)`` against the same run without refreshes.
A selection hook measures, at every decode step, the recall of the PQ-picked
middle tokens against the exact top-k by true key scores; the engine's
``pq_refreshes`` / ``pq_refresh_seconds`` counters price the refreshes on
the simulated clock.  The benchmark reports recall-with vs recall-without
alongside that cost so the knob's trade-off is visible in one table.
"""

import numpy as np

from conftest import make_budget, print_series

from repro.core import PQCacheConfig
from repro.llm import ModelConfig, TransformerLM
from repro.serve import (
    InferenceEngine,
    PolicySpec,
    Request,
    SamplingParams,
)
from repro.utils import topk_indices

BENCH_PQ = PQCacheConfig(num_partitions=2, num_bits=6, max_kmeans_iters=2,
                         gpu_cache_tokens=0)

REFRESH_PROMPT_LEN = 1024
REFRESH_NEW_TOKENS = 96
REFRESH_EVERY = 16
REFRESH_TOKEN_RATIO = 0.1


def _refresh_config() -> ModelConfig:
    return ModelConfig(num_layers=1, hidden_dim=32, num_heads=2,
                       num_kv_heads=1, ffn_dim=64, vocab_size=128,
                       name="refresh-bench")


def _run_refresh(model, refresh_every):
    """Long generation with a recall-measuring selection hook."""
    budget = make_budget(token_ratio=REFRESH_TOKEN_RATIO, comm_ratio=1.0 / 128.0)
    recalls: list[float] = []

    def hook(layer_index, query, kvcache, normalised):
        keys = kvcache[layer_index].keys
        h_kv = keys.shape[0]
        group = query.shape[0] // h_kv
        kv_queries = query.reshape(h_kv, group, -1).mean(axis=1)
        segments = budget.segments(keys.shape[1])
        middle = segments.middle_indices
        if middle.size == 0 or normalised is None:
            return
        k = min(budget.middle_budget(REFRESH_PROMPT_LEN), middle.size)
        middle_set = set(middle.tolist())
        for head in range(h_kv):
            exact_scores = keys[head, middle, :] @ kv_queries[head]
            exact = set(middle[topk_indices(exact_scores, k)].tolist())
            approx = set(np.asarray(normalised[head]).tolist()) & middle_set
            if exact:
                recalls.append(len(exact & approx) / len(exact))

    rng = np.random.default_rng(7)
    prompt = rng.integers(4, model.config.vocab_size,
                          size=REFRESH_PROMPT_LEN).tolist()
    engine = InferenceEngine(model)
    request = Request(
        prompt_ids=prompt,
        sampling=SamplingParams(max_new_tokens=REFRESH_NEW_TOKENS),
        policy_spec=PolicySpec.named(
            "pqcache", budget, pq_config=BENCH_PQ, refresh_every=refresh_every,
        ),
        selection_hook=hook,
    )
    engine.run([request])
    return {
        "mean_recall": float(np.mean(recalls)),
        "pq_refreshes": engine.metrics.pq_refreshes,
        "refresh_cost_s": engine.metrics.pq_refresh_seconds,
        "decode_clock_s": engine.metrics.clock,
    }


def test_refresh_recall_vs_cost(benchmark):
    model = TransformerLM(_refresh_config(), seed=1)

    def run_both():
        return {
            "no refresh": _run_refresh(model, refresh_every=None),
            f"refresh_every={REFRESH_EVERY}": _run_refresh(
                model, refresh_every=REFRESH_EVERY
            ),
        }

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print_series(
        "PQ refresh knob: retrieval recall vs simulated refresh cost", rows
    )

    base = rows["no refresh"]
    refreshed = rows[f"refresh_every={REFRESH_EVERY}"]
    assert base["pq_refreshes"] == 0 and base["refresh_cost_s"] == 0.0
    assert refreshed["pq_refreshes"] == REFRESH_NEW_TOKENS // REFRESH_EVERY
    # Refreshes carry an honest simulated price (clustering timeline tasks).
    assert refreshed["refresh_cost_s"] > 0.0
    assert refreshed["decode_clock_s"] > base["decode_clock_s"]
    for row in rows.values():
        assert 0.0 <= row["mean_recall"] <= 1.0
