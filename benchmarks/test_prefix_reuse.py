"""Prefix-reuse throughput benchmark: multi-turn TTFT with a shared prefix.

The tentpole serving scenario of the paged-KV / prefix-cache redesign: a
multi-turn conversation whose every turn embeds the full history.  Turn 2
shares a ≥4k-token prefix with turn 1, so a prefix-cache hit skips that
prefix's prefill compute *and* its PQ construction — the benchmark asserts a
**≥5× simulated TTFT improvement** on turn 2 versus serving the same prompt
cold, and that the cache-hit decode output is byte-identical to the cold one
(the tentpole's correctness criterion).

Run with ``-s`` to see the per-turn table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PQCacheConfig
from repro.llm import ModelConfig, TransformerLM
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    PolicySpec,
    PoolConfig,
    Request,
    SamplingParams,
    SchedulerConfig,
)
from repro.workloads import multi_turn_conversation

from conftest import make_budget

#: shared-prefix size of the acceptance criterion (tokens)
SHARED_PREFIX_TOKENS = 4096
TURN_TOKENS = 64
ANSWER_TOKENS = 8
TTFT_IMPROVEMENT_FLOOR = 5.0


@pytest.fixture(scope="module")
def substrate() -> TransformerLM:
    config = ModelConfig(
        num_layers=2, hidden_dim=64, num_heads=4, num_kv_heads=2,
        ffn_dim=128, vocab_size=512, max_context=65536, name="prefix-bench",
    )
    return TransformerLM(config, seed=0)


def make_engine(substrate: TransformerLM, caching: bool) -> InferenceEngine:
    return InferenceEngine(substrate, EngineConfig(
        scheduler=SchedulerConfig(max_prefill_chunk_tokens=512),
        pool=PoolConfig() if caching else None,
    ))


def serve_turn(engine: InferenceEngine, prompt: "list[int]",
               policy: "str | None" = "pqcache"):
    spec = None
    if policy == "pqcache":
        spec = PolicySpec.named(
            "pqcache",
            make_budget(token_ratio=0.2, comm_ratio=1.0 / 64.0),
            pq_config=PQCacheConfig(max_kmeans_iters=8, gpu_cache_tokens=512),
        )
    rid = engine.submit(
        Request(
            prompt_ids=prompt,
            sampling=SamplingParams(max_new_tokens=ANSWER_TOKENS),
            policy_spec=spec,
        )
    )
    return engine.run()[rid]


def test_prefix_reuse_ttft_multiturn(substrate):
    """Turn-2 TTFT: warm (prefix hit) vs cold, same prompt, same outputs."""
    conversation = multi_turn_conversation(
        num_turns=2, system_tokens=SHARED_PREFIX_TOKENS,
        turn_tokens=TURN_TOKENS, seed=4,
    )

    warm_engine = make_engine(substrate, caching=True)

    # Turn 1: cold by construction — it pays the full prefill + clustering.
    history = conversation.initial_history()
    prompt_1 = conversation.prompt_for_turn(0, history)
    out_1 = serve_turn(warm_engine, prompt_1)
    history = conversation.extend_history(prompt_1, out_1.token_ids)

    # Turn 2 on the warm engine: the whole turn-1 prompt region is cached.
    prompt_2 = conversation.prompt_for_turn(1, history)
    assert len(prompt_2) - len(prompt_1) <= 2 * TURN_TOKENS + ANSWER_TOKENS
    warm = serve_turn(warm_engine, prompt_2)
    assert warm.metrics.cached_prefix_tokens >= SHARED_PREFIX_TOKENS

    # The same turn-2 prompt served cold (fresh engine, no cache to hit).
    cold = serve_turn(make_engine(substrate, caching=False), prompt_2)

    # Byte-identical decode output between hit and cold paths.
    assert warm.token_ids == cold.token_ids
    assert np.array_equal(warm.logits, cold.logits)

    improvement = cold.metrics.ttft / warm.metrics.ttft
    hit_rate = warm_engine.metrics.prefix_token_hit_rate
    print("\n=== Prefix-reuse TTFT (turn 2, shared prefix "
          f"{warm.metrics.cached_prefix_tokens} tokens) ===")
    print(f"  turn-1 (cold)       TTFT: {out_1.metrics.ttft:.6f}s over "
          f"{len(prompt_1)} tokens")
    print(f"  turn-2 cold         TTFT: {cold.metrics.ttft:.6f}s over "
          f"{len(prompt_2)} tokens")
    print(f"  turn-2 prefix hit   TTFT: {warm.metrics.ttft:.6f}s "
          f"({warm.metrics.cached_prefix_tokens} cached)")
    print(f"  improvement: {improvement:.1f}x "
          f"(floor {TTFT_IMPROVEMENT_FLOOR}x), "
          f"engine token hit rate {hit_rate:.2%}")
    assert improvement >= TTFT_IMPROVEMENT_FLOOR, (
        f"turn-2 TTFT improved only {improvement:.1f}x "
        f"(< {TTFT_IMPROVEMENT_FLOOR}x) despite a "
        f"{warm.metrics.cached_prefix_tokens}-token shared prefix"
    )


def test_prefix_reuse_throughput_batch(substrate):
    """Many requests sharing one system prompt: aggregate clock shrinks.

    Measured on the full-attention policy, which isolates the pure KV-block
    reuse economics (prefill compute skipped for the shared prefix).  The
    PQCache policy's aggregate clock improves less at this tiny geometry —
    its final refinement honestly re-clusters the *full* prompt on hit and
    cold paths alike (that is what keeps outputs byte-identical) and
    dominates the simulated CPU time here — so its numbers are printed for
    reference while the assertion targets the compute-bound policy.
    """
    conversation = multi_turn_conversation(
        num_turns=4, system_tokens=1024, turn_tokens=TURN_TOKENS, seed=9,
    )
    prompts = [
        conversation.prompt_for_turn(t, conversation.initial_history())
        for t in range(4)
    ]

    def drive(caching: bool, policy: "str | None") -> tuple[float, float]:
        engine = make_engine(substrate, caching)
        prefill_seconds = 0.0
        for prompt in prompts:
            out = serve_turn(engine, prompt, policy)
            prefill_seconds += out.metrics.prefill_seconds
        return prefill_seconds, engine.metrics.clock

    cold_full, cold_full_clock = drive(False, None)
    warm_full, warm_full_clock = drive(True, None)
    cold_pq, cold_pq_clock = drive(False, "pqcache")
    warm_pq, warm_pq_clock = drive(True, "pqcache")
    speedup_full = cold_full / warm_full
    speedup_pq = cold_pq / warm_pq
    print(f"\n=== Shared-system-prompt batch (4 requests, 1024-token system "
          f"prompt; aggregate prefill seconds) ===\n"
          f"  full-attention: cold {cold_full:.6f}s, warm {warm_full:.6f}s, "
          f"speedup {speedup_full:.2f}x "
          f"(total clock {cold_full_clock:.5f}s → {warm_full_clock:.5f}s)\n"
          f"  pqcache:        cold {cold_pq:.6f}s, warm {warm_pq:.6f}s, "
          f"speedup {speedup_pq:.2f}x (refine dominates at toy geometry; "
          f"total clock {cold_pq_clock:.5f}s → {warm_pq_clock:.5f}s)")
    # Requests 2-4 reuse the system prompt; their prefill cost must shrink
    # accordingly for the compute-bound policy, and must never regress for
    # PQCache (whose honest full-prompt refine bounds its toy-scale gain).
    assert speedup_full > 1.5
    assert speedup_pq > 1.0
