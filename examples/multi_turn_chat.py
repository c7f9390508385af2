#!/usr/bin/env python
"""Multi-turn chat demo: shared-prefix caching across conversation turns.

Three user turns share one system prompt; each turn's prompt embeds the full
conversation so far.  With a paged pool (``EngineConfig(pool=PoolConfig())``)
the engine serves turns 2 and 3 from cached KV blocks (and reuses the PQ
codebooks/codes built for the shared prefix), so only each turn's new tokens
are prefilled — the per-turn TTFT and the prefix-cache hit rate printed below
show the effect.

Run with::

    python examples/multi_turn_chat.py
"""

from __future__ import annotations

from repro.baselines import SelectionBudget
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

NUM_TURNS = 3
SYSTEM_TOKENS = 2048
TURN_TOKENS = 64
ANSWER_TOKENS = 12


def main() -> None:
    config = ModelConfig(
        num_layers=2, hidden_dim=64, num_heads=4, num_kv_heads=2,
        ffn_dim=128, vocab_size=512, name="chat-demo",
    )
    model = TransformerLM(config, seed=0)
    engine = InferenceEngine(model, EngineConfig(
        scheduler=SchedulerConfig(max_prefill_chunk_tokens=512),
        pool=PoolConfig(),
    ))
    budget = SelectionBudget(token_ratio=0.2, num_initial=4, num_local=16)
    pq_config = PQCacheConfig(max_kmeans_iters=8, gpu_cache_tokens=512)

    conversation = multi_turn_conversation(
        num_turns=NUM_TURNS, system_tokens=SYSTEM_TOKENS,
        turn_tokens=TURN_TOKENS, seed=0,
    )
    history = conversation.initial_history()

    print(f"system prompt: {SYSTEM_TOKENS} tokens, "
          f"{NUM_TURNS} turns x {TURN_TOKENS} tokens")
    print(f"{'turn':>4} {'prompt':>8} {'cached':>8} {'hit %':>7} "
          f"{'TTFT (s)':>10}  answer")
    for turn in range(conversation.num_turns):
        prompt = conversation.prompt_for_turn(turn, history)
        request = Request(
            prompt_ids=prompt,
            sampling=SamplingParams(max_new_tokens=ANSWER_TOKENS),
            policy_spec=PolicySpec.named("pqcache", budget, pq_config=pq_config),
        )
        request_id = engine.submit(request)
        output = engine.run()[request_id]
        cached = output.metrics.cached_prefix_tokens
        print(f"{turn + 1:>4} {len(prompt):>8} {cached:>8} "
              f"{cached / len(prompt):>6.1%} {output.metrics.ttft:>10.6f}  "
              f"{output.token_ids}")
        history = conversation.extend_history(prompt, output.token_ids)

    metrics = engine.metrics
    print(f"\nprefix cache: {metrics.prefix_cache_hits}/"
          f"{metrics.prefix_cache_queries} lookups hit, "
          f"{metrics.prefix_cache_hit_tokens} of "
          f"{metrics.prefix_prompt_tokens} prompt tokens served from cache "
          f"({metrics.prefix_token_hit_rate:.1%})")
    print(f"engine clock: {metrics.clock:.5f}s simulated, "
          f"{metrics.generated_tokens} tokens generated")


if __name__ == "__main__":
    main()
