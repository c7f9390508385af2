#!/usr/bin/env python
"""Multi-worker cluster serving: cache-aware routing over a 4-worker fleet.

Three users hold multi-turn conversations against a
:class:`~repro.serve.cluster.ClusterFrontend`; arrivals are interleaved by a
seeded Poisson trace.  Because every turn embeds the full history, a turn's
prefix lives in exactly one worker's cache — cache-aware routing lands
follow-up turns there (warm TTFT), while round-robin would scatter them into
cold prefills.  The script reports the routing decisions, per-worker
prefix-cache hit rates and cached chain blocks, and the fleet's p50/p99
TTFT.

Run with::

    python examples/cluster_serving.py
"""

from __future__ import annotations

import numpy as np

from repro.llm import ModelConfig, TransformerLM
from repro.serve import (
    EngineConfig,
    PoolConfig,
    Request,
    SamplingParams,
    SchedulerConfig,
)
from repro.serve.cluster import ClusterFrontend
from repro.workloads import multi_turn_conversation, poisson_arrivals

NUM_WORKERS = 4
NUM_USERS = 3
NUM_TURNS = 3
SYSTEM_TOKENS = 1024
TURN_TOKENS = 48
ANSWER_TOKENS = 8


def main() -> None:
    config = ModelConfig(num_layers=2, hidden_dim=64, num_heads=4,
                         num_kv_heads=2, ffn_dim=128, vocab_size=512,
                         max_context=65536, name="cluster-demo")
    model = TransformerLM(config, seed=0)
    cluster = ClusterFrontend(
        model,
        num_workers=NUM_WORKERS,
        placement="cache_aware",
        config=EngineConfig(
            scheduler=SchedulerConfig(max_prefill_chunk_tokens=512),
            pool=PoolConfig(),
        ),
    )

    conversations = {
        user: multi_turn_conversation(num_turns=NUM_TURNS,
                                      system_tokens=SYSTEM_TOKENS,
                                      turn_tokens=TURN_TOKENS, seed=user)
        for user in range(NUM_USERS)
    }
    histories = {user: conversations[user].initial_history()
                 for user in range(NUM_USERS)}

    # Poisson arrival order over the users' turns (drop events beyond each
    # user's last turn, keep going until every conversation completes).
    events, seen = [], {}
    for event in poisson_arrivals(64, rate=2.0, num_users=NUM_USERS, seed=13):
        if event.turn >= NUM_TURNS or seen.get(event.user, 0) >= NUM_TURNS:
            continue
        events.append(event)
        seen[event.user] = seen.get(event.user, 0) + 1
        if all(seen.get(u, 0) >= NUM_TURNS for u in range(NUM_USERS)):
            break

    print(f"{NUM_WORKERS} workers, {NUM_USERS} users x {NUM_TURNS} turns, "
          f"{SYSTEM_TOKENS}-token system prompts, cache-aware routing\n")
    print("arrival  user turn  -> worker  matched  TTFT")
    ttfts = []
    #: user -> (request_id, prompt, event, placement); a user's next turn
    #: needs their previous answer, but different users stay in flight
    #: together — that concurrency is what spreads load across the fleet.
    in_flight: dict[int, tuple] = {}

    def drain() -> None:
        finals = cluster.run()
        for user, (request_id, prompt, event, placement) in sorted(
                in_flight.items()):
            out = finals[request_id]
            histories[user] = conversations[user].extend_history(
                prompt, out.token_ids)
            ttfts.append(out.metrics.ttft)
            print(f"  {event.time:6.2f}s  u{event.user}   t{event.turn}   ->"
                  f"  w{placement.worker_id}      "
                  f"{placement.matched_tokens:5d}  {out.metrics.ttft:.6f}s")
        in_flight.clear()

    for event in events:
        if event.user in in_flight:
            drain()
        conversation = conversations[event.user]
        prompt = conversation.prompt_for_turn(event.turn,
                                              histories[event.user])
        request_id = f"u{event.user}t{event.turn}"
        cluster.submit(Request(request_id=request_id, prompt_ids=prompt,
                               sampling=SamplingParams(
                                   max_new_tokens=ANSWER_TOKENS)))
        in_flight[event.user] = (request_id, prompt, event,
                                 cluster.placements[-1])
    drain()

    print("\nper-worker prefix-cache hit rates:")
    for worker in cluster.workers:
        row = worker.describe()
        print(f"  w{row['worker_id']}: {row['requests_finished']} requests, "
              f"lookup hit rate {row['prefix_cache_hit_rate']:.0%}, "
              f"token hit rate {row['prefix_token_hit_rate']:.0%}, "
              f"clock {row['clock']:.6f}s")

    fleet = cluster.fleet_metrics()
    p50, p99 = np.percentile(ttfts, [50, 99])
    print(f"\nfleet: {fleet.requests_finished} requests, "
          f"{fleet.generated_tokens} tokens, makespan {fleet.clock:.6f}s")
    print(f"fleet TTFT: p50 {p50:.6f}s, p99 {p99:.6f}s")
    print("cached chain blocks: " + ", ".join(
        f"w{worker.worker_id} {worker.prefix_cache.num_resident} resident"
        f" / {worker.prefix_cache.num_spilled} spilled"
        for worker in cluster.workers))

    # Fused decode-round shape + host wall-time breakdown across the fleet:
    # every worker batches its RUNNING requests into one model round per
    # step, so mean batch size tracks how much decode concurrency the
    # routing actually produced.
    histogram = ", ".join(
        f"{bucket}: {count}"
        for bucket, count in fleet.decode_batch_size_histogram.items()
        if count
    )
    print(f"decode rounds: {fleet.decode_batch_rounds} fused batches, "
          f"mean size {fleet.mean_decode_batch_size:.2f} ({histogram})")
    print(f"decode stage wall-time: select {fleet.decode_select_seconds:.4f}s "
          f"(score {fleet.decode_score_seconds:.4f}s, "
          f"top-k {fleet.decode_topk_seconds:.4f}s), "
          f"gather {fleet.decode_gather_seconds:.4f}s, "
          f"attention {fleet.decode_attention_seconds:.4f}s, "
          f"maintenance {fleet.decode_maintenance_seconds:.4f}s")


if __name__ == "__main__":
    main()
