"""Cluster routing benchmark: cache-aware vs round-robin turn TTFT.

The tentpole serving scenario of the multi-worker cluster: several users hold
multi-turn conversations against a 4-worker fleet, arrivals interleaved by a
seeded Poisson trace (:func:`repro.workloads.poisson_arrivals`).  Every turn
embeds the full history, so a turn's prefix lives in exactly one worker's
cache — the one that served the previous turn.  Cache-aware routing lands
follow-up turns there and reuses the chain; round-robin scatters them into
cold prefills.  The benchmark asserts a **≥3× simulated mean TTFT
improvement on follow-up turns** (the issue's acceptance floor), with
byte-identical tokens between the two placements.

A second scenario exercises ``migrate_on_miss``: a conversation whose chain
was spilled to its owner's disk tier is routed to a less-loaded worker, the
chain ships NVMe→PCIe, and the transfer's bytes and simulated seconds are
billed to the target's clock and surfaced in the fleet metrics.

Run with ``-s`` to see the per-placement table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PQCacheConfig
from repro.llm import ModelConfig, TransformerLM
from repro.serve import (
    EngineConfig,
    PolicySpec,
    PoolConfig,
    Request,
    SamplingParams,
    SchedulerConfig,
)
from repro.serve.cluster import ClusterFrontend
from repro.workloads import multi_turn_conversation, poisson_arrivals

from conftest import make_budget

NUM_WORKERS = 4
NUM_USERS = 3
NUM_TURNS = 3
SYSTEM_TOKENS = 2048
TURN_TOKENS = 64
ANSWER_TOKENS = 8
TTFT_IMPROVEMENT_FLOOR = 3.0


@pytest.fixture(scope="module")
def substrate() -> TransformerLM:
    config = ModelConfig(
        num_layers=2, hidden_dim=64, num_heads=4, num_kv_heads=2,
        ffn_dim=128, vocab_size=512, max_context=65536, name="cluster-bench",
    )
    return TransformerLM(config, seed=0)


@pytest.fixture(scope="module")
def trace():
    """Poisson arrival order for NUM_USERS × NUM_TURNS conversation turns.

    The generator emits an unbounded per-user turn count; events beyond a
    user's last conversation turn are dropped, and the trace is extended
    until every user reaches NUM_TURNS.
    """
    events = [e for e in poisson_arrivals(64, rate=2.0, num_users=NUM_USERS,
                                          seed=13)
              if e.turn < NUM_TURNS]
    seen: dict[int, int] = {}
    kept = []
    for event in events:
        if all(seen.get(u, 0) >= NUM_TURNS for u in range(NUM_USERS)):
            break
        kept.append(event)
        seen[event.user] = seen.get(event.user, 0) + 1
    assert all(seen.get(u, 0) == NUM_TURNS for u in range(NUM_USERS))
    return kept


def make_cluster(substrate, placement, migrate_on_miss=False) -> ClusterFrontend:
    return ClusterFrontend(
        substrate,
        num_workers=NUM_WORKERS,
        placement=placement,
        migrate_on_miss=migrate_on_miss,
        config=EngineConfig(
            scheduler=SchedulerConfig(max_prefill_chunk_tokens=512),
            pool=PoolConfig(),
        ),
    )


def pq_spec() -> PolicySpec:
    return PolicySpec.named(
        "pqcache",
        make_budget(token_ratio=0.2, comm_ratio=1.0 / 64.0),
        pq_config=PQCacheConfig(max_kmeans_iters=8, gpu_cache_tokens=512),
    )


def replay(cluster: ClusterFrontend, trace) -> dict:
    """Serve every trace event in arrival order; one drain per event so a
    turn's prefix chain is cached before the user's next turn arrives."""
    conversations = {
        user: multi_turn_conversation(
            num_turns=NUM_TURNS, system_tokens=SYSTEM_TOKENS,
            turn_tokens=TURN_TOKENS, seed=user,
        )
        for user in range(NUM_USERS)
    }
    histories = {user: conversations[user].initial_history()
                 for user in range(NUM_USERS)}
    outputs: dict[str, object] = {}
    turn_ttft: dict[int, list[float]] = {}
    for event in trace:
        conversation = conversations[event.user]
        prompt = conversation.prompt_for_turn(event.turn, histories[event.user])
        request_id = f"u{event.user}t{event.turn}"
        cluster.submit(Request(
            request_id=request_id,
            prompt_ids=prompt,
            sampling=SamplingParams(max_new_tokens=ANSWER_TOKENS),
            policy_spec=pq_spec(),
        ))
        out = cluster.run()[request_id]
        outputs[request_id] = out
        histories[event.user] = conversation.extend_history(
            prompt, out.token_ids)
        turn_ttft.setdefault(event.turn, []).append(out.metrics.ttft)
    return {"outputs": outputs, "turn_ttft": turn_ttft}


def test_cache_aware_beats_round_robin_on_followup_turns(substrate, trace):
    routed = replay(make_cluster(substrate, "cache_aware"), trace)
    scattered = replay(make_cluster(substrate, "round_robin"), trace)

    # placement never changes the bytes
    for request_id, out in routed["outputs"].items():
        other = scattered["outputs"][request_id]
        assert out.token_ids == other.token_ids
        assert np.array_equal(out.logits, other.logits)

    followup = lambda result: [  # noqa: E731
        t for turn, ttfts in result["turn_ttft"].items() if turn >= 1
        for t in ttfts
    ]
    routed_mean = float(np.mean(followup(routed)))
    scattered_mean = float(np.mean(followup(scattered)))
    improvement = scattered_mean / routed_mean

    print(f"\n=== Cluster routing, {NUM_WORKERS} workers, {NUM_USERS} users × "
          f"{NUM_TURNS} turns (system {SYSTEM_TOKENS} tokens) ===")
    for turn in sorted(routed["turn_ttft"]):
        ra = np.mean(routed["turn_ttft"][turn])
        rr = np.mean(scattered["turn_ttft"][turn])
        print(f"  turn {turn}: cache_aware {ra:.6f}s   "
              f"round_robin {rr:.6f}s   ({rr / ra:.1f}x)")
    print(f"  follow-up-turn mean TTFT: cache_aware {routed_mean:.6f}s, "
          f"round_robin {scattered_mean:.6f}s → {improvement:.1f}x "
          f"(floor {TTFT_IMPROVEMENT_FLOOR}x)")

    assert improvement >= TTFT_IMPROVEMENT_FLOOR, (
        f"cache-aware routing improved follow-up-turn TTFT only "
        f"{improvement:.1f}x over round-robin "
        f"(< {TTFT_IMPROVEMENT_FLOOR}x floor)"
    )


def test_migration_bytes_are_billed_and_surfaced(substrate):
    """A spilled chain shipped across workers charges the target's timeline
    and shows up in cluster + fleet metrics."""
    cluster = make_cluster(substrate, "cache_aware", migrate_on_miss=True)
    conversation = multi_turn_conversation(
        num_turns=2, system_tokens=SYSTEM_TOKENS, turn_tokens=TURN_TOKENS,
        seed=9,
    )
    history = conversation.initial_history()
    prompt_1 = conversation.prompt_for_turn(0, history)
    cluster.submit(Request(request_id="t0", prompt_ids=prompt_1,
                           sampling=SamplingParams(max_new_tokens=ANSWER_TOKENS),
                           policy_spec=pq_spec()))
    out_1 = cluster.run()["t0"]
    history = conversation.extend_history(prompt_1, out_1.token_ids)

    owner = cluster.worker_of("t0")
    cluster.release("t0")
    spilled = owner.prefix_cache.evict(owner.prefix_cache.num_resident)
    assert owner.prefix_cache.num_spilled == spilled > 0

    # Load the owner so the least-loaded fallback picks a different worker.
    rng = np.random.default_rng(3)
    owner.submit(Request(
        request_id="filler",
        prompt_ids=rng.integers(4, 512, size=256).tolist(),
        sampling=SamplingParams(max_new_tokens=64),
    ))

    clock_before = {w.worker_id: w.metrics.clock for w in cluster.workers}
    prompt_2 = conversation.prompt_for_turn(1, history)
    cluster.submit(Request(request_id="t1", prompt_ids=prompt_2,
                           sampling=SamplingParams(max_new_tokens=ANSWER_TOKENS),
                           policy_spec=pq_spec()))
    placement = cluster.placements[-1]
    assert placement.migrate_from == owner.worker_id
    assert placement.worker_id != owner.worker_id
    out_2 = cluster.run()["t1"]

    migration = cluster.metrics
    target = cluster.workers[placement.worker_id]
    fleet = cluster.fleet_metrics()
    print(f"\n=== Migration billing ({migration.migrated_blocks} blocks "
          f"w{owner.worker_id} → w{placement.worker_id}) ===")
    print(f"  PCIe bytes: {migration.migrated_kv_bytes:.0f}   "
          f"NVMe bytes: {migration.migrated_disk_bytes:.0f}")
    print(f"  simulated transfer: {migration.migration_seconds:.6f}s   "
          f"turn-2 TTFT: {out_2.metrics.ttft:.6f}s")

    assert migration.migrations == 1
    assert migration.migrated_kv_bytes > 0
    assert migration.migrated_disk_bytes > 0
    assert migration.migration_seconds > 0
    # billed to the target's clock (hence the routed request's TTFT)...
    assert (target.metrics.clock - clock_before[target.worker_id]
            >= migration.migration_seconds)
    # ...and surfaced in the fleet aggregate
    assert fleet.swap_seconds >= migration.migration_seconds
    # the shipped chain actually served the turn
    assert out_2.metrics.cached_prefix_tokens > 0
