"""Compressed swap/spill benchmark: codecs on the downward tiers must cut
wire bytes — and the simulated latency those bytes cost — without moving a
single output byte where the lossless guarantee applies.

Scenario 1 (engine): the preemption-pressure workload — a 2× oversubscribed
KV pool pushing the scheduler through spill, preemption and swap — served
three times: raw codecs everywhere, the lossless ``byteplane`` default, and
the opt-in ``int4`` spill tier.  Asserts:

* raw and byteplane runs are byte-identical to an unbounded-pool reference
  (tokens *and* logits) and to each other, and every *logical* byte counter
  matches across all three configs — codecs only ever touch wire bytes;
* the int4 spill tier moves its KV at **≥2× fewer wire bytes** (the issue's
  acceptance floor; the achieved ratio is ~2.7×), visible in
  :class:`~repro.serve.EngineMetrics` as ``spill_out_wire_bytes`` and the
  per-tier compression ratios;
* the saved bytes buy simulated time: swap-path seconds, fleet makespan and
  mean request e2e all strictly improve over the raw run.  (Request TPOT
  proper is pure decode service time and codec-invariant by construction —
  pressure stalls surface in e2e.)

Scenario 2 (cluster): a migration-heavy trace — every conversation's chain
is spilled at its owner and shipped cross-worker on the follow-up turn.
With the int4 spill tier the parked quantised payloads are what cross the
links: **≥2× wire reduction** on the migration path and strictly less
simulated transfer time than the raw fleet.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.llm import ModelConfig, TransformerLM
from repro.serve import (
    InferenceEngine,
    Request,
    SamplingParams,
    SchedulerConfig,
)
from repro.serve.cluster import ClusterFrontend
from repro.workloads import multi_turn_conversation

BLOCK_SIZE = 32
PROMPT_TOKENS = 256
ANSWER_TOKENS = 8
NUM_REQUESTS = 8

#: acceptance floor on the spilled-KV wire reduction (achieved: ~2.7x)
WIRE_REDUCTION_FLOOR = 2.0

#: (label, kv_swap_codec, kv_spill_codec) — the three engine configs
CONFIGS = (
    ("raw", "raw", "raw"),
    ("byteplane", "byteplane", None),  # spill inherits the swap codec
    ("int4-spill", "byteplane", "int4"),
)


@pytest.fixture(scope="module")
def substrate() -> TransformerLM:
    config = ModelConfig(
        num_layers=2, hidden_dim=64, num_heads=4, num_kv_heads=2,
        ffn_dim=128, vocab_size=512, max_context=65536, name="spill-bench",
    )
    return TransformerLM(config, seed=0)


def make_requests(substrate: TransformerLM) -> "list[Request]":
    rng = np.random.default_rng(11)
    return [
        Request(
            prompt_ids=rng.integers(
                4, substrate.config.vocab_size, size=PROMPT_TOKENS
            ).tolist(),
            request_id=f"spill-{index}",
            sampling=SamplingParams(max_new_tokens=ANSWER_TOKENS),
        )
        for index in range(NUM_REQUESTS)
    ]


def working_set_blocks() -> int:
    per_request = -(-(PROMPT_TOKENS + ANSWER_TOKENS + 1) // BLOCK_SIZE)
    return NUM_REQUESTS * per_request


def run_schedule(substrate, pool_blocks, swap_codec, spill_codec):
    engine = InferenceEngine(
        substrate,
        scheduler_config=SchedulerConfig(
            max_batch_size=NUM_REQUESTS,
            max_prefill_chunk_tokens=128,
            preemption_mode="swap",
        ),
        enable_prefix_caching=True,
        kv_block_size=BLOCK_SIZE,
        kv_pool_blocks=pool_blocks,
        max_retained_outputs=0,
        kv_swap_codec=swap_codec,
        kv_spill_codec=spill_codec,
    )
    finals = engine.run(make_requests(substrate))
    return finals, engine


def summarize(finals, engine) -> dict:
    metrics = engine.metrics
    kv_spilled = (
        engine.prefix_cache.stats.spilled_blocks
        * engine.block_allocator.block_nbytes()
    )
    kv_wire = engine.prefix_cache.stats.spilled_wire_bytes
    e2es = [f.metrics.e2e_seconds for f in finals.values()]
    return {
        "swap_logical": metrics.swap_out_bytes,
        "swap_wire": metrics.swap_out_wire_bytes,
        "spill_logical": metrics.spill_out_bytes,
        "spill_wire": metrics.spill_out_wire_bytes,
        "kv_spill_ratio": kv_spilled / kv_wire if kv_wire else 1.0,
        "swap_seconds": metrics.swap_seconds,
        "codec_seconds": (
            metrics.codec_encode_seconds + metrics.codec_decode_seconds
        ),
        "mean_e2e": float(np.mean(e2es)),
        "makespan": metrics.clock,
        "preemptions": metrics.preemptions,
    }


def test_compressed_spill_cuts_wire_bytes_and_latency(substrate):
    reference, _ = run_schedule(substrate, None, "byteplane", None)
    pool = working_set_blocks() // 2

    rows = []
    results = {}
    for label, swap_codec, spill_codec in CONFIGS:
        finals, engine = run_schedule(
            substrate, pool, swap_codec, spill_codec
        )
        assert len(finals) == NUM_REQUESTS, (pool, label)
        assert all(f.finished for f in finals.values()), (pool, label)
        if label != "int4-spill":  # lossless: byte-identity holds
            for request_id, ref in reference.items():
                out = finals[request_id]
                assert out.token_ids == ref.token_ids, (pool, label)
                assert np.array_equal(out.logits, ref.logits), (
                    pool, label,
                )
        results[label] = summarize(finals, engine)
        rows.append({"pool": pool, "label": label, **results[label]})

    raw, packed, quant = (
        results["raw"], results["byteplane"], results["int4-spill"]
    )
    # Logical accounting is codec-invariant: same schedule, same bytes.
    for key in ("swap_logical", "spill_logical", "preemptions"):
        assert raw[key] == packed[key] == quant[key], (pool, key)
    # Raw wires at identity; the codecs genuinely shrink the wire.
    assert raw["swap_wire"] == raw["swap_logical"]
    assert raw["spill_wire"] == raw["spill_logical"]
    combined = lambda r: r["swap_wire"] + r["spill_wire"]  # noqa: E731
    assert combined(quant) < combined(packed) < combined(raw)
    # The acceptance floor: spilled KV rides at >= 2x fewer wire bytes.
    assert quant["kv_spill_ratio"] >= WIRE_REDUCTION_FLOOR, (
        f"pool {pool}: spilled-KV wire reduction "
        f"{quant['kv_spill_ratio']:.2f}x < {WIRE_REDUCTION_FLOOR}x floor"
    )
    # ...and the saved bytes outweigh the codec CPU time they cost.
    assert quant["swap_seconds"] < raw["swap_seconds"], pool
    assert quant["makespan"] < raw["makespan"], pool
    assert quant["mean_e2e"] < raw["mean_e2e"], pool

    print()
    print(
        f"compressed spill: {NUM_REQUESTS} x {PROMPT_TOKENS} tokens, "
        f"working set {working_set_blocks()} blocks"
    )
    header = (
        f"{'pool':>5} {'config':>11} {'swap KB':>9} {'wire':>7} "
        f"{'spill KB':>9} {'wire':>7} {'kv_ratio':>8} {'swap_ms':>8} "
        f"{'codec_ms':>8} {'e2e_ms':>8}"
    )
    print(header)
    for row in rows:
        print(
            f"{row['pool']:>5} {row['label']:>11} "
            f"{row['swap_logical'] / 1e3:>9.1f} {row['swap_wire'] / 1e3:>7.1f} "
            f"{row['spill_logical'] / 1e3:>9.1f} "
            f"{row['spill_wire'] / 1e3:>7.1f} {row['kv_spill_ratio']:>7.2f}x "
            f"{row['swap_seconds'] * 1e3:>8.4f} "
            f"{row['codec_seconds'] * 1e3:>8.4f} "
            f"{row['mean_e2e'] * 1e3:>8.4f}"
        )


# ------------------------------------------------------- migration scenario


NUM_CONVS = 3
SYSTEM_TOKENS = 1024
TURN_TOKENS = 64


def run_migration_trace(substrate, spill_codec, migration_codec):
    """Serve NUM_CONVS two-turn conversations, forcing every follow-up turn
    to migrate its (spilled) chain to the other worker."""
    cluster = ClusterFrontend(
        substrate,
        num_workers=2,
        placement="cache_aware",
        migrate_on_miss=True,
        migration_codec=migration_codec,
        scheduler_config=SchedulerConfig(max_prefill_chunk_tokens=512),
        kv_spill_codec=spill_codec,
    )
    outputs = {}
    rng = np.random.default_rng(3)
    for conv_index in range(NUM_CONVS):
        conversation = multi_turn_conversation(
            num_turns=2, system_tokens=SYSTEM_TOKENS,
            turn_tokens=TURN_TOKENS, seed=conv_index,
        )
        history = conversation.initial_history()
        warm_id = f"c{conv_index}t0"
        prompt = conversation.prompt_for_turn(0, history)
        cluster.submit(Request(
            request_id=warm_id, prompt_ids=prompt,
            sampling=SamplingParams(max_new_tokens=ANSWER_TOKENS),
        ))
        out = cluster.run()[warm_id]
        history = conversation.extend_history(prompt, out.token_ids)

        # Spill the chain at its owner and load the owner so the follow-up
        # turn routes (and migrates) to the other worker.
        owner = cluster.worker_of(warm_id)
        cluster.release(warm_id)
        owner.prefix_cache.evict(owner.prefix_cache.num_resident)
        assert owner.prefix_cache.num_spilled > 0
        owner.submit(Request(
            request_id=f"fill{conv_index}",
            prompt_ids=rng.integers(4, 512, size=256).tolist(),
            sampling=SamplingParams(max_new_tokens=48),
        ))

        turn_id = f"c{conv_index}t1"
        cluster.submit(Request(
            request_id=turn_id,
            prompt_ids=conversation.prompt_for_turn(1, history),
            sampling=SamplingParams(max_new_tokens=ANSWER_TOKENS),
        ))
        placement = cluster.placements[-1]
        assert placement.migrate_from == owner.worker_id, conv_index
        outputs[turn_id] = cluster.run()[turn_id]
        # Release the drained requests: a retained output pins its chain
        # (refcount 2), which would make the next round's evict target
        # unreachable and churn the disk tier instead of spilling.
        cluster.release(turn_id)
        owner.release(f"fill{conv_index}")
    return outputs, cluster


def test_compressed_migration_cuts_wire_bytes(substrate):
    raw_outputs, raw_cluster = run_migration_trace(substrate, "raw", "raw")
    quant_outputs, quant_cluster = run_migration_trace(
        substrate, "int4", "int4"
    )

    raw, quant = raw_cluster.metrics, quant_cluster.metrics
    assert raw.migrations == quant.migrations == NUM_CONVS
    # Logical migration accounting is codec-invariant.
    assert raw.migrated_blocks == quant.migrated_blocks
    assert raw.migrated_kv_bytes == quant.migrated_kv_bytes > 0
    assert raw.migration_compression_ratio == pytest.approx(1.0)
    # The parked int4 payloads are what crossed the links.
    assert quant.migration_compression_ratio >= WIRE_REDUCTION_FLOOR, (
        f"migration wire reduction {quant.migration_compression_ratio:.2f}x "
        f"< {WIRE_REDUCTION_FLOOR}x floor"
    )
    assert quant.migration_seconds < raw.migration_seconds
    # Every migrated follow-up turn still served off its shipped chain.
    for turn_id, out in quant_outputs.items():
        assert out.finished, turn_id
        assert out.metrics.cached_prefix_tokens > 0, turn_id

    print()
    print(f"compressed migration: {NUM_CONVS} conversations, "
          f"system {SYSTEM_TOKENS} tokens")
    for label, metrics in (("raw", raw), ("int4", quant)):
        print(
            f"  {label:>5}: kv {metrics.migrated_kv_bytes / 1e3:.1f} KB -> "
            f"wire {metrics.migrated_kv_wire_bytes / 1e3:.1f} KB "
            f"({metrics.migration_compression_ratio:.2f}x), "
            f"transfer {metrics.migration_seconds * 1e3:.4f} ms"
        )
