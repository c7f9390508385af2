"""Preemption-pressure benchmark: an oversubscribed KV pool must degrade
gracefully, not fail.

The pool is sized to roughly **half** the concurrent working set (2× more
concurrent request demand than blocks), which forces the scheduler through
its whole pressure repertoire — prefix-chain spill to the disk tier, victim
preemption, swap-out/swap-in (or drop-and-recompute with deterministic
replay).  The benchmark asserts the tentpole acceptance criterion:

* every request completes (no :class:`~repro.errors.CapacityError`),
* every output — tokens *and* per-step logits — is byte-identical to the
  same schedule served by an engine with an unbounded pool,
* the swap traffic is visible in :class:`~repro.serve.EngineMetrics`,

under **both** ``preemption_mode="swap"`` and ``"recompute"``, and prints a
swap-vs-recompute comparison (preemptions, moved bytes, simulated TPOT).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PQCacheConfig
from repro.llm import ModelConfig, TransformerLM
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    PoolConfig,
    PolicySpec,
    Request,
    SamplingParams,
    SchedulerConfig,
)

from conftest import make_budget

BLOCK_SIZE = 32
PROMPT_TOKENS = 256
ANSWER_TOKENS = 8
NUM_REQUESTS = 8


@pytest.fixture(scope="module")
def substrate() -> TransformerLM:
    config = ModelConfig(
        num_layers=2, hidden_dim=64, num_heads=4, num_kv_heads=2,
        ffn_dim=128, vocab_size=512, max_context=65536, name="preempt-bench",
    )
    return TransformerLM(config, seed=0)


def make_requests(substrate: TransformerLM) -> "list[Request]":
    rng = np.random.default_rng(11)
    requests = []
    for index in range(NUM_REQUESTS):
        spec = None
        if index % 2:
            spec = PolicySpec.named(
                "pqcache",
                make_budget(token_ratio=0.2, comm_ratio=1.0 / 64.0),
                pq_config=PQCacheConfig(max_kmeans_iters=6, gpu_cache_tokens=512),
            )
        requests.append(
            Request(
                prompt_ids=rng.integers(
                    4, substrate.config.vocab_size, size=PROMPT_TOKENS
                ).tolist(),
                request_id=f"pressure-{index}",
                sampling=SamplingParams(max_new_tokens=ANSWER_TOKENS),
                policy_spec=spec,
            )
        )
    return requests


def run_schedule(substrate, pool_blocks, mode):
    engine = InferenceEngine(substrate, EngineConfig(
        scheduler=SchedulerConfig(
            max_batch_size=NUM_REQUESTS,
            max_prefill_chunk_tokens=128,
            preemption_mode=mode,
        ),
        pool=PoolConfig(block_size=BLOCK_SIZE, blocks=pool_blocks),
        max_retained_outputs=0,
    ))
    finals = engine.run(make_requests(substrate))
    return finals, engine


def working_set_blocks() -> int:
    per_request = -(-(PROMPT_TOKENS + ANSWER_TOKENS + 1) // BLOCK_SIZE)
    return NUM_REQUESTS * per_request


def test_oversubscribed_pool_completes_byte_identical(substrate):
    """2× oversubscription: all requests finish, outputs match ground truth."""
    reference, _ = run_schedule(substrate, None, "swap")
    pool = working_set_blocks() // 2

    rows = []
    for mode in ("swap", "recompute"):
        finals, engine = run_schedule(substrate, pool, mode)
        assert len(finals) == NUM_REQUESTS
        for request_id, ref in reference.items():
            out = finals[request_id]
            assert out.token_ids == ref.token_ids, (pool, mode, request_id)
            assert np.array_equal(out.logits, ref.logits), (
                pool, mode, request_id,
            )
        metrics = engine.metrics
        assert metrics.preemptions > 0, (pool, mode)
        if mode == "swap":
            # Swap traffic is visible; resumes either restore stored
            # bytes or — when shared-block pins / tier pressure degraded
            # a parked request — replay through the recompute path.
            assert metrics.swap_out_bytes > 0
            assert (
                metrics.swap_in_bytes > 0
                or metrics.preemptions_recompute > 0
            )
        else:
            assert metrics.preemptions_recompute > 0
        tpots = [
            finals[rid].metrics.tpot for rid in finals
            if finals[rid].metrics.tpot is not None
        ]
        rows.append({
            "pool": pool,
            "mode": mode,
            "preemptions": metrics.preemptions,
            "swap_out_mb": metrics.swap_out_bytes / 1e6,
            "spill_out_mb": metrics.spill_out_bytes / 1e6,
            "swap_s": metrics.swap_seconds,
            "mean_tpot_ms": 1e3 * float(np.mean(tpots)),
            "e2e_s": metrics.clock,
        })

    print()
    print(
        f"preemption pressure: {NUM_REQUESTS} requests x {PROMPT_TOKENS} "
        f"tokens, working set {working_set_blocks()} blocks"
    )
    header = (
        f"{'pool':>5} {'mode':>10} {'preempt':>8} {'swapMB':>8} "
        f"{'spillMB':>8} {'swap_s':>9} {'tpot_ms':>8} {'e2e_s':>7}"
    )
    print(header)
    for row in rows:
        print(
            f"{row['pool']:>5} {row['mode']:>10} {row['preemptions']:>8} "
            f"{row['swap_out_mb']:>8.2f} {row['spill_out_mb']:>8.2f} "
            f"{row['swap_s']:>9.5f} {row['mean_tpot_ms']:>8.3f} "
            f"{row['e2e_s']:>7.3f}"
        )
