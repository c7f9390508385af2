"""Deadline SLO benchmark: EDF vs plain FCFS under oversubscription.

One burst of same-priority requests lands on an engine whose KV pool and
batch ceiling are ~2x oversubscribed, so everything queues.  Deadlines are
assigned *adversarially for FCFS*: a probe replay (no deadlines) yields the
burst's sorted finish times ``F_(1) <= ... <= F_(N)``, and submission ``i``
then gets the relative deadline ``F_(N-1-i) * (1 + slack)`` — the
earliest-submitted requests get the loosest deadlines.  Under FCFS the
``i``-th submission still finishes near ``F_(i)``, so roughly half the
burst lands past its (reversed) deadline; EDF reorders the queue into
deadline order and meets more of them (preemptions under the
oversubscribed pool still push some past theirs).  The benchmark asserts
the EDF replay's SLO-met fraction strictly beats the FCFS replay's.

Both replays run with ``shed_missed_deadlines=False``: every request must
complete so the met fraction compares *scheduling order* alone, and the
deadline-steering invariant (tokens identical either way) stays auditable.

Run with ``-s`` for the per-run table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.llm import ModelConfig, TransformerLM
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    PoolConfig,
    Request,
    RequestQoS,
    SamplingParams,
    SchedulerConfig,
)

NUM_REQUESTS = 16
PROMPT_LEN = 192           # 12 blocks each
MAX_NEW = 6
SLACK = 0.3                # deadline headroom over the probe finish times

BLOCK_SIZE = 16
POOL_BLOCKS = (NUM_REQUESTS * PROMPT_LEN // BLOCK_SIZE) // 2  # ~2x oversub


@pytest.fixture(scope="module")
def substrate() -> TransformerLM:
    config = ModelConfig(
        num_layers=2, hidden_dim=64, num_heads=4, num_kv_heads=2,
        ffn_dim=128, vocab_size=512, max_context=65536, name="deadline-bench",
    )
    return TransformerLM(config, seed=0)


def make_engine(substrate) -> InferenceEngine:
    return InferenceEngine(substrate, EngineConfig(
        # the batch ceiling is wide enough that the *pool* binds: 8 resident
        # requests want ~104 blocks against the ~2x-oversubscribed pool, so
        # decode growth preempts while the rest of the burst queues
        scheduler=SchedulerConfig(
            max_batch_size=8,
            max_prefill_chunk_tokens=256,
            shed_missed_deadlines=False,
        ),
        pool=PoolConfig(block_size=BLOCK_SIZE, blocks=POOL_BLOCKS),
    ))


def make_requests(deadlines: "list[float | None]") -> list[Request]:
    rng = np.random.default_rng(3)
    return [
        Request(
            request_id=f"req-{i}",
            prompt_ids=rng.integers(4, 512, size=PROMPT_LEN).tolist(),
            sampling=SamplingParams(max_new_tokens=MAX_NEW),
            qos=RequestQoS(deadline=deadlines[i]),
        )
        for i in range(NUM_REQUESTS)
    ]


def replay(substrate, deadlines: "list[float | None]"):
    """Submit the whole burst at clock 0, run to completion."""
    engine = make_engine(substrate)
    for request in make_requests(deadlines):
        engine.submit(request)
    return engine, engine.run()


def met_fraction(finals, deadlines: list[float]) -> float:
    met = sum(
        1 for i in range(NUM_REQUESTS)
        if finals[f"req-{i}"].metrics.finish_time <= deadlines[i]
    )
    return met / NUM_REQUESTS


def test_edf_beats_fcfs_on_slo_met_fraction(substrate):
    # probe: no deadlines, pure FCFS — its sorted finish times calibrate
    # a deadline set the burst *can* meet in some order
    _, probe = replay(substrate, [None] * NUM_REQUESTS)
    finish = sorted(
        probe[f"req-{i}"].metrics.finish_time for i in range(NUM_REQUESTS)
    )
    assert finish[0] > 0.0
    # submission i gets the (N-1-i)-th finish time: loosest deadlines to
    # the earliest submissions — adversarial for FCFS, benign for EDF
    deadlines = [
        finish[NUM_REQUESTS - 1 - i] * (1.0 + SLACK)
        for i in range(NUM_REQUESTS)
    ]

    fcfs_engine, fcfs = replay(substrate, [None] * NUM_REQUESTS)
    edf_engine, edf = replay(substrate, deadlines)

    # deadlines steer scheduling only: every request's tokens are
    # byte-identical between the two replays
    for i in range(NUM_REQUESTS):
        rid = f"req-{i}"
        assert fcfs[rid].token_ids == edf[rid].token_ids
        assert fcfs[rid].finish_reason == "length"
        assert edf[rid].finish_reason == "length"
    assert edf_engine.metrics.deadline_misses == 0  # shedding disabled

    fcfs_met = met_fraction(fcfs, deadlines)
    edf_met = met_fraction(edf, deadlines)

    print(f"\n=== Deadline SLO, burst {NUM_REQUESTS} x {PROMPT_LEN} tokens, "
          f"pool {POOL_BLOCKS} blocks x {BLOCK_SIZE} ===")
    print(f"  FCFS SLO-met fraction: {fcfs_met:.2f}")
    print(f"  EDF  SLO-met fraction: {edf_met:.2f}")
    print(f"  finish-time spread: {finish[-1] / finish[0]:.1f}x")

    # the pool actually deferred admission — the burst finished in waves,
    # not all at once; otherwise the comparison is vacuous
    assert finish[-1] > 2.0 * finish[0], "no queuing: pool not oversubscribed"
    assert fcfs_met < 1.0, "FCFS met every deadline; trace is not adversarial"
    assert edf_met > fcfs_met, (
        f"EDF met fraction {edf_met:.2f} does not beat FCFS {fcfs_met:.2f}"
    )
