"""Multi-tenant QoS benchmark: SLO isolation under bursty oversubscription.

Two tenants share one bounded engine:

* ``chat`` — the foreground tenant: priority 2, weight 4, a steady seeded
  Poisson trace of interactive requests with a TTFT SLO;
* ``batch`` — the background tenant: priority 0, weight 1, bursty arrivals
  (:func:`repro.workloads.bursty_arrivals`) whose working set oversubscribes
  the KV pool roughly 2x at each burst peak.

Three replays of the same foreground trace — unloaded, with the background
trace merged in, and with the background *doubled* — must show the QoS
machinery (priority admission, weighted-fair chunk budgets, class-ordered
preemption, proactive swap-out) holding the foreground's p99 TTFT within
**1.5x of its unloaded baseline** (the issue's acceptance floor) while the
background tenant still makes progress.  The swap / recompute / proactive /
shed breakdown of every run is printed alongside the per-class latency
table.

Run with ``-s`` for the tables.
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
from repro.workloads import bursty_arrivals, merge_arrivals, poisson_arrivals, tag_arrivals

TTFT_SLO_FACTOR = 1.5      # acceptance floor: fg p99 TTFT vs unloaded baseline

BLOCK_SIZE = 16
POOL_BLOCKS = 48           # ~768 tokens resident; a burst peak wants ~2x that

FG_REQUESTS = 10
FG_PROMPT = 320            # 20 blocks
FG_NEW = 8
FG_RATE = 500.0            # arrivals per simulated second (~2 ms apart)
FG_QOS = RequestQoS(priority=2, tenant="chat", weight=4.0)

BG_BURSTS = 4
BG_BURST_SIZE = 10         # 10 x ~10 blocks ≈ 2x POOL_BLOCKS per burst
BG_PROMPT = 128
BG_NEW = 10
BG_QOS = RequestQoS(priority=0, tenant="batch", weight=1.0)


@pytest.fixture(scope="module")
def substrate() -> TransformerLM:
    config = ModelConfig(
        num_layers=2, hidden_dim=64, num_heads=4, num_kv_heads=2,
        ffn_dim=128, vocab_size=512, max_context=65536, name="qos-bench",
    )
    return TransformerLM(config, seed=0)


def make_engine(substrate) -> InferenceEngine:
    return InferenceEngine(substrate, EngineConfig(
        scheduler=SchedulerConfig(
            max_batch_size=3,
            max_prefill_chunk_tokens=512,
            proactive_swap_free_fraction=1.0,
        ),
        pool=PoolConfig(block_size=BLOCK_SIZE, blocks=POOL_BLOCKS),
        max_retained_outputs=0,
    ))


def fg_trace():
    return tag_arrivals(
        poisson_arrivals(FG_REQUESTS, rate=FG_RATE, seed=5),
        tenant=FG_QOS.tenant, priority=FG_QOS.priority,
    )


def bg_trace(doubled: bool):
    # doubling the burst *size* (not the count) keeps the burst onsets on
    # the same timeline, so the doubled load intensifies the very bursts
    # that overlap the foreground trace instead of appending quiet-period
    # bursts after it
    size = BG_BURST_SIZE * 2 if doubled else BG_BURST_SIZE
    return tag_arrivals(
        bursty_arrivals(BG_BURSTS, size,
                        burst_rate=200.0, within_burst_rate=20000.0, seed=7),
        tenant=BG_QOS.tenant, priority=BG_QOS.priority,
    )


def make_request(event, index: int, rng: np.random.Generator) -> Request:
    fg = event.tenant == FG_QOS.tenant
    plen = FG_PROMPT if fg else BG_PROMPT
    return Request(
        request_id=f"{event.tenant}-{index}",
        prompt_ids=rng.integers(4, 512, size=plen).tolist(),
        sampling=SamplingParams(max_new_tokens=FG_NEW if fg else BG_NEW),
        qos=FG_QOS if fg else BG_QOS,
    )


def replay(engine: InferenceEngine, events) -> dict:
    """Serve the trace on the engine's simulated clock.

    Each request arrives at its event's time: the engine holds it until its
    clock gets there and idles over gaps, and TTFT counts from the arrival,
    so queueing delay shows up in it.
    """
    rng = np.random.default_rng(11)
    for i, event in enumerate(events):
        engine.submit(make_request(event, i, rng), arrival_time=event.time)
    return engine.run()


def ttfts(finals, tenant: str) -> np.ndarray:
    values = [out.metrics.ttft for out in finals.values()
              if out.metrics.tenant == tenant and out.metrics.ttft is not None]
    return np.asarray(values, dtype=np.float64)


def tenant_ttft_p99(engine: InferenceEngine, tenant: str) -> float:
    """Streaming p99 from the engine's own per-tenant quantile digest —
    the metrics layer is the source of truth, not a raw-sample rebuild."""
    value = engine.metrics.per_tenant[tenant].ttft.percentile(99)
    assert value is not None
    return value


def describe_run(label: str, engine: InferenceEngine, finals) -> None:
    metrics = engine.metrics
    print(f"  {label}:")
    for tenant in (FG_QOS.tenant, BG_QOS.tenant):
        bucket = metrics.per_tenant.get(tenant)
        if bucket is None or bucket.ttft.count == 0:
            continue
        print(f"    {tenant:5s} TTFT p50 {bucket.ttft.percentile(50) * 1e6:8.1f}us   "
              f"p99 {bucket.ttft.percentile(99) * 1e6:8.1f}us   "
              f"({ttfts(finals, tenant).size} finished)")
    print(f"    preemptions: swap {metrics.preemptions_swap}, "
          f"recompute {metrics.preemptions_recompute}, "
          f"proactive swap-outs {metrics.proactive_swap_outs}, "
          f"shed {metrics.requests_shed}")
    for key in sorted(metrics.per_class):
        bucket = metrics.per_class[key].as_dict()
        mean_ttft = bucket["mean_ttft"]
        print(f"    class {key}: finished {bucket['requests_finished']}, "
              f"preemptions {bucket['preemptions']}, "
              f"mean TTFT {mean_ttft * 1e6:.1f}us")


def test_foreground_p99_ttft_survives_background_bursts(substrate):
    baseline_engine = make_engine(substrate)
    baseline = replay(baseline_engine, fg_trace())
    fg_baseline = ttfts(baseline, FG_QOS.tenant)
    assert fg_baseline.size == FG_REQUESTS

    # the streaming digest must agree with an exact rebuild from the raw
    # per-request samples — the SLO floor below leans on the digest alone
    baseline_p99 = tenant_ttft_p99(baseline_engine, FG_QOS.tenant)
    exact = float(np.percentile(fg_baseline, 99, method="nearest"))
    assert baseline_p99 == pytest.approx(exact, rel=0.05)

    loads = [("1x-background", False), ("2x-background", True)]

    print(f"\n=== Multi-tenant QoS, pool {POOL_BLOCKS} blocks x "
          f"{BLOCK_SIZE} tokens, chat {FG_REQUESTS} reqs, "
          f"batch {BG_BURSTS}(x2) bursts x {BG_BURST_SIZE} ===")
    describe_run("unloaded baseline", baseline_engine, baseline)

    floor = TTFT_SLO_FACTOR * baseline_p99
    for label, doubled in loads:
        engine = make_engine(substrate)
        finals = replay(engine, merge_arrivals(fg_trace(), bg_trace(doubled)))
        describe_run(label, engine, finals)

        fg = ttfts(finals, FG_QOS.tenant)
        bg = ttfts(finals, BG_QOS.tenant)
        fg_p99 = tenant_ttft_p99(engine, FG_QOS.tenant)
        ratio = fg_p99 / baseline_p99
        print(f"    → chat p99 ratio vs baseline: {ratio:.2f}x "
              f"(floor {TTFT_SLO_FACTOR}x)")

        assert fg.size == FG_REQUESTS, f"{label}: foreground request lost"
        assert bg.size > 0, f"{label}: background starved completely"
        assert fg_p99 <= floor, (
            f"{label}: foreground p99 TTFT {fg_p99 * 1e6:.1f}us exceeds "
            f"{TTFT_SLO_FACTOR}x unloaded baseline "
            f"({baseline_p99 * 1e6:.1f}us)"
        )
        # the background actually pressured the pool — otherwise the SLO
        # assertion is vacuous
        assert engine.metrics.preemptions + engine.metrics.proactive_swap_outs > 0, (
            f"{label}: no preemption pressure; the trace is not oversubscribed"
        )
