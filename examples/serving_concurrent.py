#!/usr/bin/env python
"""Concurrent serving demo: continuous batching over mixed open-loop traffic.

Ten requests with heterogeneous prompt lengths (512-2048 tokens),
per-request token budgets and per-request KVCache policies arrive at an
``InferenceEngine`` with a 4-slot batch on a seeded Poisson schedule
(:func:`repro.workloads.poisson_arrivals`).  Each is submitted up front with
its ``arrival_time``: the engine holds it until its simulated clock gets
there, idles over gaps, admits requests as slots free up (continuous
batching), interleaves their decode rounds, and streams tokens
incrementally.  At the end we print each request's serving metrics — TTFT
counts from its arrival — and the engine-level throughput on the simulated
paper-testbed clock (RTX 4090 + PCIe 1.0 x16).

Run with::

    python examples/serving_concurrent.py
"""

from __future__ import annotations

import numpy as np

from repro.baselines import SelectionBudget
from repro.llm import ModelConfig, TransformerLM
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    PolicySpec,
    Request,
    SamplingParams,
    SchedulerConfig,
)
from repro.workloads import poisson_arrivals

#: mean arrivals per simulated second: bursts queue, lulls let the engine idle
ARRIVAL_RATE = 250.0

#: (prompt length, policy, max_new_tokens) per request — deliberately mixed.
TRAFFIC = [
    (512, "pqcache", 8),
    (768, "snapkv", 4),
    (1024, "pqcache", 6),
    (640, "h2o", 8),
    (2048, "pqcache", 4),
    (896, "sparq", 6),
    (1280, "infllm", 4),
    (560, "streaming-llm", 8),
    (1536, "pqcache", 6),
    (720, "full", 4),
]


def main() -> None:
    config = ModelConfig.tiny()
    model = TransformerLM(config, seed=0)
    engine = InferenceEngine(model, EngineConfig(
        scheduler=SchedulerConfig(max_batch_size=4, max_prefills_per_step=2),
    ))
    budget = SelectionBudget(token_ratio=0.2, comm_ratio=1 / 128,
                             num_initial=4, num_local=32)

    rng = np.random.default_rng(7)
    arrivals = poisson_arrivals(len(TRAFFIC), rate=ARRIVAL_RATE, seed=7)
    requests = []
    for (prompt_len, policy_name, max_new), event in zip(TRAFFIC, arrivals):
        prompt = rng.integers(4, config.vocab_size, size=prompt_len).tolist()
        requests.append(Request(
            prompt_ids=prompt,
            sampling=SamplingParams(max_new_tokens=max_new),
            policy_spec=PolicySpec.named(policy_name, budget),
        ))
        engine.submit(requests[-1], arrival_time=event.time)

    print(f"submitted {len(requests)} requests "
          f"(prompts {min(t[0] for t in TRAFFIC)}-{max(t[0] for t in TRAFFIC)} "
          f"tokens, arriving over {arrivals[-1].time * 1e3:.1f} simulated ms) "
          f"into a {engine.scheduler.config.max_batch_size}-slot batch\n")

    step = 0
    while engine.has_unfinished:
        outputs = engine.step()
        step += 1
        finished = [o.request_id for o in outputs if o.finished]
        streamed = sum(len(o.new_token_ids) for o in outputs)
        print(f"step {step:2d} @ {engine.metrics.clock * 1e3:6.1f} ms: "
              f"running={engine.num_running} waiting={engine.num_waiting} "
              f"streamed={streamed} tokens"
              + (f"  finished={finished}" if finished else ""))

    print("\nper-request serving metrics (simulated clock):")
    header = f"{'request':>8} {'policy':>14} {'prompt':>7} {'tokens':>7} " \
             f"{'arrive ms':>9} {'TTFT ms':>9} {'TPOT ms':>9} {'attended':>9}"
    print(header)
    for request, (_, policy_name, _) in zip(requests, TRAFFIC):
        m = engine.final_output(request.request_id).metrics
        print(f"{request.request_id:>8} {policy_name:>14} "
              f"{m.num_prompt_tokens:>7} {m.num_generated_tokens:>7} "
              f"{1e3 * m.arrival_time:>9.1f} {1e3 * m.ttft:>9.1f} {1e3 * m.tpot:>9.2f} "
              f"{m.mean_attended_tokens:>9.0f}")

    stats = engine.metrics
    print(f"\nengine: {stats.steps} steps, {stats.decode_rounds} decode rounds, "
          f"{stats.generated_tokens} tokens in {stats.clock:.3f} simulated s "
          f"({stats.requests_per_second:.1f} req/s, "
          f"{stats.tokens_per_second:.1f} tok/s)")


if __name__ == "__main__":
    main()
