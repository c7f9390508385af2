"""Engine throughput and chunked-prefill TTFT benchmarks.

Part 1 — serving baseline for scheduler PRs: runs the same PQCache-policy
traffic (8 requests, mixed 256/384/512-token prompts, 4 tokens each) through
the ``InferenceEngine`` at batch sizes 1, 4 and 8, and records:

* wall-clock requests/s of the NumPy substrate (the `benchmark` timing),
* simulated requests/s and mean TPOT on the paper-testbed clock.

Later scheduler/batching PRs should move the wall-clock number without
changing the simulated numbers (which only depend on the latency model) or
the generated tokens (batching must stay transparent).

Part 2 — chunked-prefill TTFT benchmark: a short prompt submitted behind a
16k-token prefill.  Without chunking the short request's TTFT includes the
whole 16k makespan (head-of-line blocking); with chunking
(``max_prefill_chunk_tokens``) its prefill interleaves between the long
prompt's chunks and its simulated TTFT must improve by >= 2x (it improves by
orders of magnitude in practice), while the long prompt's own prefill charge
stays identical thanks to the telescoping chunk FLOP model.  The substrate
really processes all 16k tokens through the chunked pipeline — only the
*clock* is simulated — so a deliberately micro model geometry keeps the
NumPy wall-clock tolerable.
"""

import numpy as np
import pytest

from conftest import make_budget, print_series

from repro.llm import ModelConfig, TransformerLM
from repro.serve import (
    InferenceEngine,
    PolicySpec,
    Request,
    SamplingParams,
    SchedulerConfig,
)

BATCH_SIZES = (1, 4, 8)
PROMPT_LENS = (256, 384, 512, 256, 384, 512, 256, 384)
MAX_NEW_TOKENS = 4


@pytest.fixture(scope="module")
def substrate():
    return TransformerLM(ModelConfig.tiny(), seed=0)


def _make_requests(config, budget):
    rng = np.random.default_rng(17)
    return [
        Request(
            prompt_ids=rng.integers(4, config.vocab_size, size=n).tolist(),
            sampling=SamplingParams(max_new_tokens=MAX_NEW_TOKENS),
            policy_spec=PolicySpec.named(
                "pqcache", budget,
            ),
        )
        for n in PROMPT_LENS
    ]


def test_engine_throughput(benchmark, substrate):
    budget = make_budget(token_ratio=0.2, comm_ratio=1.0 / 128.0)

    def serve_all():
        rows = {}
        for batch_size in BATCH_SIZES:
            engine = InferenceEngine(
                substrate,
                scheduler_config=SchedulerConfig(max_batch_size=batch_size),
            )
            outputs = engine.run(_make_requests(substrate.config, budget))
            tpots = [out.metrics.tpot for out in outputs.values()]
            rows[batch_size] = {
                "simulated_rps": engine.metrics.requests_per_second,
                "simulated_tok_s": engine.metrics.tokens_per_second,
                "simulated_tpot_ms": 1e3 * float(np.mean(tpots)),
                "tokens": sum(len(out.token_ids) for out in outputs.values()),
            }
        return rows

    rows = benchmark.pedantic(serve_all, rounds=1, iterations=1)
    print_series("Engine throughput (8 PQCache requests, mixed prompts)", rows)

    reference = None
    for batch_size, row in rows.items():
        # Every configuration serves all traffic to completion...
        assert row["tokens"] == len(PROMPT_LENS) * MAX_NEW_TOKENS
        # ...and batching is transparent to the simulated per-token service
        # time (same latency model, same per-request work).
        if reference is None:
            reference = row["simulated_tpot_ms"]
        assert row["simulated_tpot_ms"] == pytest.approx(reference, rel=1e-6)
        assert row["simulated_rps"] > 0.0


# --------------------------------------------------------------------------
# Part 2: chunked-prefill TTFT benchmark (short prompt behind a 16k prefill)
# --------------------------------------------------------------------------

CHUNKED_LONG_PROMPT = 16384
CHUNKED_SHORT_PROMPT = 64
CHUNKED_BUDGET_TOKENS = 2048


def test_chunked_prefill_ttft(benchmark):
    # Micro geometry: the 16k-token prefill runs twice for real (monolithic
    # baseline prefill is computed once and shared; the chunked run drives
    # the actual chunked pipeline), so keep every head/layer dimension tiny.
    config = ModelConfig(
        num_layers=1, hidden_dim=8, num_heads=1, num_kv_heads=1,
        ffn_dim=16, vocab_size=64, name="ttft-bench",
    )
    model = TransformerLM(config, seed=0)
    rng = np.random.default_rng(11)
    long_prompt = rng.integers(4, config.vocab_size, size=CHUNKED_LONG_PROMPT).tolist()
    short_prompt = rng.integers(4, config.vocab_size, size=CHUNKED_SHORT_PROMPT).tolist()
    # The unchunked baseline charges the same simulated makespan whether the
    # prefill tensor math reruns or not, so share one precomputed prefill to
    # halve the benchmark's NumPy wall-clock.
    baseline_prefill = model.prefill(long_prompt)

    def serve(chunk_tokens, reuse_prefill):
        engine = InferenceEngine(
            model,
            scheduler_config=SchedulerConfig(
                max_batch_size=2, max_prefill_chunk_tokens=chunk_tokens
            ),
        )
        long_request = Request(
            prompt_ids=long_prompt,
            sampling=SamplingParams(max_new_tokens=1),
            prefill=baseline_prefill if reuse_prefill else None,
        )
        short_request = Request(
            prompt_ids=short_prompt, sampling=SamplingParams(max_new_tokens=1)
        )
        engine.submit(long_request)
        engine.submit(short_request)
        outputs = engine.run()
        return {
            "short_ttft": outputs[short_request.request_id].metrics.ttft,
            "long_ttft": outputs[long_request.request_id].metrics.ttft,
            "long_prefill_s": outputs[long_request.request_id].metrics.prefill_seconds,
            "long_chunks": outputs[long_request.request_id].metrics.prefill_chunks,
        }

    def run_both():
        return {
            "unchunked": serve(None, reuse_prefill=True),
            "chunked": serve(CHUNKED_BUDGET_TOKENS, reuse_prefill=False),
        }

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print_series(
        "Chunked-prefill TTFT (64-token prompt behind a 16k-token prefill)", rows
    )

    unchunked, chunked = rows["unchunked"], rows["chunked"]
    assert chunked["long_chunks"] >= CHUNKED_LONG_PROMPT // CHUNKED_BUDGET_TOKENS
    # Headline: the short prompt is no longer head-of-line blocked.
    assert chunked["short_ttft"] * 2.0 <= unchunked["short_ttft"]
    # The long prompt pays the same total prefill charge either way
    # (telescoping chunk FLOPs; "full" attention has no overlap residual).
    assert chunked["long_prefill_s"] == pytest.approx(
        unchunked["long_prefill_s"], rel=1e-9
    )
