"""Engine throughput + decode-step microbenchmarks.

Part 1 — serving baseline for scheduler PRs: runs the same PQCache-policy
traffic (8 requests, mixed 256/384/512-token prompts, 4 tokens each) through
the ``InferenceEngine`` at batch sizes 1, 4 and 8, and records:

* wall-clock requests/s of the NumPy substrate (the `benchmark` timing),
* simulated requests/s and mean TPOT on the paper-testbed clock.

Later scheduler/batching PRs should move the wall-clock number without
changing the simulated numbers (which only depend on the latency model) or
the generated tokens (batching must stay transparent).

Part 2 — decode-step microbenchmark for the batched ADC hot path: per decode
token, PQCache pays (a) ADC scoring of every middle token plus per-head top-k
selection (the retrieval stage the vectorization targets) and (b) selective
attention over the chosen tokens.  ``test_decode_step_microbenchmark`` times
both stages through the vectorized kernels and through a faithful
reimplementation of the seed's per-head Python loops, asserts the two paths
pick byte-identical tokens, and asserts the retrieval stage is >= 3x faster
at (h_kv=8, seq_len=16384).  The attention stage is reported for context: it
is dominated by the key/value gather, which both paths pay identically, so it
sits near parity by construction.

Smoke mode (the default, used by CI and plain ``pytest``) runs the single
asserted (8, 16384) configuration; set ``REPRO_DECODE_BENCH=full`` for the
whole h_kv x seq_len grid.

Part 3 — chunked-prefill TTFT benchmark: a short prompt submitted behind a
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

import os
import time

import numpy as np
import pytest

from conftest import make_budget, print_series

from repro.core import PQCacheConfig, PQCacheManager
from repro.llm import KVCache, ModelConfig, TransformerLM
from repro.llm.attention import decode_attention
from repro.serve import (
    InferenceEngine,
    PolicySpec,
    Request,
    SamplingParams,
    SchedulerConfig,
)
from repro.utils import softmax, topk_indices

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
# Part 2: decode-step microbenchmark (batched ADC path vs per-head loops)
# --------------------------------------------------------------------------

#: (h_kv, seq_len) grid; smoke mode keeps only the asserted configuration.
DECODE_CONFIGS_FULL = ((4, 4096), (4, 16384), (8, 4096), (8, 16384))
DECODE_CONFIG_ASSERTED = (8, 16384)
#: local acceptance gate; CI overrides with a lower floor because shared
#: runners add wall-clock noise a best-of-5 timing cannot fully average out.
DECODE_SPEEDUP_FLOOR = float(os.environ.get("REPRO_DECODE_SPEEDUP_FLOOR", "3.0"))
DECODE_STEPS = 10
DECODE_REPEATS = 5
DECODE_HEAD_DIM = 64
DECODE_GROUP = 2


def _decode_bench_configs():
    if os.environ.get("REPRO_DECODE_BENCH", "smoke") == "full":
        return DECODE_CONFIGS_FULL
    return (DECODE_CONFIG_ASSERTED,)


def _legacy_adc_score(pq, query, codes):
    """The seed's per-head ``ProductQuantizer.score``: einsum lookup table,
    broadcast fancy-indexed gather, per-row sum."""
    cfg = pq.config
    sub_query = np.asarray(query, dtype=np.float64).reshape(
        cfg.num_partitions, cfg.sub_dim
    )
    table = np.einsum("md,mcd->mc", sub_query, pq.centroids)
    codes = np.asarray(codes, dtype=np.int64)
    gathered = table[np.arange(cfg.num_partitions)[None, :], codes]
    return gathered.sum(axis=1)


def _legacy_topk_middle(manager, head_codes, kv_queries, middle, k):
    """The seed's ``PQCacheManager.topk_middle``: one Python iteration per
    KV head, each scoring and selecting independently."""
    selected = []
    for head, codes in enumerate(head_codes):
        valid = middle[middle < codes.shape[0]]
        scores = _legacy_adc_score(
            manager.quantizer(0, head), kv_queries[head], codes[valid]
        )
        order = topk_indices(scores, min(k, valid.size))
        selected.append(valid[order])
    return selected


def _legacy_decode_attention(query, keys, values, per_head_indices):
    """The seed's nested ``kv_head x group`` decode-attention loop."""
    query = np.asarray(query, dtype=np.float64)
    h, d_h = query.shape
    h_kv = keys.shape[0]
    group = h // h_kv
    output = np.zeros((h, d_h))
    for kv_head, indices in enumerate(per_head_indices):
        if indices.size == 0:
            continue
        k_sel = keys[kv_head, indices, :]
        v_sel = values[kv_head, indices, :]
        for g in range(group):
            q_head = kv_head * group + g
            weights = softmax((k_sel @ query[q_head]) / np.sqrt(d_h))
            output[q_head] = weights @ v_sel
    return output


def _time_per_step(fn, steps, repeats):
    """Best-of-``repeats`` mean seconds per call of ``fn(step_index)``."""
    fn(0)  # warm-up
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for step in range(steps):
            fn(step)
        best = min(best, (time.perf_counter() - start) / steps)
    return best


def _bench_decode_config(h_kv, seq_len, rng):
    head_dim, group = DECODE_HEAD_DIM, DECODE_GROUP
    h = h_kv * group
    config = ModelConfig(
        num_layers=1, hidden_dim=h * head_dim, num_heads=h,
        num_kv_heads=h_kv, ffn_dim=4 * h * head_dim, vocab_size=256,
        name=f"decode-bench-h{h_kv}",
    )
    cache = KVCache(1, h_kv, head_dim)
    keys = rng.normal(size=(h_kv, seq_len, head_dim))
    cache[0].append(keys, keys)
    manager = PQCacheManager(
        config,
        PQCacheConfig(num_partitions=2, num_bits=6, max_kmeans_iters=2,
                      gpu_cache_tokens=0),
    )
    manager.build(cache)
    values = cache[0].values
    segments = cache.segments(num_initial=4, num_local=32)
    middle = segments.middle_indices
    k = max(seq_len // 10, 4)
    queries = rng.normal(size=(DECODE_STEPS, h, head_dim))
    kv_queries = queries.reshape(
        DECODE_STEPS, h_kv, group, head_dim
    ).mean(axis=2)
    # The seed stored one contiguous code buffer per head; materialise that
    # layout outside the timed region so the baseline is not penalised for
    # the new shared-buffer storage.
    head_codes = [
        np.ascontiguousarray(manager.codes(0, head)) for head in range(h_kv)
    ]

    # Both paths must pick byte-identical tokens on every step.
    selections = []
    for step in range(DECODE_STEPS):
        batched = manager.topk_middle(0, kv_queries[step], segments, k)
        legacy = _legacy_topk_middle(
            manager, head_codes, kv_queries[step], middle, k
        )
        # the same tokens per head; the batched path returns them as an
        # ascending index set, the seed returned them in score order
        for got, want in zip(batched, legacy):
            assert np.array_equal(got, np.sort(want))
        selections.append(batched)

    retrieval_batched = _time_per_step(
        lambda s: manager.topk_middle(0, kv_queries[s], segments, k),
        DECODE_STEPS, DECODE_REPEATS,
    )
    retrieval_legacy = _time_per_step(
        lambda s: _legacy_topk_middle(
            manager, head_codes, kv_queries[s], middle, k
        ),
        DECODE_STEPS, DECODE_REPEATS,
    )
    attention_batched = _time_per_step(
        lambda s: decode_attention(queries[s], keys, values, selections[s]),
        DECODE_STEPS, DECODE_REPEATS,
    )
    attention_legacy = _time_per_step(
        lambda s: _legacy_decode_attention(
            queries[s], keys, values, selections[s]
        ),
        DECODE_STEPS, DECODE_REPEATS,
    )
    return {
        "retrieval_tok_s": 1.0 / retrieval_batched,
        "retrieval_tok_s_legacy": 1.0 / retrieval_legacy,
        "retrieval_speedup": retrieval_legacy / retrieval_batched,
        "full_step_tok_s": 1.0 / (retrieval_batched + attention_batched),
        "full_step_tok_s_legacy": 1.0 / (retrieval_legacy + attention_legacy),
        "full_step_speedup": (retrieval_legacy + attention_legacy)
        / (retrieval_batched + attention_batched),
    }


def test_decode_step_microbenchmark(benchmark):
    rng = np.random.default_rng(123)

    def run_all():
        return {
            f"h_kv={h_kv}, seq={seq_len}": _bench_decode_config(
                h_kv, seq_len, rng
            )
            for h_kv, seq_len in _decode_bench_configs()
        }

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_series(
        "Decode-step microbenchmark (batched ADC vs per-head loops)", rows
    )

    asserted = "h_kv={}, seq={}".format(*DECODE_CONFIG_ASSERTED)
    for name, row in rows.items():
        assert row["retrieval_speedup"] > 1.0, name
        # Attention is gather-bound in both paths; guard against regression
        # without requiring a win there.
        assert row["full_step_speedup"] > 0.8, name
    if asserted in rows:
        assert rows[asserted]["retrieval_speedup"] >= DECODE_SPEEDUP_FLOOR


# --------------------------------------------------------------------------
# Part 3: chunked-prefill TTFT benchmark (short prompt behind a 16k prefill)
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
