"""The substrate computes in one float dtype, and analysis stays in float64.

``repro.utils.DTYPE`` is the dtype of every weight, KV tensor, parked block,
PQ codebook, prefill aggregate and logits array.  A stray ``np.zeros``
default, a float64 RoPE table or a ``np.float64`` scalar silently promotes a
whole kernel to float64 under NumPy's promotion rules; this test drives one
engine (and one cluster) through every path that creates or moves those
arrays and checks each of them.  ``repro.eval`` metrics and ``LatencyModel``
are analysis and must still answer in float64 or Python floats.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import SelectionBudget
from repro.core.pqcache import PQCacheConfig, PQCacheManager
from repro.eval.metrics import (
    StepObservation,
    attention_recall_at_k,
    evidence_recovery,
    logit_divergence,
)
from repro.llm import ModelConfig, TransformerLM
from repro.llm.kvcache import TokenSegments
from repro.llm.kvcodec import KVBlockCodec
from repro.memory import HardwareSpec, LatencyModel
from repro.serve import (
    InferenceEngine,
    PolicySpec,
    PrefixCache,
    Request,
    SamplingParams,
    SchedulerConfig,
)
from repro.serve.cluster import ClusterFrontend
from repro.utils import DTYPE

PQ_CONFIG = PQCacheConfig(num_partitions=2, num_bits=2, max_kmeans_iters=4,
                          gpu_cache_tokens=64, gpu_cache_block=8)
BUDGET = SelectionBudget(token_ratio=0.3, num_initial=2, num_local=8)


@pytest.fixture(scope="module")
def small_model():
    config = ModelConfig(num_layers=2, hidden_dim=32, num_heads=4, num_kv_heads=2,
                         ffn_dim=64, vocab_size=128, name="dtype-guard")
    return TransformerLM(config, seed=7)


class Seen:
    """Every float array the wrapped calls handed over, by where it was seen."""

    def __init__(self) -> None:
        self.arrays: list[tuple[str, np.ndarray]] = []

    def add(self, where: str, *arrays) -> None:
        for array in arrays:
            self.arrays.append((where, np.asarray(array)))

    def places(self) -> set:
        return {where for where, _ in self.arrays}

    def off_dtype(self) -> list:
        return sorted({(where, str(array.dtype)) for where, array in self.arrays
                       if array.dtype != DTYPE})


@pytest.fixture
def seen(monkeypatch):
    record = Seen()
    encode, decode = KVBlockCodec.encode, KVBlockCodec.decode
    finish, decode_round = TransformerLM.finish_prefill, TransformerLM.decode_step_batch
    import_chain = PrefixCache.import_chain

    def parked(codec, array):
        encoded = encode(codec, array)
        record.add("parked", encoded.payload)
        return encoded

    def restored(codec, encoded):
        array = decode(codec, encoded)
        record.add("restored", array)
        return array

    def prefilled(model, state):
        result = finish(model, state)
        record.add("logits", result.logits)
        record.add("hidden", result.last_hidden)
        for aggregates in result.aggregates:
            record.add("aggregate", aggregates.accumulated_scores, aggregates.window_scores)
        for layer in result.kvcache.layers:
            record.add("kv", layer.keys, layer.values)
        for snapshot in result.acc_snapshots.values():
            record.add("acc snapshot", *snapshot)
        return result

    def decoded(model, token_ids, caches, selector=None, timings=None):
        logits = decode_round(model, token_ids, caches, selector, timings)
        record.add("logits", *logits)
        for cache in caches:
            for layer in cache.layers:
                record.add("kv", layer.keys, layer.values)
        return logits

    def imported(cache, chain):
        for node in chain.nodes:
            record.add("migrated", node.keys.payload, node.values.payload)
            if node.acc_scores is not None:
                record.add("acc snapshot", *node.acc_scores)
            for snapshot in node.pq_snapshots.values():
                record.add("codebook", *snapshot.codebooks)
        return import_chain(cache, chain)

    monkeypatch.setattr(KVBlockCodec, "encode", parked)
    monkeypatch.setattr(KVBlockCodec, "decode", restored)
    monkeypatch.setattr(TransformerLM, "finish_prefill", prefilled)
    monkeypatch.setattr(TransformerLM, "decode_step_batch", decoded)
    monkeypatch.setattr(PrefixCache, "import_chain", imported)
    return record


def _request(rid, prompt, policy):
    spec = None if policy is None else PolicySpec.named(
        policy, BUDGET, **({"pq_config": PQ_CONFIG, "sketch_tokens": 16}
                           if policy == "pqcache" else {}))
    return Request(prompt_ids=list(prompt), request_id=rid, policy_spec=spec,
                   sampling=SamplingParams(max_new_tokens=5, observation_window=8))


def _cached_payloads(seen, prefix_cache):
    for node in prefix_cache._nodes.values():
        if node.acc_scores is not None:
            seen.add("acc snapshot", *node.acc_scores)
        for snapshot in node.pq_snapshots.values():
            seen.add("codebook", *snapshot.codebooks)


def test_engine_paths_keep_the_substrate_dtype(small_model, seen):
    rng = np.random.default_rng(21)
    prompts = [rng.integers(4, 128, size=100) for _ in range(4)]
    engine = InferenceEngine(
        small_model,
        scheduler_config=SchedulerConfig(max_batch_size=4, max_prefill_chunk_tokens=32,
                                         preemption_mode="swap"),
        enable_prefix_caching=True, kv_block_size=8, kv_pool_blocks=28,
        max_retained_outputs=0,
    )
    policies = [None, "pqcache", None, "snapkv"]
    finals = engine.run([_request(f"c{i}", p, policy)
                         for i, (p, policy) in enumerate(zip(prompts, policies))])
    _cached_payloads(seen, engine.prefix_cache)
    # the PQCache prompt again: a prefix hit restored from the disk tier
    finals.update(engine.run([_request("again", prompts[1], "pqcache")]))

    metrics, cache = engine.metrics, engine.prefix_cache.stats
    assert metrics.swap_out_blocks > 0 and metrics.swap_in_blocks > 0
    assert cache.spilled_blocks > 0 and cache.restored_blocks > 0
    assert finals["again"].metrics.cached_prefix_tokens > 0
    _cached_payloads(seen, engine.prefix_cache)
    allocator = engine.block_allocator
    seen.add("pool", *allocator.layer_planes(0))
    for output in finals.values():
        seen.add("logits", output.logits)
    assert {"parked", "restored", "logits", "hidden", "aggregate", "kv",
            "acc snapshot", "codebook", "pool"} <= seen.places()
    assert seen.off_dtype() == []


def test_migrated_chain_keeps_the_substrate_dtype(small_model, seen):
    rng = np.random.default_rng(5)
    prompt = rng.integers(4, 128, size=96).tolist()
    cluster = ClusterFrontend(small_model, num_workers=2, placement="cache_aware",
                              migrate_on_miss=True)
    cluster.run([_request("warm", prompt, "pqcache")])
    cluster.release("warm")
    owner = cluster.workers[0]
    owner.prefix_cache.evict(owner.prefix_cache.num_resident)
    # keep the owner busy so the follow-up lands on the other worker
    owner.submit(_request("fill", rng.integers(4, 128, size=80), None))
    cluster.submit(_request("follow", prompt + [5, 6, 7, 8, 9, 10, 11, 12], "pqcache"))
    assert cluster.placements[-1].migrate_from == 0
    cluster.run()
    assert cluster.metrics.migrations == 1
    assert {"migrated", "codebook"} <= seen.places()
    assert seen.off_dtype() == []


def test_standalone_manager_and_analysis_dtypes(small_model):
    config = small_model.config
    prefill = small_model.prefill(list(range(4, 100)), collect_queries=True)
    assert prefill.prompt_queries[0].dtype == DTYPE
    manager = PQCacheManager(config, PQ_CONFIG)
    manager.build(prefill.kvcache)
    for layer in range(config.num_layers):
        assert manager.codebooks(layer).dtype == DTYPE
    queries = prefill.prompt_queries[0][:, -1].reshape(
        config.num_kv_heads, config.gqa_group_size, -1).mean(axis=1)
    assert manager.approximate_scores(0, queries).dtype == DTYPE

    # analysis: float64 or Python floats whatever the substrate computes in
    layer = prefill.kvcache[0]
    obs = StepObservation(0, queries, layer.keys, None, TokenSegments(96, 2, 8))
    for value in (attention_recall_at_k(obs, 8), evidence_recovery(obs, np.arange(10, 20)),
                  logit_divergence(prefill.logits, prefill.logits + 0.1)):
        assert type(value) is float
    latency = LatencyModel(HardwareSpec.paper_testbed(), config)
    assert type(latency.tpot(4096)) is float
    assert type(latency.swap_in_seconds(1e6)) is float
    decomposition = latency.prefill_decomposition(4096)
    assert all(type(v) is float for v in decomposition.values()
               if isinstance(v, (float, np.floating)))
