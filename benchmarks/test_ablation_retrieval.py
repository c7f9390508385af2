"""Ablation (paper §5 discussion) — PQ vs IVF vs exact retrieval over keys.

The paper chooses PQ over other ANNS structures because of its negligible
construction cost; §5 lists IVF/HNSW as future extensions.  This ablation
compares retrieval recall and (modelled) construction cost of flat, IVF and
PQ indexes over real per-head key matrices from the substrate — the paper's
case for PQ is what it costs to build during prefill, not a recall advantage.
"""

import numpy as np
import pytest

from conftest import print_series
from repro.core import PQConfig
from repro.llm import ModelConfig, TransformerLM
from retrieval import FlatIndex, IVFIndex, PQIndex, recall_at_k

TOP_K = 32


def test_pq_vs_ivf_retrieval(benchmark):
    config = ModelConfig.tiny()
    model = TransformerLM(config, seed=0)
    rng = np.random.default_rng(0)
    prompt = rng.integers(4, config.vocab_size, size=512).tolist()
    prefill = model.prefill(prompt, collect_queries=True)
    keys = prefill.kvcache[1].keys[0]                 # (s, d_h) one head
    query = prefill.prompt_queries[1][0, -1, :]       # that head's last query

    def run():
        flat = FlatIndex(dim=keys.shape[1])
        flat.add(keys)
        exact_ids, _ = flat.search(query, TOP_K)

        results = {}
        pq = PQIndex(PQConfig(dim=keys.shape[1], num_partitions=2, num_bits=6,
                              max_kmeans_iters=15, seed=0))
        pq.train(keys)
        pq_ids, _ = pq.search(query, TOP_K)
        results["pq"] = recall_at_k(pq_ids, exact_ids)

        for n_probe in (2, 8):
            ivf = IVFIndex(dim=keys.shape[1], n_lists=16, n_probe=n_probe, seed=0)
            ivf.train(keys)
            ivf_ids, _ = ivf.search(query, TOP_K)
            results[f"ivf-probe{n_probe}"] = recall_at_k(ivf_ids, exact_ids)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(f"Ablation: recall@{TOP_K} of approximate indexes vs exact", results)

    assert results["pq"] > 0.3
    assert results["ivf-probe8"] >= results["ivf-probe2"] - 1e-9
