"""Figure 1 — KVCache memory size and PCIe Gen 5 transfer latency.

Paper: KVCache grows linearly with batch size and sequence length; a 7B model
at 128K context and batch 128 needs ~1 TB, exceeding an 8xA100 node (640 GB),
and even transferring it once over PCIe 5.0 takes seconds.
"""

import pytest

from conftest import print_series
from cost_model import KVCacheCostModel
from repro.llm import ModelConfig
from repro.memory import InterconnectSpec

SEQ_LENS = (8 * 1024, 32 * 1024, 128 * 1024)
BATCHES = (8, 32, 128)


def _models():
    mha_7b = ModelConfig(num_layers=32, hidden_dim=4096, num_heads=32,
                         num_kv_heads=32, ffn_dim=11008, name="7b")
    mha_13b = ModelConfig(num_layers=40, hidden_dim=5120, num_heads=40,
                          num_kv_heads=40, ffn_dim=13824, name="13b")
    return {"7b": mha_7b, "13b": mha_13b}


def test_kvcache_memory_and_transfer(benchmark):
    link = InterconnectSpec.pcie5_x16()

    def run():
        rows = []
        for name, model in _models().items():
            rows.extend(KVCacheCostModel(model, link).sweep(SEQ_LENS, BATCHES))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    series = {
        f"{r['model']}-bs{r['batch_size']}-s{r['seq_len']//1024}k":
            {"GiB": r["kvcache_gib"], "transfer_s": r["transfer_seconds"]}
        for r in rows
    }
    print_series("Figure 1 (KVCache memory / PCIe 5.0 transfer)", series)

    by_key = {(r["model"], r["batch_size"], r["seq_len"]): r for r in rows}
    headline = by_key[("7b", 128, 128 * 1024)]
    assert headline["kvcache_gib"] > 640            # exceeds 8xA100
    assert headline["kvcache_gib"] * 2 ** 30 > 0.9e12   # ~1 TB as in the paper
    assert headline["transfer_seconds"] > 1.0
    # 13B model needs more memory than 7B at the same setting.
    assert by_key[("13b", 32, 32 * 1024)]["kvcache_gib"] > \
        by_key[("7b", 32, 32 * 1024)]["kvcache_gib"]
    # Linear growth in both batch size and sequence length.
    assert by_key[("7b", 32, 32 * 1024)]["kvcache_gib"] == pytest.approx(
        4 * by_key[("7b", 8, 32 * 1024)]["kvcache_gib"])
