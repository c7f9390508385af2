"""Tests for the KVCache cost model and the §3.2 complexity accounting."""

import pytest

from cost_model import ComplexityModel, KVCacheCostModel
from repro.core import PQCacheConfig
from repro.llm import ModelConfig
from repro.memory import InterconnectSpec


@pytest.fixture(scope="module")
def cost_model():
    return KVCacheCostModel(ModelConfig.llama3_8b(), InterconnectSpec.pcie5_x16())


class TestKVCacheCostModel:
    def test_memory_grows_linearly(self, cost_model):
        assert cost_model.kvcache_gib(128 * 1024) == pytest.approx(
            2 * cost_model.kvcache_gib(64 * 1024)
        )

    def test_figure1_batch128_exceeds_8xa100(self):
        """Figure 1: a 7B MHA model at 128K and batch 128 needs ~1 TB, beyond
        the 640 GB of an 8xA100 node."""
        mha_7b = ModelConfig(num_layers=32, hidden_dim=4096, num_heads=32,
                             num_kv_heads=32, ffn_dim=11008)
        model = KVCacheCostModel(mha_7b, InterconnectSpec.pcie5_x16())
        assert model.kvcache_gib(128 * 1024, batch_size=128) > 640

    def test_13b_larger_than_8b(self, cost_model):
        bigger = KVCacheCostModel(ModelConfig.llama2_13b(), InterconnectSpec.pcie5_x16())
        assert bigger.kvcache_gib(32 * 1024) > cost_model.kvcache_gib(32 * 1024)

    def test_transfer_time_scales_with_bytes(self, cost_model):
        assert cost_model.transfer_seconds(64 * 1024) > cost_model.transfer_seconds(8 * 1024)

    def test_fits_in_gpu(self, cost_model):
        assert cost_model.fits_in_gpu(8 * 1024, 1, gpu_memory_gib=24.0)
        assert not cost_model.fits_in_gpu(128 * 1024, 32, gpu_memory_gib=24.0)

    def test_sweep_rows(self, cost_model):
        rows = cost_model.sweep(seq_lens=(1024, 2048), batch_sizes=(1, 8))
        assert len(rows) == 4
        assert {"kvcache_gib", "transfer_seconds", "seq_len", "batch_size"} <= set(rows[0])


class TestComplexityModel:
    @pytest.fixture(scope="class")
    def complexity(self):
        return ComplexityModel(ModelConfig.llama3_8b(),
                               PQCacheConfig(num_partitions=2, num_bits=6))

    def test_prefill_quadratic(self, complexity):
        assert complexity.prefill_attention_ops(2048) > 2 * complexity.prefill_attention_ops(1024)

    def test_kmeans_linear_in_sequence(self, complexity):
        assert complexity.kmeans_ops(2048, 10) == pytest.approx(
            2 * complexity.kmeans_ops(1024, 10)
        )

    def test_pq_sequence_multiplier_small(self, complexity):
        """§3.2: the decode-time sequence multiplier h_kv*m is far smaller
        than the dense multiplier d (8*2 vs 4096 for the 8B model)."""
        assert complexity.seq_multiplier_ratio() < 0.01

    def test_pq_decode_cheaper_than_dense_for_long_contexts(self, complexity):
        seq_len = 128 * 1024
        dense = complexity.decode_original_ops(seq_len)
        pq = complexity.decode_pq_ops(seq_len, k=seq_len // 5)
        assert pq < dense

    def test_pq_memory_linear(self, complexity):
        assert complexity.pq_memory_elements(2 * 65536) < 2.1 * complexity.pq_memory_elements(65536)
