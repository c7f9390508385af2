"""Tests for model geometry configuration and its accounting helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.llm import ModelConfig


class TestValidation:
    def test_head_divisibility(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(num_layers=2, hidden_dim=100, num_heads=3, num_kv_heads=1,
                        ffn_dim=64)

    def test_gqa_grouping(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(num_layers=2, hidden_dim=64, num_heads=8, num_kv_heads=3,
                        ffn_dim=64)

    def test_positive_values(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(num_layers=0, hidden_dim=64, num_heads=4, num_kv_heads=2,
                        ffn_dim=64)
        with pytest.raises(ConfigurationError):
            ModelConfig(num_layers=2, hidden_dim=64, num_heads=4, num_kv_heads=2,
                        ffn_dim=64, dtype_bytes=3)


class TestGeometry:
    def test_head_dim_and_group(self):
        cfg = ModelConfig.llama3_8b()
        assert cfg.head_dim == 128
        assert cfg.gqa_group_size == 4

    def test_named_configs(self):
        assert ModelConfig.mistral_7b().max_context == 32768
        assert ModelConfig.llama3_70b().num_layers == 80
        assert ModelConfig.llama2_13b().num_kv_heads == 40
        assert ModelConfig.tiny().num_layers == 4
        assert ModelConfig.small().num_heads == 8


class TestMemoryAccounting:
    def test_kv_bytes_per_token_llama8b(self):
        cfg = ModelConfig.llama3_8b()
        # 2 (K+V) * 8 heads * 128 dim * 2 bytes * 32 layers = 131072 bytes/token
        assert cfg.kv_bytes_per_token() == 2 * 8 * 128 * 2 * 32

    def test_figure1_scale_128k_batch128(self):
        """Figure 1: a 7B-class model at 128K context and batch 128 needs on
        the order of 1 TB of KVCache if keys/values use all heads (MHA)."""
        mha_7b = ModelConfig(num_layers=32, hidden_dim=4096, num_heads=32,
                             num_kv_heads=32, ffn_dim=11008)
        total = mha_7b.kvcache_bytes(seq_len=128 * 1024, batch_size=128)
        assert total > 0.9e12

    def test_kvcache_scales_linearly(self):
        cfg = ModelConfig.llama3_8b()
        assert cfg.kvcache_bytes(2048) == 2 * cfg.kvcache_bytes(1024)
        assert cfg.kvcache_bytes(1024, batch_size=4) == 4 * cfg.kvcache_bytes(1024)


class TestFlopAccounting:
    def test_prefill_attention_quadratic(self):
        cfg = ModelConfig.tiny()
        f1 = cfg.attention_flops_prefill(1024)
        f2 = cfg.attention_flops_prefill(2048)
        assert f2 > 2 * f1  # super-linear growth

    def test_selective_attention_cuts_decode_layer_flops(self):
        cfg = ModelConfig.llama3_8b()
        full = cfg.layer_flops_decode(65536)
        selective = cfg.layer_flops_decode(65536, attended_tokens=65536 // 5)
        assert selective < full

    def test_layer_flops_positive(self):
        cfg = ModelConfig.tiny()
        assert cfg.layer_flops_prefill(128) > 0
        assert cfg.layer_flops_decode(128) > 0
