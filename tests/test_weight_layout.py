"""Every projection weight is stored so that ``weight.T`` is C-contiguous.

``Linear`` keeps its ``(out, in)`` weight Fortran-ordered: ``x @ weight.T``
then multiplies by a contiguous ``(in, out)`` operand, the fast path for both
the decode GEMVs and the prefill row-block GEMMs.  A weight rebound to a
C-ordered array still computes the right values, only slowly and with other
BLAS kernels' bits, so nothing but this test would notice.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.llm import ModelConfig, TransformerLM
from repro.llm.layers import Linear
from repro.utils import DTYPE


def _linears(model: TransformerLM):
    for index, layer in enumerate(model.layers):
        for name in ("q_proj", "k_proj", "v_proj", "o_proj"):
            yield f"layers[{index}].{name}", getattr(layer, name)
        for name in ("gate", "up", "down"):
            yield f"layers[{index}].ffn.{name}", getattr(layer.ffn, name)


@pytest.mark.parametrize("qk_coupling", [0.0, 0.9])
def test_every_linear_weight_transposes_to_a_contiguous_view(qk_coupling):
    config = ModelConfig(num_layers=2, hidden_dim=32, num_heads=4, num_kv_heads=2,
                         ffn_dim=64, vocab_size=128, name="layout-guard")
    model = TransformerLM(config, seed=3, qk_coupling=qk_coupling)
    seen = 0
    for where, linear in _linears(model):
        assert isinstance(linear, Linear), where
        assert linear.weight.dtype == DTYPE, where
        assert linear.weight.T.flags.c_contiguous, where
        seen += 1
    assert seen == 7 * config.num_layers


def test_constructing_a_linear_fixes_the_layout():
    weight = np.arange(12.0).reshape(3, 4)  # C-ordered float64
    linear = Linear(weight)
    assert linear.weight.T.flags.c_contiguous
    assert linear.weight.dtype == DTYPE
    assert np.array_equal(linear.weight, weight.astype(DTYPE))
