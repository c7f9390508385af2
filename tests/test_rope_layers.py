"""Tests for RoPE and the primitive layers (RMSNorm, Linear, SwiGLU)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionError
from repro.llm.layers import Linear, RMSNorm, SwiGLU, rms_norm, silu
from repro.llm.rope import apply_rope, rope_frequencies, rope_rotate, rotate_half
from repro.utils import DTYPE


class TestRope:
    def test_preserves_norm(self, rng):
        vectors = rng.normal(size=(2, 10, 16))
        rotated = apply_rope(vectors, np.arange(10))
        assert np.allclose(np.linalg.norm(rotated, axis=-1),
                           np.linalg.norm(vectors, axis=-1))

    def test_position_zero_is_identity(self, rng):
        vectors = rng.normal(size=(1, 1, 8))
        rotated = apply_rope(vectors, np.array([0]))
        assert np.allclose(rotated, vectors)

    def test_relative_position_invariance(self, rng):
        """The inner product of a rotated query/key pair depends only on the
        relative offset between their positions (the core RoPE property)."""
        q = rng.normal(size=(1, 1, 32))
        k = rng.normal(size=(1, 1, 32))
        def scored(pos_q, pos_k):
            rq = apply_rope(q, np.array([pos_q]))[0, 0]
            rk = apply_rope(k, np.array([pos_k]))[0, 0]
            return float(rq @ rk)
        # float32 tables and rotations: within 4 epsilons of |q| |k| (0.62
        # at most, measured over 200 seeds)
        tol = 4 * np.finfo(DTYPE).eps * np.linalg.norm(q) * np.linalg.norm(k)
        assert scored(5, 3) == pytest.approx(scored(105, 103), rel=0, abs=tol)
        assert scored(7, 0) == pytest.approx(scored(1007, 1000), rel=0, abs=tol)

    def test_tables_built_once_rotate_exactly_like_apply_rope(self, rng):
        """The model builds one ``(cos, sin)`` pair per prefill chunk or decode
        round and rotates every layer's Q and K with it (a decode round: one
        row per request, at ragged positions).  Same function of the same
        inputs as a per-tensor :func:`apply_rope`, so every bit is equal."""
        positions = [5, 16383, 0, 977, 65535, 16384, 12]
        cos, sin = rope_frequencies(32, positions, base=5e5)
        for i, position in enumerate(positions):
            query = rng.normal(size=(8, 1, 32)).astype(DTYPE)
            assert np.array_equal(
                rope_rotate(query, cos[i : i + 1], sin[i : i + 1]),
                apply_rope(query, [position], base=5e5),
            )
        chunk = rng.normal(size=(4, len(positions), 32)).astype(DTYPE)
        assert np.array_equal(rope_rotate(chunk, cos, sin),
                              apply_rope(chunk, positions, base=5e5))

    def test_odd_head_dim_rejected(self):
        with pytest.raises(DimensionError):
            rope_frequencies(7, np.arange(3))

    def test_position_length_mismatch(self, rng):
        with pytest.raises(DimensionError):
            apply_rope(rng.normal(size=(1, 5, 8)), np.arange(3))

    def test_rotate_half(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        assert np.allclose(rotate_half(x), [[-3.0, -4.0, 1.0, 2.0]])

    def test_larger_base_rotates_less(self, rng):
        vec = rng.normal(size=(1, 1, 16))
        default = apply_rope(vec, np.array([50]), base=1e4)
        weak = apply_rope(vec, np.array([50]), base=1e8)
        assert np.linalg.norm(weak - vec) < np.linalg.norm(default - vec)


class TestRMSNorm:
    def test_unit_scale_output(self, rng):
        x = rng.normal(size=(4, 16)) * 100.0
        normed = rms_norm(x, np.ones(16))
        rms = np.sqrt(np.mean(normed ** 2, axis=-1))
        assert np.allclose(rms, 1.0, atol=1e-3)

    def test_module_matches_function(self, rng):
        norm = RMSNorm.init(8, rng)
        x = rng.normal(size=(3, 8))
        assert np.allclose(norm(x), rms_norm(x, norm.weight))

    def test_parameter_count(self, rng):
        assert RMSNorm.init(32, rng).num_parameters == 32


class TestLinear:
    def test_shape(self, rng):
        layer = Linear.init(8, 16, rng)
        assert layer(rng.normal(size=(5, 8))).shape == (5, 16)

    def test_dim_check(self, rng):
        layer = Linear.init(8, 16, rng)
        with pytest.raises(DimensionError):
            layer(rng.normal(size=(5, 9)))

    def test_parameter_count(self, rng):
        assert Linear.init(8, 16, rng).num_parameters == 128

    @given(st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        layer = Linear.init(cols, 4, rng)
        a = rng.normal(size=(rows, cols))
        b = rng.normal(size=(rows, cols))
        # float32 dot products of cols terms, plus rounding a + b and the
        # final add: within cols + 2 epsilons of (|a| + |b|) |W| (1.07 measured)
        bound = (np.abs(a) + np.abs(b)) @ np.abs(layer.weight).T
        error = np.abs(layer(a + b) - (layer(a) + layer(b)))
        assert (error <= (cols + 2) * np.finfo(DTYPE).eps * bound).all()


class TestSwiGLU:
    def test_shape_preserved(self, rng):
        ffn = SwiGLU.init(16, 32, rng)
        assert ffn(rng.normal(size=(4, 16))).shape == (4, 16)

    def test_silu_properties(self):
        assert silu(np.array([0.0]))[0] == 0.0
        assert silu(np.array([100.0]))[0] == pytest.approx(100.0)
        assert abs(silu(np.array([-100.0]))[0]) < 1e-6

    def test_parameter_count(self, rng):
        ffn = SwiGLU.init(8, 16, rng)
        assert ffn.num_parameters == 3 * 8 * 16
