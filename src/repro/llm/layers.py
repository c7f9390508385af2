"""Primitive layers of the transformer substrate: RMSNorm, linear
projections, and the SwiGLU feed-forward network.

Weights are plain NumPy arrays initialised from a seeded generator; the
substrate is a *random-initialised* model (there is no way to train or load
an 8B checkpoint offline), used for attention-trace collection, logit
fidelity comparisons between attention policies, latency/complexity
accounting, and end-to-end integration tests of the PQCache machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionError
from ..utils import DTYPE, as_rng

__all__ = ["rms_norm", "Linear", "RMSNorm", "SwiGLU"]


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Root-mean-square layer normalisation (no mean subtraction)."""
    x = np.asarray(x, dtype=DTYPE)
    variance = np.mean(x * x, axis=-1, keepdims=True)
    return x / np.sqrt(variance + eps) * weight


@dataclass
class Linear:
    """Bias-free linear projection ``y = x @ W.T`` (Llama convention).

    ``weight`` is ``(out_features, in_features)`` stored Fortran-ordered, so
    ``weight.T`` is a C-contiguous ``(in, out)`` view and ``x @ weight.T``
    runs BLAS GEMV/GEMM without a transposed operand.  Construction is the
    one place the layout is fixed: replace a weight with a new ``Linear``.
    """

    weight: np.ndarray  # (out_features, in_features), Fortran-ordered

    def __post_init__(self) -> None:
        self.weight = np.asfortranarray(self.weight, dtype=DTYPE)

    @classmethod
    def init(
        cls,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        scale: float | None = None,
    ) -> "Linear":
        scale = scale if scale is not None else 1.0 / np.sqrt(in_features)
        return cls(weight=rng.normal(0.0, scale, size=(out_features, in_features)))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=DTYPE)
        if x.shape[-1] != self.weight.shape[1]:
            raise DimensionError(
                f"expected input dim {self.weight.shape[1]}, got {x.shape[-1]}"
            )
        return x @ self.weight.T

    @property
    def num_parameters(self) -> int:
        return int(self.weight.size)


@dataclass
class RMSNorm:
    """RMSNorm with a learned (here: randomly initialised near 1) gain."""

    weight: np.ndarray
    eps: float = 1e-6

    @classmethod
    def init(cls, dim: int, rng: np.random.Generator) -> "RMSNorm":
        # Gains near 1.0 keep activations well-scaled in the random model.
        weight = 1.0 + 0.01 * rng.normal(size=dim)
        return cls(weight=weight.astype(DTYPE))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return rms_norm(x, self.weight, self.eps)

    @property
    def num_parameters(self) -> int:
        return int(self.weight.size)


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU activation ``x * sigmoid(x)`` with overflow-safe sigmoid."""
    return x / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


@dataclass
class SwiGLU:
    """SwiGLU feed-forward block: ``down(silu(gate(x)) * up(x))``."""

    gate: Linear
    up: Linear
    down: Linear

    @classmethod
    def init(cls, dim: int, ffn_dim: int, rng: np.random.Generator) -> "SwiGLU":
        return cls(
            gate=Linear.init(dim, ffn_dim, rng),
            up=Linear.init(dim, ffn_dim, rng),
            down=Linear.init(ffn_dim, dim, rng),
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.down(silu(self.gate(x)) * self.up(x))

    @property
    def num_parameters(self) -> int:
        return self.gate.num_parameters + self.up.num_parameters + self.down.num_parameters
