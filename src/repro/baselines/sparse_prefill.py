"""MInference-style sparse prefilling (used by the Table 5 experiment).

MInference accelerates the prefilling phase by restricting each query to a
sparse attention pattern (the "A-shape" pattern: attention sinks plus a local
band, optionally with a few vertical stripes).  The paper combines it with
PQCache to show PQCache remains robust when the prefill attention — and hence
the keys feeding PQ construction — comes from a sparse computation.

Here the sparse prefill is modelled as a transformation of the prompt's
*aggregate* attention statistics plus a perturbation of the prefilled keys:
queries outside the sparse pattern never contribute attention mass, so the
dropping baselines that rely on prompt attention see degraded signals, and
downstream hidden states (and therefore keys) drift slightly from the dense
computation.  The prefill wrapper below reproduces both effects on top of the
dense substrate, which is sufficient to study the interaction that Table 5
reports without re-implementing kernel-level sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..llm.kvcache import KVCache
from ..llm.model import PrefillResult, TransformerLM
from ..utils import as_rng

__all__ = ["SparsePrefillConfig", "sparse_prefill"]


@dataclass(frozen=True)
class SparsePrefillConfig:
    """Parameters of the A-shape sparse prefill approximation.

    Attributes:
        sink_tokens: leading tokens every query may attend to.
        local_window: band width of the local attention component.
        vertical_stripes: number of global "vertical" token columns kept.
        key_noise_scale: relative perturbation applied to prefilled keys to
            model the hidden-state drift caused by sparse attention.
        seed: RNG seed for stripe choice and key perturbation.
    """

    sink_tokens: int = 16
    local_window: int = 256
    vertical_stripes: int = 16
    key_noise_scale: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sink_tokens < 0 or self.local_window < 0 or self.vertical_stripes < 0:
            raise ConfigurationError("sparse prefill sizes must be >= 0")
        if self.key_noise_scale < 0:
            raise ConfigurationError("key_noise_scale must be >= 0")

    def kept_fraction(self, seq_len: int) -> float:
        """Approximate fraction of the dense attention matrix computed."""
        if seq_len == 0:
            return 1.0
        per_query = min(
            self.sink_tokens + self.local_window + self.vertical_stripes, seq_len
        )
        return per_query / seq_len

    def speedup(self, seq_len: int) -> float:
        """Idealised prefill attention speed-up over dense computation."""
        kept = self.kept_fraction(seq_len)
        return 1.0 / max(kept, 1e-6)


def sparse_prefill(
    model: TransformerLM,
    token_ids,
    config: SparsePrefillConfig | None = None,
    observation_window: int = 32,
) -> PrefillResult:
    """Prefill with an MInference-like sparse attention approximation.

    Runs the dense substrate, then (1) masks the aggregate attention
    statistics down to the sparse pattern and (2) perturbs the cached keys to
    model the drift sparse prefilling introduces, returning a
    :class:`PrefillResult` that downstream policies consume unchanged.
    """
    config = config or SparsePrefillConfig()
    rng = as_rng(config.seed)
    result = model.prefill(list(token_ids), observation_window=observation_window)
    seq_len = result.seq_len

    # Pattern mask over key positions, as seen from the trailing queries that
    # the aggregates summarise: sinks + local band + random vertical stripes.
    mask = np.zeros(seq_len, dtype=bool)
    mask[: min(config.sink_tokens, seq_len)] = True
    mask[max(seq_len - config.local_window, 0):] = True
    if config.vertical_stripes > 0 and seq_len > 0:
        stripes = rng.choice(
            seq_len, size=min(config.vertical_stripes, seq_len), replace=False
        )
        mask[stripes] = True

    for aggregates in result.aggregates:
        aggregates.accumulated_scores[:, ~mask] *= config.kept_fraction(seq_len)
        aggregates.window_scores[:, ~mask] = 0.0

    if config.key_noise_scale > 0:
        dense = result.kvcache
        result.kvcache = KVCache(
            dense.num_layers, model.config.num_kv_heads, model.config.head_dim,
            model.config.dtype_bytes,
        )
        for layer_cache, dense_layer in zip(result.kvcache.layers, dense.layers):
            keys, values = dense_layer.read()
            scale = config.key_noise_scale * np.std(keys)
            noise = rng.normal(0.0, scale, size=keys.shape)
            # Positions inside the pattern are computed exactly; only the
            # remaining keys drift.
            keys = keys.copy()
            keys[:, ~mask, :] += noise[:, ~mask, :]
            layer_cache.append(keys, values)
    return result
