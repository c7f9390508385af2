"""Transformer inference substrate: configs, layers, KVCache, model and
tokenizer.  Generation runs through :class:`repro.serve.InferenceEngine`."""

from .attention import (
    PREFILL_TILE,
    decode_attention,
    expand_kv_heads,
    prefill_attention,
)
from .config import ModelConfig
from .kvcache import (
    BlockAllocator,
    BlockTable,
    KVCache,
    LayerKVCache,
    PagedKVCache,
    PagedLayerKVCache,
    SwappedBlocks,
    SwapSpace,
    TokenSegments,
)
from .model import (
    PREFILL_ROW_BLOCK,
    BatchSelector,
    PrefillAggregates,
    PrefillResult,
    PrefillState,
    Selector,
    TransformerLM,
)
from .rope import apply_rope, rope_frequencies
from .tokenizer import SimpleTokenizer

__all__ = [
    "PREFILL_TILE",
    "decode_attention",
    "expand_kv_heads",
    "prefill_attention",
    "ModelConfig",
    "BlockAllocator",
    "BlockTable",
    "KVCache",
    "LayerKVCache",
    "PagedKVCache",
    "PagedLayerKVCache",
    "SwappedBlocks",
    "SwapSpace",
    "TokenSegments",
    "PREFILL_ROW_BLOCK",
    "BatchSelector",
    "PrefillAggregates",
    "PrefillResult",
    "PrefillState",
    "Selector",
    "TransformerLM",
    "apply_rope",
    "rope_frequencies",
    "SimpleTokenizer",
]
