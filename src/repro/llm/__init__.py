"""Transformer inference substrate: configs, layers, KVCache, model,
generation loop and tokenizer."""

from .attention import (
    PREFILL_TILE,
    decode_attention,
    expand_kv_heads,
    prefill_attention,
)
from .config import ModelConfig
from .generation import GenerationResult, StepSelections, greedy_generate
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
from .kvcodec import (
    CODEC_NAMES,
    BytePlaneCodec,
    EncodedKV,
    Int4OutlierCodec,
    IntQuantCodec,
    KVBlockCodec,
    RawCodec,
    get_codec,
)
from .model import (
    DECODE_ROW_BLOCK,
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
    "GenerationResult",
    "StepSelections",
    "greedy_generate",
    "BlockAllocator",
    "BlockTable",
    "KVCache",
    "LayerKVCache",
    "PagedKVCache",
    "PagedLayerKVCache",
    "SwappedBlocks",
    "SwapSpace",
    "TokenSegments",
    "CODEC_NAMES",
    "BytePlaneCodec",
    "EncodedKV",
    "Int4OutlierCodec",
    "IntQuantCodec",
    "KVBlockCodec",
    "RawCodec",
    "get_codec",
    "DECODE_ROW_BLOCK",
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
