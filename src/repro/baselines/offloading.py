"""KVCache *offloading* baselines: SPARQ and InfLLM.

Both keep the full KVCache in CPU memory and fetch a subset per decode step,
like PQCache, but differ in how they estimate relevance under a tight
communication budget:

* **SPARQ** picks the ``r`` query dimensions with the largest magnitude,
  fetches only those dimensions of every key, and ranks tokens by the partial
  inner product.  Quality scales with ``r``; the paper constrains ``r`` to 1
  or 2 out of 128 dimensions to match the communication budget.
* **InfLLM** partitions the middle tokens into fixed-size blocks, keeps a few
  representative tokens per block, scores blocks by their representatives and
  fetches whole blocks.  The block-contiguity assumption hurts tasks where
  relevant tokens are scattered (the paper's needle results).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..llm.config import ModelConfig
from ..llm.kvcache import KVCache
from ..llm.model import PrefillResult
from ..utils import DTYPE, topk_indices
from .base import KVCachePolicy, SelectionBudget

__all__ = ["SparqPolicy", "InfLLMPolicy"]


class SparqPolicy(KVCachePolicy):
    """SPARQ attention: rank keys by a few high-magnitude query dimensions."""

    name = "sparq"
    is_dropping = False

    def __init__(self, budget: SelectionBudget, rank: int | None = None) -> None:
        super().__init__(budget)
        #: number of key dimensions fetched for scoring; ``None`` derives it
        #: from the communication ratio at prefill time (r = comm_ratio * d_h)
        self.rank = rank

    def _effective_rank(self) -> int:
        config = self._require_config()
        if self.rank is not None:
            return max(int(self.rank), 1)
        return max(int(round(self.budget.comm_ratio * config.head_dim)), 1)

    def select(self, layer_index: int, query: np.ndarray, cache: KVCache):
        config = self._require_config()
        layer_cache = cache[layer_index]
        seq_len = len(layer_cache)
        segments = self.budget.segments(seq_len)
        middle = segments.middle_indices
        k = self.budget.middle_budget(self.prompt_len)
        r = self._effective_rank()

        kv_queries = self._kv_queries(query)
        selected = []
        for head in range(config.num_kv_heads):
            if middle.size == 0:
                selected.append(np.empty(0, dtype=np.int64))
                continue
            q_head = kv_queries[head]
            dims = topk_indices(np.abs(q_head), r)
            keys_partial = layer_cache.keys[head][np.ix_(middle, dims)]
            scores = keys_partial @ q_head[dims]
            selected.append(self._topk(scores, middle, k))
        return self._assemble(selected, segments)

    def step_communication_bytes(self, seq_len: int) -> dict:
        """SPARQ fetches ``r`` dimensions of every key (blocking: it must
        finish before ranking) plus the selected tokens' key/values."""
        config = self._require_config()
        r = self._effective_rank()
        dtype = config.dtype_bytes
        partial_keys = seq_len * config.num_kv_heads * r * dtype
        k = self.budget.middle_budget(self.prompt_len)
        topk_fetch = k * config.num_kv_heads * 2 * config.head_dim * dtype
        return {"overlappable": 0.0, "blocking": float(partial_keys + topk_fetch)}


class InfLLMPolicy(KVCachePolicy):
    """InfLLM: block-level retrieval with representative tokens."""

    name = "infllm"
    is_dropping = False

    def __init__(
        self,
        budget: SelectionBudget,
        block_size: int = 128,
        representatives_per_block: int | None = None,
    ) -> None:
        super().__init__(budget)
        if block_size <= 0:
            raise ConfigurationError("block_size must be positive")
        self.block_size = block_size
        #: representatives per block; ``None`` derives it from the
        #: communication ratio (1 per 128 tokens at 1/128, 2 at 1/64).
        self.representatives_per_block = representatives_per_block
        self._representatives: list[list[dict]] = []

    def _effective_reps(self) -> int:
        if self.representatives_per_block is not None:
            return max(int(self.representatives_per_block), 1)
        return max(int(round(self.budget.comm_ratio * self.block_size)), 1)

    def _prepare(self, config: ModelConfig, prefill: PrefillResult) -> None:
        """Choose representative tokens per block from prefill attention.

        Representatives are the tokens within each block that received the
        most accumulated attention during prefilling, matching InfLLM's use
        of locally important tokens as block summaries.
        """
        self._representatives = []
        segments = self.budget.segments(prefill.seq_len)
        middle = segments.middle_indices
        reps = self._effective_reps()
        for layer_index, aggregates in enumerate(prefill.aggregates):
            layer_entry = []
            for head in range(config.num_kv_heads):
                blocks = []
                for start in range(0, middle.size, self.block_size):
                    block_tokens = middle[start: start + self.block_size]
                    scores = aggregates.accumulated_scores[head, block_tokens]
                    rep_local = topk_indices(scores, min(reps, block_tokens.size))
                    blocks.append(
                        {
                            "tokens": block_tokens,
                            "representatives": block_tokens[rep_local],
                        }
                    )
                layer_entry.append({"blocks": blocks})
            self._representatives.append(layer_entry)

    def select(self, layer_index: int, query: np.ndarray, cache: KVCache):
        config = self._require_config()
        layer_cache = cache[layer_index]
        seq_len = len(layer_cache)
        segments = self.budget.segments(seq_len)
        k = self.budget.middle_budget(self.prompt_len)
        kv_queries = self._kv_queries(query)

        selected = []
        for head in range(config.num_kv_heads):
            blocks = self._representatives[layer_index][head]["blocks"]
            if not blocks:
                selected.append(np.empty(0, dtype=np.int64))
                continue
            block_scores = np.empty(len(blocks), dtype=DTYPE)
            for b, block in enumerate(blocks):
                rep_idx = block["representatives"]
                if rep_idx.size == 0:
                    block_scores[b] = -np.inf
                    continue
                rep_keys = layer_cache.keys[head, rep_idx, :]
                block_scores[b] = float(np.max(rep_keys @ kv_queries[head]))
            # Fetch whole blocks in score order until the token budget fills.
            order = np.argsort(-block_scores, kind="stable")
            chosen: list[np.ndarray] = []
            used = 0
            for b in order:
                tokens = blocks[b]["tokens"]
                if used >= k:
                    break
                take = tokens[: max(k - used, 0)] if used + tokens.size > k else tokens
                chosen.append(take)
                used += take.size
            middle_sel = (
                np.concatenate(chosen) if chosen else np.empty(0, dtype=np.int64)
            )
            selected.append(np.sort(middle_sel))
        return self._assemble(selected, segments)

    def step_communication_bytes(self, seq_len: int) -> dict:
        """Representative keys are fetched (overlappable, they are static),
        chosen blocks' key/values are blocking."""
        config = self._require_config()
        dtype = config.dtype_bytes
        reps = self._effective_reps()
        num_blocks = max(seq_len // self.block_size, 1)
        rep_bytes = num_blocks * reps * config.num_kv_heads * config.head_dim * dtype
        k = self.budget.middle_budget(self.prompt_len)
        block_fetch = k * config.num_kv_heads * 2 * config.head_dim * dtype
        return {"overlappable": float(rep_bytes), "blocking": float(block_fetch)}
