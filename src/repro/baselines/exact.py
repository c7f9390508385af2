"""Reference policies: full attention and the exact top-k Oracle.

``Full`` reproduces the uncompressed baseline column of Tables 2 and 4.
``Oracle`` retrieves the *exact* top-k middle tokens for every KV head by
scoring the real keys against the current query — the upper bound PQCache
approximates with PQ codes (paper §4.1.3: "an 'Oracle' method that retrieves
the exact top-k tokens for each head").
"""

from __future__ import annotations

import numpy as np

from ..llm.kvcache import KVCache
from .base import KVCachePolicy, SelectionBudget

__all__ = ["FullAttentionPolicy", "OracleTopKPolicy"]


class FullAttentionPolicy(KVCachePolicy):
    """Attend to every cached token (no compression)."""

    name = "full"
    is_dropping = False

    def select(self, layer_index: int, query: np.ndarray, cache: KVCache):
        # None signals the attention kernel to use all tokens.
        return None


class OracleTopKPolicy(KVCachePolicy):
    """Exact top-k selective attention (upper bound for retrieval methods).

    The oracle reads the true keys of all middle tokens — something a real
    deployment cannot afford because those keys live in CPU memory — and
    keeps the ``k`` with the largest inner product against the (group-mean)
    query of each KV head.
    """

    name = "oracle"
    is_dropping = False

    def select(self, layer_index: int, query: np.ndarray, cache: KVCache):
        config = self._require_config()
        layer_cache = cache[layer_index]
        seq_len = len(layer_cache)
        segments = self.budget.segments(seq_len)
        middle = segments.middle_indices
        k = self.budget.middle_budget(self.prompt_len)

        kv_queries = self._kv_queries(query)
        middle_keys = layer_cache.read(*segments.middle_range)[0]
        selected = []
        for head in range(config.num_kv_heads):
            if middle.size == 0:
                selected.append(np.empty(0, dtype=np.int64))
                continue
            scores = middle_keys[head] @ kv_queries[head]
            selected.append(self._topk(scores, middle, k))
        return self._assemble(selected, segments)
