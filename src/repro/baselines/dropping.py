"""KVCache *dropping* baselines: StreamingLLM, H2O, SnapKV, PyramidKV.

These methods permanently discard key/value pairs judged unimportant, so
nothing is ever fetched back from CPU (zero extra communication), but tokens
whose importance only becomes apparent later cannot be recovered — the
failure mode the paper highlights (§1, §4.2).

In the paper's quality experiments the dropping methods are given a
"compensated" budget — extra tokens worth the same memory as the offloading
methods' selected tokens plus transferred relevance data.  The
``compensated`` flag reproduces that setting (methods labelled H2O(C),
SnapKV(C), PyramidKV(C)).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..llm.config import ModelConfig
from ..llm.kvcache import KVCache
from ..llm.model import PrefillResult
from ..utils import DTYPE
from .base import KVCachePolicy, SelectionBudget

__all__ = [
    "StreamingLLMPolicy",
    "H2OPolicy",
    "SnapKVPolicy",
    "PyramidKVPolicy",
]


class _DroppingPolicy(KVCachePolicy):
    """Shared select path of the dropping baselines.

    Every dropping method resolves a per-layer *static-ish* middle set (empty
    for StreamingLLM, the retained/selected sets for H2O/SnapKV/PyramidKV)
    and assembles it with the current initial/local segments.  Expressing
    that as one :meth:`_select_middle` hook lets the base provide the
    fused-round :meth:`select_batch` (grouped sort-dedup via
    :meth:`KVCachePolicy._assemble_batch`) once; :meth:`select` is that
    call on a batch of one.
    """

    def _select_middle(
        self, layer_index: int, config: ModelConfig
    ) -> list[np.ndarray]:
        """Middle-token indices per KV head for ``layer_index``."""
        raise NotImplementedError

    def select(self, layer_index: int, query: np.ndarray, cache: KVCache):
        return self.select_batch(layer_index, [(self, query, cache)])[0]

    @classmethod
    def select_batch(cls, layer_index, items, timings=None):
        """Each request's middle set assembled with its segments, grouped."""
        prepared = []
        for policy, _query, cache in items:
            config = policy._require_config()
            segments = policy.budget.segments(len(cache[layer_index]))
            prepared.append(
                (policy, policy._select_middle(layer_index, config), segments)
            )
        return KVCachePolicy._assemble_batch(prepared)


def _compensated_budget(budget: SelectionBudget, prompt_len: int, enabled: bool) -> int:
    """Middle-token budget, optionally enlarged by the communication ratio.

    The compensation converts the offloading methods' extra communication
    (comm_ratio of the keys' memory) into an equivalent number of extra
    key/value pairs: keys+values are ``2 * d_h`` halfwords per head while the
    relevance data is ``comm_ratio * d_h``, i.e. ``comm_ratio / 2`` extra
    tokens per token of context.
    """
    base = budget.middle_budget(prompt_len)
    if not enabled:
        return base
    extra = int(round(prompt_len * budget.comm_ratio / 2.0))
    return base + extra


class StreamingLLMPolicy(_DroppingPolicy):
    """Attention sinks + sliding window (LM-Infinite / StreamingLLM).

    Keeps only the initial tokens and the most recent ``num_local`` tokens;
    every middle token is dropped.  Included as the simplest dropping
    baseline and as a sanity floor for retrieval-heavy tasks.
    """

    name = "streaming-llm"
    is_dropping = True

    def _select_middle(
        self, layer_index: int, config: ModelConfig
    ) -> list[np.ndarray]:
        return [np.empty(0, dtype=np.int64) for _ in range(config.num_kv_heads)]


class H2OPolicy(_DroppingPolicy):
    """Heavy-Hitter Oracle: retain tokens with the largest accumulated
    attention scores observed so far.

    The retained set is decided per layer and per KV head right after
    prefilling (using the accumulated column sums of the prompt's attention
    matrix) and then evolves greedily: each new decoded token enters the set
    and, when over budget, the lowest-scoring retained token is evicted
    permanently.  Evicted tokens can never return — the core limitation the
    paper contrasts with retrieval-based methods.
    """

    name = "h2o"
    is_dropping = True

    def __init__(self, budget: SelectionBudget, compensated: bool = True) -> None:
        super().__init__(budget)
        self.compensated = compensated
        if compensated:
            self.name = "h2o(c)"
        self._retained: list[list[np.ndarray]] = []
        self._scores: list[list[np.ndarray]] = []

    def _prepare(self, config: ModelConfig, prefill: PrefillResult) -> None:
        self._retained = []
        self._scores = []
        k = _compensated_budget(self.budget, prefill.seq_len, self.compensated)
        segments = self.budget.segments(prefill.seq_len)
        middle = segments.middle_indices
        for aggregates in prefill.aggregates:
            per_head_idx = []
            per_head_score = []
            for head in range(config.num_kv_heads):
                if middle.size == 0:
                    per_head_idx.append(np.empty(0, dtype=np.int64))
                    per_head_score.append(np.empty(0, dtype=DTYPE))
                    continue
                acc = aggregates.accumulated_scores[head, middle]
                keep = self._topk(acc, middle, k)
                per_head_idx.append(np.sort(keep))
                score_map = dict(zip(middle.tolist(), acc.tolist()))
                per_head_score.append(
                    np.array([score_map[i] for i in np.sort(keep).tolist()], dtype=DTYPE)
                )
            self._retained.append(per_head_idx)
            self._scores.append(per_head_score)

    def _select_middle(
        self, layer_index: int, config: ModelConfig
    ) -> list[np.ndarray]:
        if not self._retained:
            raise ConfigurationError("H2O policy used before prefill")
        return [self._retained[layer_index][h] for h in range(config.num_kv_heads)]

    def on_decode_step(self, cache: KVCache) -> None:
        """Greedy heavy-hitter update after a token was generated.

        Tokens leaving the local window compete for a place in the retained
        set using their (approximate) accumulated score; the weakest retained
        token is evicted when the budget is exceeded.
        """
        config = self._require_config()
        k = _compensated_budget(self.budget, self.prompt_len, self.compensated)
        seq_len = cache.seq_len
        segments = self.budget.segments(seq_len)
        middle = segments.middle_indices
        if middle.size == 0:
            return
        newly_middle = middle[-1]
        for layer_index in range(config.num_layers):
            layer_cache = cache[layer_index]
            for head in range(config.num_kv_heads):
                retained = self._retained[layer_index][head]
                scores = self._scores[layer_index][head]
                if newly_middle in retained:
                    continue
                # Score the candidate with its key norm as a cheap proxy for
                # accumulated attention (no additional attention passes are
                # available to a dropping method after prefill).
                candidate_score = float(
                    np.linalg.norm(layer_cache.keys[head, newly_middle, :])
                )
                retained = np.append(retained, newly_middle)
                scores = np.append(scores, candidate_score)
                if retained.size > k:
                    drop = int(np.argmin(scores))
                    retained = np.delete(retained, drop)
                    scores = np.delete(scores, drop)
                self._retained[layer_index][head] = retained
                self._scores[layer_index][head] = scores


class SnapKVPolicy(_DroppingPolicy):
    """SnapKV: choose important tokens from the prompt's final-segment
    attention, with pooling to keep neighbourhoods together.

    The selection is made once after prefilling (per layer, per KV head) from
    the observation-window aggregate scores and never revisited.  Works well
    when the question sits at the end of the prompt, degrades when it does
    not — reproduced by the Table 3 benchmark.
    """

    name = "snapkv"
    is_dropping = True

    def __init__(
        self,
        budget: SelectionBudget,
        compensated: bool = True,
        pool_size: int = 7,
    ) -> None:
        super().__init__(budget)
        if pool_size <= 0 or pool_size % 2 == 0:
            raise ConfigurationError("pool_size must be a positive odd number")
        self.compensated = compensated
        self.pool_size = pool_size
        if compensated:
            self.name = "snapkv(c)"
        self._selected: list[list[np.ndarray]] = []

    def _layer_budget(self, layer_index: int, num_layers: int, k: int) -> int:
        """Per-layer budget; uniform for SnapKV, overridden by PyramidKV."""
        return k

    @staticmethod
    def _max_pool_1d(scores: np.ndarray, pool_size: int) -> np.ndarray:
        """Symmetric 1-D max pooling used by SnapKV to keep local context."""
        if scores.size == 0:
            return scores
        half = pool_size // 2
        padded = np.pad(scores, (half, half), mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, pool_size)
        return windows.max(axis=-1)

    def _prepare(self, config: ModelConfig, prefill: PrefillResult) -> None:
        self._selected = []
        k = _compensated_budget(self.budget, prefill.seq_len, self.compensated)
        segments = self.budget.segments(prefill.seq_len)
        middle = segments.middle_indices
        num_layers = len(prefill.aggregates)
        for layer_index, aggregates in enumerate(prefill.aggregates):
            layer_k = self._layer_budget(layer_index, num_layers, k)
            per_head = []
            for head in range(config.num_kv_heads):
                if middle.size == 0:
                    per_head.append(np.empty(0, dtype=np.int64))
                    continue
                window = aggregates.window_scores[head, middle]
                pooled = self._max_pool_1d(window, self.pool_size)
                per_head.append(np.sort(self._topk(pooled, middle, layer_k)))
            self._selected.append(per_head)

    def _select_middle(
        self, layer_index: int, config: ModelConfig
    ) -> list[np.ndarray]:
        return [self._selected[layer_index][h] for h in range(config.num_kv_heads)]


class PyramidKVPolicy(SnapKVPolicy):
    """PyramidKV: SnapKV selection with a depth-decaying per-layer budget.

    Lower layers receive a larger share of the total budget and higher layers
    a smaller one, keeping the overall memory identical to SnapKV.
    """

    name = "pyramidkv"
    is_dropping = True

    def __init__(
        self,
        budget: SelectionBudget,
        compensated: bool = True,
        pool_size: int = 7,
        decay: float = 2.0,
    ) -> None:
        super().__init__(budget, compensated=compensated, pool_size=pool_size)
        if decay < 1.0:
            raise ConfigurationError("decay must be >= 1.0")
        self.decay = decay
        self.name = "pyramidkv(c)" if compensated else "pyramidkv"

    def _layer_budget(self, layer_index: int, num_layers: int, k: int) -> int:
        """Linear interpolation from ``decay * k`` (layer 0) down to
        ``k / decay`` (last layer), preserving the average budget ``k``."""
        if num_layers == 1:
            return k
        top = k * self.decay
        bottom = k / self.decay
        frac = layer_index / (num_layers - 1)
        return max(int(round(top + (bottom - top) * frac)), 1)
