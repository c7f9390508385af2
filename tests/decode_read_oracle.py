"""Oracles for the decode read path: the loops the one-pass implementation
replaced, kept with their arithmetic as it was.

* :func:`topk_middle` — score the valid middle tokens, ``topk_indices`` per
  head (descending score order, ties to the lowest index).
* :func:`assemble` / :func:`fetch_union` — ``np.unique`` over the
  concatenated segments per head, and over all heads' picks.
* :class:`ScalarBlockGpuCache` — one dict probe per requested *token*, two
  ``np.unique`` passes per access.
* :func:`decode_attention_grouped` — fancy index per ``(request, kv_head)``
  then ``np.stack``: every selected row copied twice.

The production code must return the same tokens, counters and bits.  The
oracles compute in the substrate dtype (``repro.utils.DTYPE``).
"""

from collections import OrderedDict

import numpy as np

from repro.core.gpu_cache import CacheStats
from repro.core.pq import ProductQuantizer
from repro.utils import DTYPE, softmax, topk_indices


def topk_middle(manager, layer_index, kv_queries, segments, k):
    """Per head, the top-``k`` middle tokens in descending score order."""
    h_kv = manager.model_config.num_kv_heads
    middle = segments.middle_indices
    empty = [np.empty(0, dtype=np.int64) for _ in range(h_kv)]
    if middle.size == 0 or k <= 0:
        return empty
    codes = manager.layer_codes(layer_index)  # (n, h_kv, m)
    valid = middle[middle < codes.shape[0]]
    if valid.size == 0:
        return empty
    scores = ProductQuantizer.score_batch(
        manager.codebooks(layer_index),
        np.asarray(kv_queries, dtype=DTYPE),
        codes[valid].transpose(1, 0, 2),
    )
    k_eff = min(int(k), valid.size)
    return [valid[topk_indices(scores[head], k_eff)] for head in range(h_kv)]


def assemble(middle_per_head, segments):
    """Attended set per head: sort + dedupe of initial + middle + local."""
    init, local = segments.initial_indices, segments.local_indices
    return [
        np.unique(np.concatenate([init, np.asarray(m, dtype=np.int64), local]))
        for m in middle_per_head
    ]


def fetch_union(selected):
    """Tokens one fetch brings in: the union of the heads' picks."""
    if any(s.size for s in selected):
        return np.unique(np.concatenate([s for s in selected if s.size]))
    return np.empty(0, dtype=np.int64)


class ScalarBlockGpuCache:
    """``BlockGpuCache`` with residency probed one token at a time."""

    def __init__(self, capacity_tokens, block_size=128, policy="lru",
                 k_cache_blocks=32):
        self.block_size = block_size
        self.policy = policy
        self.k_cache_blocks = k_cache_blocks
        self.capacity_blocks = capacity_tokens // block_size
        self._blocks = OrderedDict()  # block id -> freq
        self.stats = CacheStats()

    @property
    def resident_blocks(self):
        return list(self._blocks)

    def lookup(self, token_indices):
        token_indices = np.asarray(token_indices, dtype=np.int64)
        if token_indices.size == 0:
            return {
                "hit_tokens": token_indices,
                "miss_tokens": token_indices,
                "miss_blocks": np.empty(0, dtype=np.int64),
            }
        blocks = token_indices // self.block_size
        resident = np.array([int(b) in self._blocks for b in blocks], dtype=bool)
        return {
            "hit_tokens": token_indices[resident],
            "miss_tokens": token_indices[~resident],
            "miss_blocks": np.unique(blocks[~resident]),
        }

    def access(self, token_indices):
        self.stats.lookups += 1
        result = self.lookup(token_indices)
        hits = int(result["hit_tokens"].size)
        misses = int(result["miss_tokens"].size)
        self.stats.token_hits += hits
        self.stats.token_misses += misses
        self.stats.step_hits += hits
        self.stats.step_misses += misses
        token_indices = np.asarray(token_indices, dtype=np.int64)
        if token_indices.size == 0 or self.capacity_blocks == 0:
            return result
        blocks, counts = np.unique(
            token_indices // self.block_size, return_counts=True
        )
        order = np.argsort(-counts, kind="stable")
        for block_id in blocks[order][: self.k_cache_blocks]:
            self._touch(int(block_id))
        return result

    def _touch(self, block_id):
        if block_id in self._blocks:
            self._blocks[block_id] = self._blocks.pop(block_id) + 1
            return
        if len(self._blocks) >= self.capacity_blocks:
            self._evict_one()
        self._blocks[block_id] = 1
        self.stats.block_insertions += 1

    def _evict_one(self):
        if self.policy == "lru":
            victim = next(iter(self._blocks))
        else:
            min_freq = min(self._blocks.values())
            victim = next(b for b, f in self._blocks.items() if f == min_freq)
        del self._blocks[victim]
        self.stats.block_evictions += 1


def per_head_indices(selected, h_kv, length):
    if selected is None:
        return [np.arange(length, dtype=np.int64)] * h_kv
    if isinstance(selected, (list, tuple)):
        return [np.asarray(idx, dtype=np.int64) for idx in selected]
    return [np.asarray(selected, dtype=np.int64)] * h_kv


def decode_attention_grouped(queries, keys, values, selections):
    """Length-grouped attention over ``(request, kv_head)`` entries with a
    fancy-index gather per entry and an ``np.stack`` per group."""
    n = len(queries)
    h, d_h = queries[0].shape
    h_kv = keys[0].shape[0]
    group = h // h_kv
    scale = float(np.sqrt(d_h))
    per_request = [
        per_head_indices(selections[i], h_kv, keys[i].shape[1]) for i in range(n)
    ]
    outputs = [np.zeros((h, d_h), dtype=DTYPE) for _ in range(n)]
    entries = [(i, kv) for i in range(n) for kv in range(h_kv)]
    lengths = np.array([per_request[i][kv].size for i, kv in entries], dtype=np.int64)
    q_grouped = [np.asarray(q, dtype=DTYPE).reshape(h_kv, group, d_h) for q in queries]
    for t in np.unique(lengths):
        if t == 0:
            continue
        rows = np.flatnonzero(lengths == t)
        k_sel = np.stack(
            [keys[entries[r][0]][entries[r][1], per_request[entries[r][0]][entries[r][1]], :]
             for r in rows]
        )
        v_sel = np.stack(
            [values[entries[r][0]][entries[r][1], per_request[entries[r][0]][entries[r][1]], :]
             for r in rows]
        )
        q_sel = np.stack([q_grouped[entries[r][0]][entries[r][1]] for r in rows])
        logits = np.einsum("ngd,ntd->ngt", q_sel, k_sel) / scale
        weights = softmax(logits, axis=-1)
        out = np.einsum("ngt,ntd->ngd", weights, v_sel)
        for row_pos, r in enumerate(rows):
            i, kv = entries[r]
            outputs[i][kv * group: (kv + 1) * group] = out[row_pos]
    return outputs
