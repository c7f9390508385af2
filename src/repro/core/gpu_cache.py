"""Block-level GPU cache for frequently retrieved key/value pairs.

Paper §3.4: the only decode-phase communication that cannot be overlapped is
fetching the top-k tokens' key/value pairs, because it depends on the PQ
search result.  PQCache therefore keeps a small GPU-resident cache of
*blocks* of tokens (128 tokens per block by default) managed with an LRU or
LFU eviction policy.  On every retrieval the top-``k_cache`` blocks — the
blocks containing the most top-k tokens — are used to update the cache.

The cache here tracks which token blocks are GPU-resident and reports, for a
requested set of token indices, how many bytes must still be fetched over
PCIe.  The latency model in :mod:`repro.memory` turns those bytes into time.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError

__all__ = ["CacheStats", "BlockGpuCache"]


@dataclass
class CacheStats:
    """Running counters of cache behaviour.

    Two hit-rate views are kept deliberately separate:

    * :attr:`hit_rate` — *cumulative* over the cache's lifetime; use it for
      reporting (figures, summaries).
    * :attr:`step_hit_rate` — the hit/miss split of the current decode step
      only: every :meth:`BlockGpuCache.access` since the owner last called
      :meth:`BlockGpuCache.begin_step` (one decode step spans several
      accesses — one per transformer layer).  Use it when estimating *this*
      step's blocking PCIe traffic; scaling per-step byte counts by the
      cumulative rate lets early cold misses (or a long warm streak) leak
      into unrelated steps' estimates.  Without ``begin_step`` calls the
      step counters simply track the cumulative ones.
    """

    lookups: int = 0
    token_hits: int = 0
    token_misses: int = 0
    block_evictions: int = 0
    block_insertions: int = 0
    step_hits: int = 0
    step_misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Cumulative fraction of requested tokens that were GPU-resident."""
        total = self.token_hits + self.token_misses
        return self.token_hits / total if total else 0.0

    @property
    def step_hit_rate(self) -> float:
        """Hit fraction of the current step (since ``begin_step``)."""
        total = self.step_hits + self.step_misses
        return self.step_hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "lookups": self.lookups,
            "token_hits": self.token_hits,
            "token_misses": self.token_misses,
            "block_evictions": self.block_evictions,
            "block_insertions": self.block_insertions,
            "hit_rate": self.hit_rate,
            "step_hit_rate": self.step_hit_rate,
        }


class BlockGpuCache:
    """Block-granular cache of key/value pairs with LRU or LFU eviction.

    Args:
        capacity_tokens: total number of tokens the cache may hold on GPU
            (e.g. 4096 in the paper's experiments).
        block_size: tokens per block (128 in the paper).
        policy: ``"lru"`` or ``"lfu"``.
        k_cache_blocks: number of top blocks used to update the cache per
            retrieval (``k_cache`` in the paper; 32 by default).
    """

    def __init__(
        self,
        capacity_tokens: int,
        block_size: int = 128,
        policy: str = "lru",
        k_cache_blocks: int = 32,
    ) -> None:
        if capacity_tokens < 0:
            raise ConfigurationError("capacity_tokens must be >= 0")
        if block_size <= 0:
            raise ConfigurationError("block_size must be positive")
        if policy not in ("lru", "lfu"):
            raise ConfigurationError(f"unknown eviction policy: {policy!r}")
        if k_cache_blocks <= 0:
            raise ConfigurationError("k_cache_blocks must be positive")

        self.capacity_tokens = int(capacity_tokens)
        self.block_size = int(block_size)
        self.policy = policy
        self.k_cache_blocks = int(k_cache_blocks)
        self.capacity_blocks = self.capacity_tokens // self.block_size

        # LRU order is maintained by OrderedDict insertion order; LFU uses
        # the frequency counter with LRU tie-breaking via the same ordering.
        self._blocks: OrderedDict[int, int] = OrderedDict()  # block id -> freq
        self.stats = CacheStats()

    # ----------------------------------------------------------- inspection

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block_id: int) -> bool:
        return int(block_id) in self._blocks

    @property
    def resident_blocks(self) -> list[int]:
        """Block ids currently held on GPU (unspecified order)."""
        return list(self._blocks)

    # -------------------------------------------------------------- lookups

    def _split(self, token_indices: np.ndarray) -> tuple[dict, np.ndarray]:
        """Hit/miss split of a request against the current residency.

        Returns the :meth:`lookup` dict and the per-block requested-token
        counts (``counts[b]`` tokens fall in block ``b``): one ``np.bincount``
        serves the missing-block list and :meth:`access`'s update ranking,
        and residency is a boolean table scattered from the (at most
        ``capacity_blocks``) resident ids, not a dict probe per token.
        """
        token_indices = np.asarray(token_indices, dtype=np.int64)
        blocks = token_indices // self.block_size
        counts = np.bincount(blocks)
        resident = np.zeros(counts.size, dtype=bool)
        ids = np.fromiter(self._blocks, dtype=np.int64, count=len(self._blocks))
        # A resident block past the table holds none of the requested tokens.
        resident[ids[ids < counts.size]] = True
        hit = resident[blocks]
        return {
            "hit_tokens": token_indices[hit],
            "miss_tokens": token_indices[~hit],
            "miss_blocks": np.flatnonzero((counts > 0) & ~resident),
        }, counts

    def lookup(self, token_indices: np.ndarray) -> dict:
        """Check which requested tokens are cached, without updating.

        Returns a dict with ``hit_tokens``, ``miss_tokens`` (arrays of token
        indices, in request order) and ``miss_blocks`` (ascending block ids
        that would need fetching).
        """
        return self._split(token_indices)[0]

    def access(self, token_indices: np.ndarray) -> dict:
        """Serve a top-k retrieval and update the cache.

        The update follows the paper: the ``k_cache`` blocks containing the
        most requested tokens are inserted (or refreshed), evicting according
        to the configured policy.  Returns the same dict as :meth:`lookup`
        computed *before* the update, so miss counts reflect actual PCIe
        traffic for this step.
        """
        result, counts = self._split(token_indices)
        hits = int(result["hit_tokens"].size)
        misses = int(result["miss_tokens"].size)
        self.stats.lookups += 1
        self.stats.token_hits += hits
        self.stats.token_misses += misses
        self.stats.step_hits += hits
        self.stats.step_misses += misses

        if self.capacity_blocks == 0:
            return result

        # Rank blocks by how many of the requested tokens they contain (ties:
        # lowest block id first) and keep the k_cache most useful ones.
        requested = np.flatnonzero(counts)
        order = np.argsort(-counts[requested], kind="stable")
        for block_id in requested[order][: self.k_cache_blocks]:
            self._touch(int(block_id))
        return result

    def begin_step(self) -> None:
        """Mark the start of a new decode step.

        Resets the per-step hit/miss counters so that
        :attr:`CacheStats.step_hit_rate` covers exactly the accesses of the
        step in progress (one per transformer layer), not just the most
        recent one and not the whole lifetime.
        """
        self.stats.step_hits = 0
        self.stats.step_misses = 0

    # -------------------------------------------------------------- updates

    def _touch(self, block_id: int) -> None:
        """Insert or refresh a block, evicting if necessary."""
        if block_id in self._blocks:
            freq = self._blocks.pop(block_id)
            self._blocks[block_id] = freq + 1
            return

        if len(self._blocks) >= self.capacity_blocks:
            self._evict_one()
        self._blocks[block_id] = 1
        self.stats.block_insertions += 1

    def _evict_one(self) -> None:
        if not self._blocks:
            return
        if self.policy == "lru":
            victim = next(iter(self._blocks))
        else:  # lfu with lru tie-break: earliest-inserted among min frequency
            min_freq = min(self._blocks.values())
            victim = next(
                block for block, freq in self._blocks.items() if freq == min_freq
            )
        del self._blocks[victim]
        self.stats.block_evictions += 1

    def clear(self) -> None:
        """Drop all cached blocks and reset statistics."""
        self._blocks.clear()
        self.stats = CacheStats()
