"""Common interface for KVCache selective-attention policies.

Every method compared in the paper — PQCache itself, the dropping baselines
(H2O, SnapKV, PyramidKV, StreamingLLM) and the offloading baselines (SPARQ,
InfLLM), plus Full and Oracle — is expressed as a :class:`KVCachePolicy`:

* :meth:`KVCachePolicy.on_prefill` receives the model config and the
  :class:`~repro.llm.model.PrefillResult` so it can build whatever per-layer
  state it needs (PQ codebooks, accumulated attention scores, block
  representatives, ...).
* :meth:`KVCachePolicy.select` is called once per layer per decode step with
  the current query and cache, and returns the token indices that participate
  in attention (per KV head), or ``None`` for full attention.
* :meth:`KVCachePolicy.on_decode_step` lets stateful policies update
  themselves after a new token has been appended to the cache.
* :meth:`KVCachePolicy.select_batch` / :meth:`KVCachePolicy.on_decode_step_batch`
  are the fused-decode-round counterparts: the serving engine groups the
  RUNNING requests that share a policy class and hands them over together, so
  a policy can run one cross-request grouped kernel instead of one kernel per
  request.  The defaults loop the per-request methods item by item; a policy
  that overrides one makes its per-request method the batch call of one.
* :meth:`KVCachePolicy.step_communication_bytes` reports the CPU→GPU traffic
  a real deployment would incur for one decode step at a given sequence
  length, which feeds the latency models.

The shared :class:`SelectionBudget` implements the paper's two experiment
knobs: the fraction of previous tokens used in selective attention and the
extra-communication ratio relative to the raw keys (§4.1.3).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..llm.config import ModelConfig
from ..llm.kvcache import KVCache, TokenSegments
from ..llm.model import PrefillResult
from ..utils import topk_indices

__all__ = ["SelectionBudget", "KVCachePolicy"]


@dataclass(frozen=True)
class SelectionBudget:
    """Token and communication budgets shared by all policies.

    Attributes:
        token_ratio: fraction of the prompt tokens allowed in selective
            attention (1/5 and 1/10 in the paper's tables).
        comm_ratio: extra communication allowed for relevance pre-computation,
            expressed as a fraction of the raw keys' memory (1/128 or 1/64).
        num_initial: attention-sink tokens always kept (``initial tokens``).
        num_local: most recent tokens always kept (``local tokens``).
        min_middle: lower bound on retrieved middle tokens so extremely short
            prompts still exercise the retrieval path.
    """

    token_ratio: float = 0.2
    comm_ratio: float = 1.0 / 128.0
    num_initial: int = 4
    num_local: int = 32
    min_middle: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.token_ratio <= 1.0:
            raise ConfigurationError("token_ratio must be in (0, 1]")
        if not 0.0 < self.comm_ratio <= 1.0:
            raise ConfigurationError("comm_ratio must be in (0, 1]")
        if self.num_initial < 0 or self.num_local < 0:
            raise ConfigurationError("segment sizes must be >= 0")
        if self.min_middle < 0:
            raise ConfigurationError("min_middle must be >= 0")

    def total_tokens(self, prompt_len: int) -> int:
        """Total token budget for a prompt of ``prompt_len`` tokens."""
        return max(int(round(self.token_ratio * prompt_len)), 1)

    def middle_budget(self, prompt_len: int) -> int:
        """Middle-token (retrieval) budget after reserving init/local."""
        reserved = self.num_initial + self.num_local
        return max(self.total_tokens(prompt_len) - reserved, self.min_middle)

    def segments(self, seq_len: int) -> TokenSegments:
        """Initial/middle/local split of the current sequence."""
        return TokenSegments(
            seq_len=seq_len,
            num_initial=self.num_initial,
            num_local=self.num_local,
        )


class KVCachePolicy(abc.ABC):
    """Base class for selective-attention policies."""

    #: human-readable identifier used in tables and reports
    name: str = "policy"
    #: whether the policy keeps the full KVCache (offloading) or discards
    #: entries permanently (dropping)
    is_dropping: bool = False
    #: whether the policy reads :class:`~repro.llm.model.PrefillAggregates`
    #: (accumulated / windowed attention scores).  The serving engine's
    #: prefix cache only resumes a prefill past a point where those
    #: aggregates can be reconstructed exactly when this is true; policies
    #: that never look at them (PQCache) may opt out for longer reuse.
    #: Conservative default: ``True``.
    needs_prefill_aggregates: bool = True

    def __init__(self, budget: SelectionBudget) -> None:
        self.budget = budget
        self.config: ModelConfig | None = None
        self.prompt_len: int = 0
        #: maintenance descriptor set by :meth:`on_decode_step` overrides and
        #: drained by the engine via :meth:`consume_maintenance`.
        self._pending_maintenance: dict | None = None

    # ----------------------------------------------------------- lifecycle

    def on_prefill(self, config: ModelConfig, prefill: PrefillResult) -> None:
        """Inspect the prefill result and build per-layer state."""
        self.config = config
        self.prompt_len = prefill.seq_len
        self._prepare(config, prefill)

    def _prepare(self, config: ModelConfig, prefill: PrefillResult) -> None:
        """Hook for subclasses; default is stateless."""

    def on_prefill_chunk(
        self,
        config: ModelConfig,
        kvcache: KVCache,
        start: int,
        stop: int,
        total_len: int,
    ) -> None:
        """Observe one prefill chunk of a chunked-prefill request.

        Called by the serving engine after the model processed prompt tokens
        ``[start, stop)`` (the cache already holds them).  ``total_len`` is
        the full prompt length, known upfront.  Default: no-op — a policy
        that cannot build state from chunks gets its one :meth:`on_prefill`
        call through :meth:`finish_prefill` when the prompt completes.
        """

    def finish_prefill(self, config: ModelConfig, prefill: PrefillResult) -> None:
        """Finalise policy state once the whole prompt has been prefilled.

        The engine calls this exactly once per request, after the last chunk
        of a computed prompt (or the import of a precomputed
        ``Request.prefill``).  The default defers to
        :meth:`on_prefill`, which is the correct one-shot behaviour for
        policies without incremental construction; incremental policies
        override it to refine the state they built chunk by chunk.
        """
        self.on_prefill(config, prefill)

    def on_decode_step(self, cache: KVCache) -> None:
        """Called after each decode step appended a new token to the cache."""

    def consume_maintenance(self) -> dict | None:
        """Return and clear the maintenance work the last decode step did.

        Policies that run periodic index maintenance inside
        :meth:`on_decode_step` (e.g. PQCache's ``refresh_every`` codebook
        refresh) record a description here — ``{"kind": ..., "tokens": ...,
        "iterations": ...}`` — which the serving engine pops after the hook
        and bills as a timeline task.  Default: no maintenance.
        """
        pending = self._pending_maintenance
        self._pending_maintenance = None
        return pending

    # -------------------------------------------------------- prefix reuse

    def prefix_fingerprint(self):
        """Hashable key identifying reusable prefix artifacts, or ``None``.

        Two requests whose policies return equal non-``None`` fingerprints
        build bitwise-identical per-prefix state (codebooks, codes) from the
        same prompt prefix, so the serving engine may hand one policy's
        :meth:`prefix_snapshot` to the other's :meth:`attach_prefix`.
        ``None`` (the default) disables artifact reuse — KV-block reuse still
        applies.
        """
        return None

    def attach_prefix(
        self,
        config: ModelConfig,
        kvcache: KVCache,
        snapshot,
        prefix_len: int,
    ) -> bool:
        """Adopt another request's per-prefix artifacts before resuming.

        Called by the serving engine on a prefix-cache hit, before the first
        prefill chunk, with the cache already holding ``prefix_len`` tokens.
        Returns True when the snapshot was attached (the policy must then be
        in the exact state its own cold pipeline would reach after
        ``prefix_len`` prompt tokens); False falls back to cold construction
        (which still reads the reused keys from ``kvcache``).
        """
        return False

    def prefix_snapshot(self):
        """Reusable per-prefix artifacts captured during prefilling.

        The engine stores the returned object (if any) in the prefix cache
        alongside the request's KV blocks, keyed by
        :meth:`prefix_fingerprint`.  Default: nothing to share.
        """
        return None

    def release_prefix(self) -> None:
        """Drop references taken by :meth:`attach_prefix`.

        Called by the engine exactly once when the request finishes (or is
        aborted), so snapshot refcounts reflect live attachments.  Default:
        nothing to release.
        """

    # ----------------------------------------------------------- selection

    @abc.abstractmethod
    def select(
        self, layer_index: int, query: np.ndarray, cache: KVCache
    ) -> list[np.ndarray] | np.ndarray | None:
        """Token indices to attend to for this layer (per KV head)."""

    # ----------------------------------------------------- batch selection

    @classmethod
    def select_batch(
        cls,
        layer_index: int,
        items: "list[tuple[KVCachePolicy, np.ndarray, KVCache]]",
        timings: "dict[str, float] | None" = None,
    ) -> "list[list[np.ndarray] | np.ndarray | None]":
        """Select for several same-class requests in one fused decode round.

        ``items`` holds one ``(policy, query, cache)`` triple per request,
        in engine batch order.  The default simply loops :meth:`select`;
        subclasses override it with cross-request grouped kernels (e.g.
        PQCache's grouped ADC scoring).  Overrides MUST return, per item,
        exactly what that item's :meth:`select` would return — the fused
        decode path's byte-identity guarantee rests on it — including side
        effects (GPU-cache accounting).

        ``timings`` is an optional accumulator for host wall-clock stage
        seconds (keys ``"score"`` / ``"topk"`` / ``"assemble"``); overrides
        with separable stages add into it, the default loop leaves it
        untouched.
        """
        return [
            policy.select(layer_index, query, cache)
            for policy, query, cache in items
        ]

    @classmethod
    def on_decode_step_batch(
        cls, items: "list[tuple[KVCachePolicy, KVCache]]"
    ) -> None:
        """Post-append update for several same-class requests at once.

        ``items`` holds one ``(policy, cache)`` pair per request, in engine
        batch order.  Default loops :meth:`on_decode_step`; overrides must
        leave every policy in the exact state the per-item loop would.
        """
        for policy, cache in items:
            policy.on_decode_step(cache)

    # ------------------------------------------------------------- helpers

    def _require_config(self) -> ModelConfig:
        if self.config is None:
            raise ConfigurationError(
                f"{self.name}: on_prefill must be called before select"
            )
        return self.config

    def _kv_queries(self, query: np.ndarray) -> np.ndarray:
        """Average query heads within each GQA group: ``(h_kv, d_h)``.

        Selection happens at KV-head granularity (each key/value pair serves
        a whole group of query heads), so policies score candidates with the
        group-mean query — the same reduction SPARQ and InfLLM use.
        """
        config = self._require_config()
        h_kv = config.num_kv_heads
        group = config.gqa_group_size
        return query.reshape(h_kv, group, config.head_dim).mean(axis=1)

    def _assemble(
        self,
        middle_per_head: list[np.ndarray],
        segments: TokenSegments,
    ) -> list[np.ndarray]:
        """Combine initial + selected middle + local indices per KV head:
        sorted and duplicate-free — :meth:`_assemble_batch` of one."""
        return self._assemble_batch([(self, middle_per_head, segments)])[0]

    @staticmethod
    def _assemble_batch(
        items: "list[tuple[KVCachePolicy, list[np.ndarray], TokenSegments]]",
    ) -> "list[list[np.ndarray]]":
        """Initial + selected middle + local indices per KV head, sorted
        and duplicate-free, for every request of one fused round.

        ``items`` holds one ``(policy, middle_per_head, segments)`` triple
        per request.  ``(request, head)`` selections of equal assembled
        length are stacked and sorted with one ``np.sort(axis=1)`` call per
        length group; duplicates are then masked out per row (sort +
        adjacent-difference mask), so a request's entry does not depend on
        its batch-mates.
        """
        results: "list[list[np.ndarray]]" = []
        by_length: "dict[int, list[tuple[int, int, np.ndarray]]]" = {}
        for pos, (policy, middle_per_head, segments) in enumerate(items):
            config = policy._require_config()
            init = segments.initial_indices
            local = segments.local_indices
            for head in range(config.num_kv_heads):
                middle = np.asarray(middle_per_head[head], dtype=np.int64)
                row = np.concatenate([init, middle, local])
                by_length.setdefault(row.size, []).append((pos, head, row))
            results.append([None] * config.num_kv_heads)  # type: ignore[list-item]
        for length, members in by_length.items():
            if length == 0:
                for pos, head, row in members:
                    results[pos][head] = row
                continue
            stacked = np.sort(np.stack([row for _, _, row in members]), axis=1)
            keep = np.empty(stacked.shape, dtype=bool)
            keep[:, 0] = True
            keep[:, 1:] = stacked[:, 1:] != stacked[:, :-1]
            for (pos, head, _), row, row_keep in zip(members, stacked, keep):
                results[pos][head] = row[row_keep]
        return results

    @staticmethod
    def _topk(scores: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
        """Top-``k`` candidate indices ranked by ``scores`` (same length)."""
        if candidates.size == 0 or k <= 0:
            return np.empty(0, dtype=np.int64)
        order = topk_indices(scores, min(k, candidates.size))
        return candidates[order]

    # -------------------------------------------------------- communication

    def step_communication_bytes(self, seq_len: int) -> dict:
        """CPU→GPU bytes one decode step would move in a real deployment.

        Returns a dict with ``overlappable`` (can hide behind compute, e.g.
        PQ-code prefetch) and ``blocking`` (on the critical path, e.g. the
        top-k key/value fetch) byte counts.  Dropping methods move nothing.
        """
        return {"overlappable": 0.0, "blocking": 0.0}

    def step_cache_hit_rate(self) -> float:
        """Share of the current decode step's fetched tokens that a GPU-side
        cache served (aggregated over the step's layers, not the lifetime
        rate), which the engine feeds to the simulated TPOT.  Policies
        without such a cache hit nothing."""
        return 0.0

    def describe(self) -> dict:
        """Summary of the policy configuration for reports."""
        return {
            "name": self.name,
            "is_dropping": self.is_dropping,
            "token_ratio": self.budget.token_ratio,
            "comm_ratio": self.budget.comm_ratio,
            "num_initial": self.budget.num_initial,
            "num_local": self.budget.num_local,
        }
