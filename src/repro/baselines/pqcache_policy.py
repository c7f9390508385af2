"""PQCache expressed as a :class:`~repro.baselines.base.KVCachePolicy`.

This is the glue between the algorithmic core (:class:`PQCacheManager`) and
the generation loop: PQ construction (paper Algorithm 1) happens
incrementally across the prefill chunks the serving engine runs every
computed prompt as, approximate top-k retrieval plus GPU-cache bookkeeping
happens in ``select`` (Algorithm 2), and tokens leaving the local window
receive PQ codes in ``on_decode_step``.  The one-shot build of
``on_prefill`` serves a prefill the policy saw no chunk of: in the engine,
only an imported ``Request.prefill``.

Incremental construction (chunked prefill)
------------------------------------------
Under the engine's chunked-prefill pipeline the policy receives one
``on_prefill_chunk`` call per chunk: once ``sketch_tokens`` prompt tokens
have arrived (or the prompt ends first) the codebooks are fitted from a
sampled sketch of the keys seen so far, later chunks are stream-encoded with
those codebooks as they arrive, and ``finish_prefill`` re-runs Lloyd
iterations over the full key set (:meth:`PQCacheManager.refine`) and
re-encodes — mirroring how the paper overlaps K-Means with prefill compute.

The overlap holds on the *simulated* clock
(:meth:`~repro.memory.LatencyModel.chunked_prefill_timeline` runs each
layer's refine on the CPU lane while later chunks compute).  On the host the
sketch fit and the refine run where the paper runs them, on a CPU core the
model is not using: :class:`~repro.core.pqcache.PQCacheManager` hands its
per-layer jobs to one helper interpreter (:mod:`repro.cpu_lane`), with
the bits of an inline run.  The sketch fit is collected inside the chunk
that starts it.  The refine is only submitted: ``finish_prefill`` returns
and the first token leaves while the helper refines, and the first reader
of the index (the first ``select``, the post-append encode or a refresh)
collects it, running inline only the layers the helper has not started.
The two clocks also refine different token sets: the timeline bills a
refine over the tokens up to the second-to-last chunk, while the host
refines the full prompt.

Prefix reuse
------------
The pre-refine state (sketch codebooks + streamed codes) is a pure function
of the prompt prefix, the PQ configuration and the sketch schedule — so on a
shared-prefix cache hit the engine hands this policy an earlier request's
:class:`~repro.core.pqcache.PQSnapshot` via :meth:`attach_prefix` and the
manager adopts it copy-on-write instead of re-clustering; the final
refinement still runs over the full prompt, which is exactly what the cold
pipeline would have done from the same pre-refine state, keeping decode
outputs byte-identical between hit and cold paths.  ``finish_prefill``
captures this request's own pre-refine snapshot so the engine can cache it
for the next request.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..core.pqcache import (
    PQCacheConfig,
    PQCacheManager,
    PQSnapshot,
    append_tokens_grouped,
    topk_middle_grouped,
)
from ..errors import ConfigurationError
from ..llm.config import ModelConfig
from ..llm.kvcache import KVCache
from ..llm.model import PrefillResult
from .base import KVCachePolicy, SelectionBudget

__all__ = ["PQCachePolicy"]


class PQCachePolicy(KVCachePolicy):
    """Selective attention driven by Product Quantization retrieval.

    Args:
        budget: shared token/communication budget.
        pq_config: PQ hyper-parameters, the K-Means iteration budget
            (``max_kmeans_iters``) among them.
        sketch_tokens: prompt tokens to wait for (and sample size used)
            before fitting the sketch codebooks.
        refresh_every: ParisKV-style drift handling — every ``N`` decode
            steps the codebooks are re-refined over all currently-encoded
            keys (:meth:`PQCacheManager.refine`, warm-started from the
            current centroids) so retrieval quality tracks the drifting key
            distribution as generation appends tokens.  The serving engine
            bills each refresh as a clustering timeline task via
            :meth:`~repro.baselines.base.KVCachePolicy.consume_maintenance`.
            ``None`` (default) disables refreshing.
    """

    name = "pqcache"
    is_dropping = False
    #: selection reads only PQ codes and segment geometry — never the
    #: prefill attention aggregates — so prefix reuse is not limited to
    #: aggregate-snapshot boundaries.
    needs_prefill_aggregates = False

    def __init__(
        self,
        budget: SelectionBudget,
        pq_config: PQCacheConfig | None = None,
        sketch_tokens: int = 256,
        refresh_every: int | None = None,
    ) -> None:
        super().__init__(budget)
        if refresh_every is not None and int(refresh_every) <= 0:
            raise ConfigurationError("refresh_every must be a positive integer")
        self.pq_config = pq_config or PQCacheConfig()
        self.sketch_tokens = int(sketch_tokens)
        self.refresh_every = None if refresh_every is None else int(refresh_every)
        self.manager: PQCacheManager | None = None
        self._encoded_until = 0
        self._steps_since_refresh = 0
        self._prefix_snapshot: PQSnapshot | None = None
        self._attached_snapshot: PQSnapshot | None = None

    # ----------------------------------------------------------- lifecycle

    def _prepare(self, config: ModelConfig, prefill: PrefillResult) -> None:
        self.manager = PQCacheManager(config, self.pq_config)
        self.manager.build(prefill.kvcache)
        self._encoded_until = prefill.seq_len

    def on_prefill_chunk(
        self,
        config: ModelConfig,
        kvcache: KVCache,
        start: int,
        stop: int,
        total_len: int,
    ) -> None:
        """Incremental construction step for one arrived prefill chunk."""
        self.config = config
        if self.manager is None:
            self.manager = PQCacheManager(config, self.pq_config)
        if not self.manager.is_built:
            # Wait for a meaningful sketch (or the whole prompt, whichever
            # comes first) before fitting.  The fit boundary is *schedule
            # independent* — exactly ``min(sketch_tokens, total_len)`` tokens,
            # never "wherever the scheduler's chunk happened to end" — so the
            # pre-refine state is a pure function of the prompt prefix and
            # the config: any chunking (and any prefix-cache consumer)
            # reproduces the same codebooks bit for bit.  Tokens beyond the
            # boundary that arrived in the same chunk are stream-encoded
            # immediately after, like any later chunk.
            target = min(self.sketch_tokens, total_len)
            if stop >= target:
                self.manager.build_incremental(
                    kvcache, upto=target, sample_tokens=self.sketch_tokens
                )
                self._stream_encode(kvcache, target, stop)
            return
        self._stream_encode(kvcache, start, stop)

    def _stream_encode(self, kvcache: KVCache, start: int, stop: int) -> None:
        """Encode tokens ``[start, stop)`` with the current centroids, one
        batched call per layer (no re-clustering)."""
        if start < stop:
            for layer_index in range(kvcache.num_layers):
                self.manager.append_tokens(layer_index, kvcache[layer_index].read(start, stop)[0])
        self._encoded_until = stop

    # -------------------------------------------------------- prefix reuse

    def prefix_fingerprint(self):
        """Key under which this policy's PQ artifacts are shareable.

        Reuse requires the consumer's cold pipeline to be a deterministic
        function of the shared prefix, which incremental construction is.
        """
        return ("pqcache", self.pq_config, self.sketch_tokens)

    def attach_prefix(
        self,
        config: ModelConfig,
        kvcache: KVCache,
        snapshot,
        prefix_len: int,
    ) -> bool:
        """Adopt a shared prefix's sketch codebooks and codes (no k-means).

        The snapshot is sliced to the shared ``prefix_len``; any matched
        tokens beyond the snapshot's coverage are stream-encoded from the
        reused keys.  Afterwards the policy state equals what its own cold
        pipeline would hold after ``prefix_len`` prompt tokens.
        """
        if not isinstance(snapshot, PQSnapshot):
            return False
        if snapshot.fingerprint != self.prefix_fingerprint():
            return False
        # Soundness gate: this request's own cold pipeline fits its sketch
        # at min(sketch_tokens, total_len) tokens.  Reuse is exact only when
        # the producer fitted at the canonical full-sketch boundary (its
        # prompt covered sketch_tokens) and the shared prefix covers it too;
        # a short-prompt producer's codebooks (fitted at its total_len)
        # would differ from what this request's cold run would build.
        if snapshot.sketch_upto != self.sketch_tokens:
            return False
        if prefix_len < self.sketch_tokens:
            return False
        self.config = config
        upto = min(prefix_len, snapshot.num_tokens)
        self.manager = PQCacheManager(config, self.pq_config)
        self.manager.attach(snapshot, upto)
        self._attached_snapshot = snapshot
        self._stream_encode(kvcache, upto, prefix_len)
        return True

    def prefix_snapshot(self) -> PQSnapshot | None:
        """Pre-refine snapshot captured by :meth:`finish_prefill`, if any."""
        return self._prefix_snapshot

    def release_prefix(self) -> None:
        """Drop this request's reference on the attached snapshot, and
        withdraw a refine nobody collected (the engine calls this when the
        request finishes, aborts or restarts from scratch)."""
        if self.manager is not None:
            self.manager.cancel_refine()
        if self._attached_snapshot is not None:
            self._attached_snapshot.release()
            self._attached_snapshot = None

    def finish_prefill(self, config: ModelConfig, prefill: PrefillResult) -> None:
        """Refine the incrementally-built index, or fall back to one-shot."""
        if self.manager is None or not self.manager.is_built:
            # No chunk was observed, so this is an imported prefill: the
            # last chunk of a computed prompt always reaches the sketch
            # boundary min(sketch_tokens, total_len).  Build in one shot.
            self.on_prefill(config, prefill)
            return
        self.config = config
        self.prompt_len = prefill.seq_len
        # Capture the pre-refine state for prefix reuse *before* refine
        # mutates it: this is the stage that is a pure function of the
        # prompt prefix (copy-on-write, so the capture is free).
        self._prefix_snapshot = self.manager.snapshot(self.prefix_fingerprint())
        self.manager.refine(prefill.kvcache)
        self._encoded_until = prefill.seq_len

    def on_decode_step(self, cache: KVCache) -> None:
        """Assign PQ codes to tokens that have left the local window —
        :meth:`on_decode_step_batch` on a batch of one."""
        self.on_decode_step_batch([(self, cache)])

    def _pending_encode_range(self, cache: KVCache) -> tuple[int, int]:
        """Token range ``[start, middle_end)`` awaiting PQ codes, if any."""
        start, stop = self.budget.segments(cache.seq_len).middle_range
        return self._encoded_until, stop if stop > start else 0

    def _maybe_refresh(self, cache: KVCache) -> None:
        """Count one decode step and re-refine codebooks every N steps."""
        if self.refresh_every is None or self.manager is None:
            return
        if not self.manager.is_built:
            return
        self._steps_since_refresh += 1
        if self._steps_since_refresh < self.refresh_every:
            return
        self._steps_since_refresh = 0
        before = self.manager.total_kmeans_iterations
        self.manager.refine(cache)
        config = self._require_config()
        jobs = config.num_layers * config.num_kv_heads * self.pq_config.num_partitions
        iterations = (self.manager.total_kmeans_iterations - before) / max(jobs, 1)
        self._pending_maintenance = {
            "kind": "pq_refresh",
            "tokens": int(self.manager.num_codes(0)),
            "iterations": float(iterations),
        }

    # ----------------------------------------------------------- selection

    def select(self, layer_index: int, query: np.ndarray, cache: KVCache):
        """Per KV head, the ascending token indices this layer attends to —
        :meth:`select_batch` on a batch of one."""
        return self.select_batch(layer_index, [(self, query, cache)])[0]

    # ------------------------------------------------------ batch selection

    @classmethod
    def select_batch(cls, layer_index, items, timings=None):
        """ADC scoring + top-k + cache accounting for one fused decode round.

        :func:`~repro.core.pqcache.topk_middle_grouped` hands back each
        head's picks as an ascending index set; the head's attended set is
        ``concatenate([initial, picked, local])`` —
        :class:`~repro.llm.kvcache.TokenSegments` makes the three disjoint
        and ordered, so it is sorted and duplicate-free without an
        ``np.unique``.  The union of the heads' picks is registered with the
        request's GPU block cache so hit-rate statistics reflect real
        traffic; layer 0 opens a new decode step (the per-step hit rate
        aggregates every layer's access, see ``CacheStats.step_hit_rate``).
        ``timings`` gains ``"score"`` / ``"topk"`` from the grouped kernel
        and ``"assemble"`` for the accounting and concatenation here.
        """
        jobs = []
        for policy, query, cache in items:
            policy._require_config()
            assert policy.manager is not None, "on_prefill must run before select"
            segments = policy.budget.segments(len(cache[layer_index]))
            k = policy.budget.middle_budget(policy.prompt_len)
            jobs.append(
                (policy.manager, layer_index, policy._kv_queries(query), segments, k)
            )
        grouped = topk_middle_grouped(jobs, timings=timings)
        start = perf_counter()
        results = []
        for (manager, _, _, segments, _), (picked, union) in zip(jobs, grouped):
            if manager.gpu_cache is not None:
                if layer_index == 0:
                    manager.gpu_cache.begin_step()
                manager.record_fetch(union)
            initial, local = segments.initial_indices, segments.local_indices
            results.append([np.concatenate([initial, row, local]) for row in picked])
        if timings is not None:
            timings["assemble"] = (
                timings.get("assemble", 0.0) + perf_counter() - start
            )
        return results

    @classmethod
    def on_decode_step_batch(cls, items):
        """Post-append PQ encoding for one fused decode round.

        After a decode step each sequence grew by one; tokens whose indices
        now fall inside the middle segment but have no codes yet are encoded
        with the existing centroids (Algorithm 2 lines 3-5).  Requests with
        pending tokens share one
        :meth:`~repro.core.pq.ProductQuantizer.encode_batch` call per layer
        (via :func:`~repro.core.pqcache.append_tokens_grouped`); per-request
        state is fully isolated, so running the appends layer-major across
        requests cannot change any request's codes, ``_encoded_until`` or
        refresh counter.
        """
        pending = []
        for policy, cache in items:
            if policy.manager is None:
                continue
            config = policy._require_config()
            start, middle_end = policy._pending_encode_range(cache)
            if start < middle_end:
                pending.append((policy, cache, start, middle_end, config.num_layers))
        if pending:
            num_layers = max(entry[4] for entry in pending)
            for layer_index in range(num_layers):
                append_tokens_grouped(
                    [
                        (policy.manager, layer_index,
                         cache[layer_index].read(start, middle_end)[0])
                        for policy, cache, start, middle_end, layers in pending
                        if layer_index < layers
                    ]
                )
            for policy, _, _, middle_end, _ in pending:
                policy._encoded_until = middle_end
        for policy, cache in items:
            if policy.manager is not None:
                policy._maybe_refresh(cache)

    # -------------------------------------------------------- communication

    def step_communication_bytes(self, seq_len: int) -> dict:
        """Per-step CPU→GPU traffic estimate: the top-k key/value fetch
        (blocking) is scaled by :meth:`step_cache_hit_rate`."""
        self._require_config()
        assert self.manager is not None
        k = self.budget.middle_budget(self.prompt_len)
        comm = self.manager.step_communication_bytes(seq_len, k)
        comm["blocking"] *= 1.0 - self.step_cache_hit_rate()
        return comm

    def step_cache_hit_rate(self) -> float:
        """GPU block-cache hit rate of the *current* decode step.

        The aggregated hit/miss split of this step's retrievals across all
        layers — not the cumulative lifetime rate, which would let early
        cold misses (or a long warm streak) distort the estimate of the
        current step.  The cumulative rate remains available via
        ``manager.gpu_cache.stats.hit_rate`` for reporting.
        """
        cache = self.manager.gpu_cache if self.manager is not None else None
        if cache is None or not cache.stats.lookups:
            return 0.0
        return float(cache.stats.step_hit_rate)

    # ----------------------------------------------------------- reporting

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            {
                "pq_partitions": self.pq_config.num_partitions,
                "pq_bits": self.pq_config.num_bits,
                "gpu_cache_tokens": self.pq_config.gpu_cache_tokens,
                "refresh_every": self.refresh_every,
            }
        )
        return info
