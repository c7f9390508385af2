"""Analytical latency models for prefilling and decoding (Figures 8, 11, 12).

The models combine the device specifications (:mod:`repro.memory.devices`),
the model geometry (:class:`repro.llm.ModelConfig`), the PQ configuration and
the overlap scheduler (:class:`repro.memory.timeline.Timeline`) to predict:

* per-layer prefill compute / offload / clustering time (Figure 8),
* Time-To-Second-Token per method (Figure 11a),
* Time-Per-Output-Token per method and its scaling with sequence length
  (Figure 11b, 11c),
* prefill and decode time decompositions (Figure 12a, 12b).

Each method's communication pattern follows §4.3: dropping methods move no
data; SPARQ's partial-key fetch is blocking and scales with the sequence
length; InfLLM fetches representatives (overlappable) plus chosen blocks;
PQCache prefetches PQ codes (overlappable) and fetches top-k key/values,
partially served by the GPU block cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.pqcache import PQCacheConfig
from ..errors import ConfigurationError
from ..llm.config import ModelConfig
from .devices import HardwareSpec
from .timeline import Resource, Timeline

__all__ = ["MethodLatencyProfile", "LatencyModel", "resolve_method"]

#: methods understood by the latency model
_METHODS = (
    "full", "h2o", "snapkv", "pyramidkv", "sparq", "infllm", "pqcache", "oracle",
)


@dataclass(frozen=True)
class MethodLatencyProfile:
    """Latency-relevant behaviour of one method.

    Attributes:
        name: method name.
        prefill_extra: ``"none"``, ``"dense-scores"`` (H2O materialises the
            full attention matrix and cannot use FlashAttention), or
            ``"block-setup"`` (InfLLM's block metadata construction).
        decode_blocking_fetch: whether the per-step fetch depends on the
            current query (and therefore cannot be prefetched).
        uses_pq: whether PQ construction/search costs apply.
    """

    name: str
    prefill_extra: str = "none"
    decode_blocking_fetch: bool = False
    uses_pq: bool = False


_PROFILES = {
    "full": MethodLatencyProfile("full"),
    "oracle": MethodLatencyProfile("oracle", decode_blocking_fetch=True),
    "h2o": MethodLatencyProfile("h2o", prefill_extra="dense-scores"),
    "snapkv": MethodLatencyProfile("snapkv"),
    "pyramidkv": MethodLatencyProfile("pyramidkv"),
    "sparq": MethodLatencyProfile("sparq", decode_blocking_fetch=True),
    "infllm": MethodLatencyProfile("infllm", prefill_extra="block-setup",
                                   decode_blocking_fetch=True),
    "pqcache": MethodLatencyProfile("pqcache", decode_blocking_fetch=True,
                                    uses_pq=True),
}


def resolve_method(policy_name: str | None, is_dropping: bool = False) -> str:
    """Map a policy name onto the latency model's method vocabulary.

    The serving engine uses this to pick the latency profile of a request's
    policy: compensated-variant suffixes (``"h2o(c)"``) are stripped,
    ``None`` means full attention, StreamingLLM shares the dropping methods'
    no-communication profile, and unknown policies fall back to the dropping
    profile (no traffic) or the blocking-fetch offloading profile.
    """
    if policy_name is None:
        return "full"
    base = policy_name.split("(")[0].strip().lower()
    if base in _METHODS:
        return base
    if base == "streaming-llm" or is_dropping:
        return "snapkv"
    return "sparq"


class LatencyModel:
    """Prefill/decode latency estimator for every method in the paper."""

    def __init__(
        self,
        hardware: HardwareSpec,
        model: ModelConfig,
        pq_config: PQCacheConfig | None = None,
        token_ratio: float = 0.2,
        comm_ratio: float = 1.0 / 128.0,
        kmeans_iterations: int = 16,
        max_retrieval_tokens: int = 4096,
    ) -> None:
        if not 0 < token_ratio <= 1:
            raise ConfigurationError("token_ratio must be in (0, 1]")
        self.hardware = hardware
        self.model = model
        self.pq_config = pq_config or PQCacheConfig()
        self.token_ratio = token_ratio
        self.comm_ratio = comm_ratio
        self.kmeans_iterations = kmeans_iterations
        #: cap on the per-step key/value fetch for the retrieval methods.  In
        #: the paper's serving configuration the retrieval set is bounded by
        #: the GPU-resident working set (the 4K-token GPU cache), which is why
        #: PQCache's TPOT stays nearly flat as the context grows (Fig 11b).
        self.max_retrieval_tokens = max_retrieval_tokens

    # ----------------------------------------------------------- components

    def layer_prefill_compute_seconds(self, seq_len: int) -> float:
        """GPU compute time of one transformer layer during prefilling."""
        flops = self.model.layer_flops_prefill(seq_len)
        return self.hardware.gpu.compute_seconds(flops)

    def layer_offload_seconds(self, seq_len: int) -> float:
        """D2H time to offload one layer's keys and values."""
        num_bytes = seq_len * self.model.kv_bytes_per_token_per_layer()
        return self.hardware.interconnect.transfer_seconds(num_bytes)

    def layer_clustering_seconds(self, seq_len: int, iterations: int | None = None) -> float:
        """CPU time of K-Means clustering for one layer (all heads/groups).

        One clustering job exists per (KV head, partition); jobs run in
        parallel across cores, each using the per-job FLOP count
        ``s * 2**b * d_m * T`` for distance computations (§3.2).
        """
        iters = self.kmeans_iterations if iterations is None else iterations
        cfg = self.pq_config
        d_m = self.model.head_dim // cfg.num_partitions
        flops_per_job = 2.0 * seq_len * (1 << cfg.num_bits) * d_m * max(iters, 1)
        num_jobs = self.model.num_kv_heads * cfg.num_partitions
        workers = min(num_jobs * 4, self.hardware.cpu.cores)
        total_flops = flops_per_job * num_jobs
        return self.hardware.cpu.compute_seconds(total_flops, parallel_workers=workers)

    def layer_decode_compute_seconds(self, seq_len: int, method: str) -> float:
        """GPU compute time of one layer for a single decode step."""
        attended = seq_len if method == "full" else int(self.token_ratio * seq_len)
        flops = self.model.layer_flops_decode(seq_len, attended_tokens=max(attended, 1))
        return self.hardware.gpu.compute_seconds(flops)

    def pq_search_seconds(self, seq_len: int) -> float:
        """GPU time of the PQ score computation + top-k for one layer (§3.2)."""
        cfg = self.pq_config
        model = self.model
        table_flops = 2.0 * (1 << cfg.num_bits) * model.hidden_dim * model.head_dim / model.num_heads
        gather_flops = 2.0 * model.num_kv_heads * cfg.num_partitions * seq_len
        topk_flops = 4.0 * model.num_kv_heads * seq_len
        return self.hardware.gpu.compute_seconds(table_flops + gather_flops + topk_flops)

    def _decode_comm_bytes(self, seq_len: int, method: str) -> tuple[float, float]:
        """(overlappable, blocking) bytes of one layer's decode step."""
        model = self.model
        dtype = model.dtype_bytes
        k_full = max(int(self.token_ratio * seq_len), 1)
        # PQCache and InfLLM bound their per-step fetch by a GPU-resident
        # working set (block cache / block management); SPARQ and the Oracle
        # must fetch the full top-k from CPU every step.
        k_capped = max(min(k_full, self.max_retrieval_tokens), 1)
        per_token = model.num_kv_heads * 2 * model.head_dim * dtype
        if method in ("h2o", "snapkv", "pyramidkv", "full"):
            return 0.0, 0.0
        if method == "oracle":
            return 0.0, k_full * per_token
        if method == "sparq":
            # SPARQ scores with per-query-head dimension subsets, so the
            # partial keys are fetched at query-head granularity.
            r = max(int(round(self.comm_ratio * model.head_dim)), 1)
            partial = seq_len * model.num_heads * r * dtype
            return 0.0, partial + k_full * per_token
        if method == "infllm":
            reps = max(int(round(self.comm_ratio * 128)), 1)
            rep_bytes = (seq_len / 128.0) * reps * model.num_kv_heads * model.head_dim * dtype
            return rep_bytes, k_capped * per_token
        if method == "pqcache":
            codes = (
                model.num_kv_heads * seq_len
                * self.pq_config.code_bytes_per_token_per_head()
            )
            return codes, k_capped * per_token
        raise ConfigurationError(f"unknown method {method!r}")

    # -------------------------------------------------------------- prefill

    def prefill_decomposition(self, seq_len: int, iterations: int | None = None) -> dict:
        """Per-layer prefill component times (Figure 8 / 12a)."""
        return {
            "compute": self.layer_prefill_compute_seconds(seq_len),
            "offload": self.layer_offload_seconds(seq_len),
            "clustering": self.layer_clustering_seconds(seq_len, iterations),
        }

    def prefill_timeline(self, seq_len: int, method: str = "pqcache",
                         iterations: int | None = None) -> Timeline:
        """Overlap schedule of the whole prefilling phase for one method."""
        self._check_method(method)
        profile = _PROFILES[method]
        timeline = Timeline()
        compute = self.layer_prefill_compute_seconds(seq_len)
        if profile.prefill_extra == "dense-scores":
            # H2O materialises (h, s, s) attention scores; model the extra
            # memory traffic it costs on top of FlashAttention-style compute.
            score_bytes = self.model.num_heads * seq_len * seq_len * self.model.dtype_bytes
            compute += 3.0 * self.hardware.gpu.memory_seconds(score_bytes)
        offload = self.layer_offload_seconds(seq_len)
        clustering = self.layer_clustering_seconds(seq_len, iterations)

        prev_compute = None
        for layer in range(self.model.num_layers):
            compute_name = f"compute-L{layer}"
            deps = (prev_compute,) if prev_compute else ()
            timeline.add(compute_name, Resource.GPU, compute, deps)
            if method in ("pqcache", "sparq", "infllm", "oracle"):
                offload_name = f"offload-L{layer}"
                timeline.add(offload_name, Resource.D2H, offload, (compute_name,))
                if profile.uses_pq:
                    timeline.add(f"cluster-L{layer}", Resource.CPU, clustering,
                                 (offload_name,))
            if profile.prefill_extra == "block-setup":
                timeline.add(f"blocks-L{layer}", Resource.CPU, clustering * 0.1,
                             (compute_name,))
            prev_compute = compute_name
        return timeline

    # ------------------------------------------------------ chunked prefill

    def _layer_chunk_compute_seconds(self, chunk_len: int, prefix_len: int,
                                     profile: MethodLatencyProfile) -> float:
        """GPU compute of one layer for one prefill chunk."""
        flops = self.model.layer_flops_prefill_chunk(chunk_len, prefix_len)
        seconds = self.hardware.gpu.compute_seconds(flops)
        if profile.prefill_extra == "dense-scores":
            # Same telescoping quadratic as the attention FLOPs, so any
            # chunking's score-traffic charges sum to the monolithic
            # ``h * s^2`` bytes H2O pays for materialised attention scores.
            total = prefix_len + chunk_len
            quad = float(total) ** 2 - float(prefix_len) ** 2
            score_bytes = self.model.num_heads * quad * self.model.dtype_bytes
            seconds += 3.0 * self.hardware.gpu.memory_seconds(score_bytes)
        return seconds

    def prefill_chunk_seconds(self, chunk_len: int, prefix_len: int,
                              method: str = "pqcache") -> float:
        """GPU compute of one prefill chunk across all layers.

        This is the clock charge of one chunked-prefill engine step: the
        chunk's offload / clustering / encode work runs on other resources
        and overlaps, so only GPU compute is charged per chunk; whatever
        overlap cannot hide is settled once at completion via the residual of
        :meth:`chunked_prefill_timeline` over the charged chunks.  The chunk
        FLOP model telescopes, so the charges of any chunking sum to the
        monolithic compute of the same prompt.
        """
        self._check_method(method)
        profile = _PROFILES[method]
        return self._layer_chunk_compute_seconds(
            chunk_len, prefix_len, profile
        ) * self.model.num_layers

    def chunked_prefill_timeline(
        self,
        chunk_lens: "list[int] | tuple[int, ...]",
        method: str = "pqcache",
        iterations: int | None = None,
        sketch_tokens: int = 256,
        cached_prefix_tokens: int = 0,
    ) -> Timeline:
        """Overlap schedule of a chunked prefill (Figure 7's pipeline view).

        ``cached_prefix_tokens`` models a shared-prefix cache hit: the first
        that-many tokens cost **nothing** — no compute, offload or
        clustering tasks are emitted for them (the compute of the real
        chunks still accounts for attending over the cached prefix, via the
        telescoping chunk-FLOP model).  When the cached prefix already
        covers the sketch, codebook fitting is skipped entirely (the PQ
        artifacts are reused by reference) and later chunks only pay
        stream-encoding plus the final refinement.

        Models the per-chunk tasks of the incremental construction pipeline
        as dependency-linked :class:`~repro.memory.timeline.Task` objects:

        * ``compute-C{c}-L{l}`` (GPU) — chunk ``c`` through layer ``l``;
          GPU tasks serialise in (chunk, layer) order.
        * ``offload-C{c}-L{l}`` (D2H) — the chunk's keys/values of that
          layer move to host memory once its compute finished.
        * ``cluster-L{l}`` (CPU) — sketch-based K-Means fit for the layer,
          runnable as soon as the sketch chunk's offload finished.
        * ``encode-C{c}-L{l}`` (CPU) — stream-encoding of a later chunk,
          needs the layer's codebooks and the chunk's offloaded keys.
        * ``refine-L{l}`` (CPU) — Lloyd refinement over the retrieval
          candidates accumulated before the final chunk (the trailing chunk
          is local-window territory and is only stream-encoded), warm-started
          from the sketch codebooks so it needs roughly half the fit budget.
          It is gated on the second-to-last chunk's offload, so early layers
          refine while the last — most expensive — chunk is still computing,
          which is exactly the overlap the paper exploits.

        The makespan is therefore a genuinely overlapped schedule — strictly
        below the sequential sum of compute + offload + clustering — rather
        than the per-layer steady-state approximation of
        :meth:`prefill_timeline`.
        """
        self._check_method(method)
        if not chunk_lens or any(int(c) <= 0 for c in chunk_lens):
            raise ConfigurationError("chunk_lens must be non-empty and positive")
        if cached_prefix_tokens < 0:
            raise ConfigurationError("cached_prefix_tokens must be >= 0")
        profile = _PROFILES[method]
        offloading = method in ("pqcache", "sparq", "infllm", "oracle")
        timeline = Timeline()
        layers = self.model.num_layers
        cached = int(cached_prefix_tokens)
        total = cached + sum(int(c) for c in chunk_lens)

        # First chunk index at which the sketch (or the whole short prompt)
        # is available for codebook fitting.  A cached prefix that already
        # covers the sketch means the codebooks arrive pre-fitted with the
        # attached PQ snapshot: no cluster task at all.
        sketch_target = min(sketch_tokens, total)
        sketch_cached = cached >= sketch_target
        seen = cached
        sketch_chunk = -1 if sketch_cached else len(chunk_lens) - 1
        if not sketch_cached:
            for index, chunk in enumerate(chunk_lens):
                seen += int(chunk)
                if seen >= sketch_target:
                    sketch_chunk = index
                    break

        # The refinement pass covers the retrieval candidates offloaded up to
        # the second-to-last chunk (the trailing chunk is local-window
        # territory, only stream-encoded), so it is gated on that chunk and
        # overlaps the final — most expensive — chunk's compute.  It is
        # submitted right after its gate chunk: submission order is priority
        # on the serial CPU stream, and queueing it behind the last chunk's
        # encodes would needlessly push it past the end of compute.
        refine_gate = -1
        if profile.uses_pq and (len(chunk_lens) > 1 or sketch_cached):
            refine_gate = max(len(chunk_lens) - 2, sketch_chunk, 0)

        prev_gpu: str | None = None
        prefix = cached
        for c, chunk in enumerate(chunk_lens):
            chunk = int(chunk)
            compute = self._layer_chunk_compute_seconds(chunk, prefix, profile)
            offload = self.hardware.interconnect.transfer_seconds(
                chunk * self.model.kv_bytes_per_token_per_layer()
            )
            for layer in range(layers):
                compute_name = f"compute-C{c}-L{layer}"
                deps = (prev_gpu,) if prev_gpu else ()
                timeline.add(compute_name, Resource.GPU, compute, deps)
                prev_gpu = compute_name
                if not offloading:
                    continue
                offload_name = f"offload-C{c}-L{layer}"
                timeline.add(offload_name, Resource.D2H, offload, (compute_name,))
                if profile.prefill_extra == "block-setup":
                    # InfLLM's block-metadata construction is linear in the
                    # chunk length, so the per-chunk slices sum exactly to
                    # the monolithic timeline's per-layer setup cost.
                    timeline.add(
                        f"blocks-C{c}-L{layer}", Resource.CPU,
                        self.layer_clustering_seconds(chunk, iterations) * 0.1,
                        (compute_name,),
                    )
                if not profile.uses_pq:
                    continue
                if c == sketch_chunk:
                    timeline.add(
                        f"cluster-L{layer}", Resource.CPU,
                        self.layer_clustering_seconds(
                            min(prefix + chunk, sketch_tokens), iterations
                        ),
                        (offload_name,),
                    )
                elif c > sketch_chunk:
                    # One assignment pass over the chunk == a single Lloyd
                    # iteration's distance computations.  With the sketch
                    # served from the prefix cache there is no cluster task
                    # to wait for — encoding starts as soon as the chunk's
                    # keys are on the host.
                    encode_deps = (
                        (offload_name,)
                        if sketch_cached
                        else (f"cluster-L{layer}", offload_name)
                    )
                    timeline.add(
                        f"encode-C{c}-L{layer}", Resource.CPU,
                        self.layer_clustering_seconds(chunk, iterations=1),
                        encode_deps,
                    )
            prefix += chunk
            if offloading and profile.uses_pq and c == refine_gate:
                base_iters = (
                    self.kmeans_iterations if iterations is None else iterations
                )
                # Warm-started from the sketch codebooks: roughly half the
                # from-scratch Lloyd budget suffices.  The pass covers the
                # *full* prompt even on a cache hit — the implemented
                # pipeline re-refines every encoded key (that is what keeps
                # hit and cold decode outputs byte-identical), so the clock
                # bills it honestly; the cache-hit savings are the skipped
                # compute/offload/sketch-fit/encode tasks, not the refine.
                refine = self.layer_clustering_seconds(
                    prefix, max(base_iters // 2, 1)
                )
                for layer in range(layers):
                    deps = [f"offload-C{c}-L{layer}"]
                    if not sketch_cached:
                        deps.append(f"cluster-L{layer}")
                    if c > sketch_chunk:
                        deps.append(f"encode-C{c}-L{layer}")
                    timeline.add(
                        f"refine-L{layer}", Resource.CPU, refine, tuple(deps)
                    )
        return timeline

    # ------------------------------------------------------------- swapping

    def swap_out_timeline(
        self, num_bytes: float, disk_bytes: float = 0.0
    ) -> Timeline:
        """Overlap schedule of one swap-out event (preemption / cold spill).

        ``num_bytes`` leave the GPU over PCIe (D2H); of those,
        ``disk_bytes`` continue to the NVMe tier as a dependency-linked
        write — a chain spilled straight to disk still crosses PCIe first,
        so the disk write cannot start before the transfer delivered the
        bytes.  Demotions of already-CPU-resident chains are modelled by
        calling with ``num_bytes=0`` (pure disk write, no PCIe leg).
        """
        if num_bytes < 0 or disk_bytes < 0:
            raise ConfigurationError("swap byte counts must be >= 0")
        timeline = Timeline()
        prev: tuple[str, ...] = ()
        if num_bytes > 0:
            timeline.add(
                "swap-d2h", Resource.D2H,
                self.hardware.interconnect.transfer_seconds(num_bytes),
            )
            prev = ("swap-d2h",)
        if disk_bytes > 0:
            timeline.add(
                "swap-disk-write", Resource.DISK,
                self.hardware.storage.write_seconds(disk_bytes), prev,
            )
        return timeline

    def swap_in_timeline(
        self, num_bytes: float, disk_bytes: float = 0.0
    ) -> Timeline:
        """Overlap schedule of one swap-in / restore event.

        ``disk_bytes`` are first read back from NVMe; the H2D transfer of
        all ``num_bytes`` onto the GPU depends on that read (the PCIe leg
        cannot ship bytes the drive has not produced yet).
        """
        if num_bytes < 0 or disk_bytes < 0:
            raise ConfigurationError("swap byte counts must be >= 0")
        timeline = Timeline()
        prev: tuple[str, ...] = ()
        if disk_bytes > 0:
            timeline.add(
                "swap-disk-read", Resource.DISK,
                self.hardware.storage.read_seconds(disk_bytes),
            )
            prev = ("swap-disk-read",)
        if num_bytes > 0:
            timeline.add(
                "swap-h2d", Resource.H2D,
                self.hardware.interconnect.transfer_seconds(num_bytes), prev,
            )
        return timeline

    def swap_out_seconds(self, num_bytes: float, disk_bytes: float = 0.0) -> float:
        """Makespan of one swap-out event (what the engine clock charges)."""
        return self.swap_out_timeline(num_bytes, disk_bytes).makespan

    def swap_in_seconds(self, num_bytes: float, disk_bytes: float = 0.0) -> float:
        """Makespan of one swap-in / restore event."""
        return self.swap_in_timeline(num_bytes, disk_bytes).makespan

    def migration_timeline(
        self, kv_bytes: float, disk_bytes: float = 0.0
    ) -> Timeline:
        """Overlap schedule of one cross-worker prefix-chain migration.

        Shipping a cached chain from the worker that owns it to the worker a
        request was routed to has the swap-in shape: the owning worker's
        NVMe produces ``disk_bytes`` (the spilled KV plus artifact
        payloads), then all ``kv_bytes`` cross PCIe into the target GPU's
        block pool as a dependency-linked H2D transfer.  The cluster
        frontend charges the makespan to the *target* worker's clock, so a
        migrated request's TTFT honestly includes the transfer it waited on.
        """
        return self.swap_in_timeline(kv_bytes, disk_bytes)

    def migration_seconds(self, kv_bytes: float, disk_bytes: float = 0.0) -> float:
        """Makespan of one cross-worker chain migration."""
        return self.migration_timeline(kv_bytes, disk_bytes).makespan

    # --------------------------------------------------------------- decode

    def decode_decomposition(self, seq_len: int, method: str = "pqcache",
                             cache_hit_rate: float = 0.0) -> dict:
        """Per-step decode component times, summed over all layers (Fig 12b)."""
        self._check_method(method)
        layers = self.model.num_layers
        profile = _PROFILES[method]
        compute = self.layer_decode_compute_seconds(seq_len, method) * layers
        pq_search = self.pq_search_seconds(seq_len) * layers if profile.uses_pq else 0.0
        overlappable, blocking = self._decode_comm_bytes(seq_len, method)
        if method == "pqcache":
            blocking *= max(1.0 - cache_hit_rate, 0.0)
        interconnect = self.hardware.interconnect
        return {
            "llm_compute": compute,
            "pq_compute": pq_search,
            "overlappable_comm": interconnect.transfer_seconds(overlappable) * layers,
            "blocking_comm": interconnect.transfer_seconds(blocking) * layers,
        }

    def tpot(self, seq_len: int, method: str = "pqcache",
             cache_hit_rate: float = 0.0) -> float:
        """Time-Per-Output-Token: blocking components only (overlappable
        communication hides behind the next layer's compute)."""
        parts = self.decode_decomposition(seq_len, method, cache_hit_rate)
        overlap_penalty = max(
            parts["overlappable_comm"] - parts["llm_compute"], 0.0
        )
        return parts["llm_compute"] + parts["pq_compute"] + parts["blocking_comm"] + overlap_penalty

    def tt2t(self, seq_len: int, method: str = "pqcache",
             iterations: int | None = None, cache_hit_rate: float = 0.0) -> float:
        """Time-To-Second-Token: prefill makespan + one decode step (Fig 11a).

        The paper uses TT2T instead of TTFT because PQ construction overlaps
        prefilling and only affects the *second* token.
        """
        timeline = self.prefill_timeline(seq_len, method, iterations)
        return timeline.makespan + self.tpot(seq_len, method, cache_hit_rate)

    def gpu_memory_required_prefill(self, seq_len: int, method: str) -> float:
        """Bytes of GPU memory the prefilling phase needs (OOM check for H2O)."""
        weights = 2.0 * self.model.num_layers * (
            4 * self.model.hidden_dim ** 2
            + 3 * self.model.hidden_dim * self.model.ffn_dim
        ) * self.model.dtype_bytes / 2.0
        kv = self.model.kvcache_bytes(seq_len)
        extra = 0.0
        if _PROFILES[method].prefill_extra == "dense-scores":
            extra = self.model.num_heads * float(seq_len) ** 2 * self.model.dtype_bytes
        return weights + kv + extra

    # -------------------------------------------------------------- helpers

    @staticmethod
    def _check_method(method: str) -> None:
        if method not in _METHODS:
            raise ConfigurationError(
                f"unknown method {method!r}; valid: {', '.join(_METHODS)}"
            )

    @staticmethod
    def methods() -> tuple[str, ...]:
        return _METHODS
