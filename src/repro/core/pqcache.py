"""PQCacheManager: the paper's core contribution.

The manager owns, for every (layer, KV head) pair, a
:class:`~repro.core.pq.ProductQuantizer` trained on that head's prefilled
keys plus the running list of PQ codes, and answers approximate top-k queries
against the *middle* tokens during decoding (paper §3.1 steps ❷-❺):

* :meth:`PQCacheManager.build` — one-shot PQ construction after prefilling,
  honouring an (optionally adaptive) K-Means iteration budget.
* :meth:`PQCacheManager.build_incremental` / :meth:`PQCacheManager.refine` —
  the chunked-prefill pipeline: codebooks fitted from a sampled sketch of the
  first chunk(s), later chunks stream-encoded on arrival via
  :meth:`append_tokens`, and a final warm-started Lloyd refinement over the
  full key set once the prompt has completely arrived.
* :meth:`PQCacheManager.append_tokens` — assign codes to tokens evicted from
  the local window using their nearest centroids (no re-clustering).
* :meth:`PQCacheManager.approximate_scores` / :meth:`topk_middle` — ADC
  scoring of a decode query against the PQ codes and selection of the top-k
  candidate tokens per head, as an ascending token index set.

The construction methods hand their per-layer K-Means jobs to
:mod:`repro.cpu_lane`, which runs them in a helper interpreter on a
second core beside the caller (paper §3.3's K-Means on idle CPU cores); the
index is bit for bit the one an inline build makes.  :meth:`build` and
:meth:`build_incremental` collect their jobs before they return.
:meth:`refine` only submits its jobs: the first reader of the index (a
query, an append, a snapshot, :attr:`total_kmeans_iterations` or the next
refine) collects them, so the refine runs beside whatever the caller does
in between.  A code count needs no collect: a refine keeps it.

Batched decode-path layout
--------------------------
The decode hot path is fully vectorized across KV heads (paper §3.2's
``(h, m, 1, d_m) x (h, m, d_m, 2**b)`` formulation): :meth:`build` stacks the
per-head codebooks of each layer into one ``(h_kv, m, 2**b, sub_dim)`` tensor
and stores all heads' codes in one shared amortised-growth
``(capacity, h_kv, m)`` buffer, so :meth:`approximate_scores`,
:meth:`topk_middle` and :meth:`append_tokens` each issue a single
einsum/gather (:meth:`ProductQuantizer.score_batch` /
:meth:`ProductQuantizer.encode_batch`) instead of ``h_kv`` Python-level PQ
calls.

Selections are ascending index sets
-----------------------------------
A selection is only ever gathered, so :meth:`topk_middle` /
:func:`topk_middle_grouped` return each head's top-k in **ascending token
order**, not score order: one ``np.partition`` over all KV heads finds the
k-th scores, a boolean mask marks what beats them — ties at the k-th score
go to the lowest token indices, exactly the set
:func:`repro.utils.topk_indices` picks — and the indices are read off the
mask, sorted and duplicate-free by construction.  Because
:class:`~repro.llm.kvcache.TokenSegments` keeps initial, middle and local
disjoint and in token order, ``concatenate([initial, picked, local])`` is
the attended set as is: no ``argsort`` of the k, no ``np.unique`` after.

It also tracks the communication/bookkeeping quantities the system section
cares about: PQ code bytes, centroid bytes, and the GPU block cache that
absorbs part of the top-k key/value fetch traffic.  Per-step blocking-byte
estimates use the cache's *per-step* hit rate; the cumulative rate is kept
for reporting only.

Prefix reuse (snapshot / attach)
--------------------------------
The serving engine's shared-prefix cache reuses PQ artifacts across requests
so a cache-hit prompt never re-clusters what an earlier request already
fitted: :meth:`PQCacheManager.snapshot` captures the *pre-refine* state
(sketch-fitted codebooks + every code assigned so far) **by reference** —
nothing is copied; :meth:`refine` never writes in place (it rebuilds the
per-layer codebooks and codes from fresh arrays) and the code
buffers flip into copy-on-write mode so a later :meth:`append_tokens` copies
the shared buffer before mutating.
:meth:`PQCacheManager.attach` seeds a fresh manager from such a snapshot
(sliced to the matched prefix length), likewise copy-on-write.  Snapshots
are refcounted (``attach_count``/``release``; the serving engine balances
every attach with a release at request teardown), so ``attach_count``
always reports the *live* attachments and ``total_attaches`` the lifetime
reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..cpu_lane import Ticket, map_layers, submit
from ..errors import ConfigurationError, NotFittedError
from ..llm.config import ModelConfig
from ..llm.kvcache import KVCache, TokenSegments
from ..utils import DTYPE, as_rng, modelled_nbytes, topk_indices
from .gpu_cache import BlockGpuCache
from .pq import PQConfig, ProductQuantizer

__all__ = [
    "PQCacheConfig",
    "PQCacheManager",
    "PQSnapshot",
    "append_tokens_grouped",
    "topk_middle_grouped",
]


@dataclass(frozen=True)
class PQCacheConfig:
    """Configuration of the PQCache KVCache manager.

    Attributes:
        num_partitions: ``m`` — PQ sub-spaces per head (2 for LongBench,
            4 for InfiniteBench in the paper).
        num_bits: ``b`` — bits per PQ code (6 and 8 respectively).
        max_kmeans_iters: Lloyd iteration budget — a fixed number, or what
            an :class:`~repro.core.adaptive.AdaptiveIterationPlanner` allows
            for the prompt length.
        gpu_cache_tokens: capacity of the block-level GPU cache (0 disables).
        gpu_cache_block: tokens per cache block.
        gpu_cache_policy: ``"lru"`` or ``"lfu"``.
        k_cache_blocks: blocks used to update the GPU cache per retrieval.
        seed: RNG seed for codebook training.
    """

    num_partitions: int = 2
    num_bits: int = 6
    max_kmeans_iters: int = 25
    gpu_cache_tokens: int = 4096
    gpu_cache_block: int = 128
    gpu_cache_policy: str = "lru"
    k_cache_blocks: int = 32
    seed: int = 0

    def pq_config(self, head_dim: int) -> PQConfig:
        """PQ hyper-parameters for a head of dimensionality ``head_dim``."""
        return PQConfig(
            dim=head_dim,
            num_partitions=self.num_partitions,
            num_bits=self.num_bits,
            max_kmeans_iters=self.max_kmeans_iters,
            seed=self.seed,
        )

    def code_bytes_per_token_per_head(self) -> float:
        """PQ code bytes one token contributes per KV head (``m*b/8``)."""
        return self.num_partitions * self.num_bits / 8.0

    def communication_ratio(self, head_dim: int, dtype_bytes: int = 2) -> float:
        """Extra communication relative to raw keys: ``m*b / (8*dtype*d_h)``.

        This is the quantity the paper keeps at 1/128 (LongBench) or 1/64
        (InfiniteBench) — see §4.1.3.
        """
        return self.code_bytes_per_token_per_head() / (dtype_bytes * head_dim)


def _fit_sketch(
    config: PQConfig,
    keys: np.ndarray,
    sketch: "np.ndarray | None",
    max_iters: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One layer of :meth:`PQCacheManager.build_incremental`: codebooks fitted
    on the ``sketch`` token sample of ``keys`` (all of them when ``None``),
    then every key encoded with them."""
    codebooks, _, n_iter = ProductQuantizer.fit_batch(
        config, keys if sketch is None else keys[:, sketch], max_iters
    )
    return codebooks, ProductQuantizer.encode_batch(codebooks, keys), n_iter


class _LayerCodeBuffer:
    """Amortised-growth store of one layer's PQ codes for *all* KV heads.

    Backing array has shape ``(capacity, h_kv, m)`` so every head's code for
    a token lives in one contiguous row — a decode step appends one row for
    all heads at once, and the batched ADC kernels gather straight out of the
    shared buffer.  Growing by concatenation would re-copy every existing
    code each time (quadratic in the number of generated tokens); the buffer
    instead doubles its capacity on overflow, making appends amortised O(1),
    and :meth:`view` exposes the live rows without copying.
    """

    def __init__(self, codes: np.ndarray, shared: bool = False) -> None:
        codes = np.ascontiguousarray(codes, dtype=np.uint16)
        if codes.ndim != 3:
            raise ConfigurationError(
                "codes must have shape (n, num_kv_heads, num_partitions)"
            )
        self._buffer = codes
        self._length = codes.shape[0]
        #: copy-on-write guard: the backing array is (or may be) referenced
        #: by a prefix-cache snapshot or another request — the first
        #: :meth:`extend` copies the live rows into a private buffer.
        self._shared = shared

    def __len__(self) -> int:
        return self._length

    def mark_shared(self) -> None:
        """Flag the backing array as externally referenced (COW on extend)."""
        self._shared = True

    @property
    def is_shared(self) -> bool:
        return self._shared

    def extend(self, rows: np.ndarray) -> None:
        """Append token rows, shape ``(n_new, h_kv, m)``."""
        rows = np.asarray(rows, dtype=np.uint16)
        if rows.ndim != 3 or rows.shape[1:] != self._buffer.shape[1:]:
            raise ConfigurationError(
                f"rows must have shape (n, {self._buffer.shape[1]}, "
                f"{self._buffer.shape[2]}), got {rows.shape}"
            )
        n_new = rows.shape[0]
        if n_new == 0:
            return
        capacity = self._buffer.shape[0]
        if self._shared or self._length + n_new > capacity:
            new_capacity = max(2 * capacity, self._length + n_new, 64)
            grown = np.empty(
                (new_capacity,) + self._buffer.shape[1:], dtype=np.uint16
            )
            grown[: self._length] = self._buffer[: self._length]
            self._buffer = grown
            self._shared = False
        self._buffer[self._length : self._length + n_new] = rows
        self._length += n_new

    def view(self) -> np.ndarray:
        """Live rows, shape ``(len(self), h_kv, m)`` — a view, not a copy;
        callers must not mutate or hold it across appends."""
        return self._buffer[: self._length]


@dataclass(eq=False)
class PQSnapshot:
    """Immutable-by-convention capture of a manager's pre-refine PQ state.

    Everything is held *by reference*: the producing manager flips into
    copy-on-write mode when the snapshot is taken, and consumers attach the
    arrays copy-on-write too, so no codes or centroids are duplicated until
    someone actually mutates them (``refine`` builds new codebooks,
    ``append_tokens`` copies the code buffer).  A snapshot is a refcounted
    handle, so two snapshots are equal only when they are the same object
    (field-wise equality over arrays has no truth value).

    Attributes:
        codebooks: per-layer stacked ``(h_kv, m, 2**b, sub_dim)``
            sketch-fitted codebook tensors.
        codes: per-layer ``(num_tokens, h_kv, m)`` code arrays.
        num_tokens: tokens covered by the codes.
        sketch_upto: prompt tokens the codebook fit had seen — a consumer may
            only attach when its shared prefix covers at least this many
            tokens, otherwise its own cold pipeline would have fitted
            different codebooks and decode outputs would diverge.
        fingerprint: hashable configuration key; attach requires an exact
            match (same PQ geometry, seed and sketch schedule).
        attach_count: live references from attached managers (refcount).
        total_attaches: lifetime attach counter for reuse accounting.
        hold_count: live *storage* references (prefix-cache nodes holding the
            snapshot for future consumers) — separate from ``attach_count``
            so "who is using it" and "who is keeping it findable" stay
            independently auditable.  Every :meth:`retain` must be balanced
            by a :meth:`release_hold` when the holder (a cache node) is
            evicted or replaced, or holds leak across evict/re-insert cycles.
    """

    codebooks: list
    codes: list
    num_tokens: int
    sketch_upto: int
    fingerprint: object = None
    attach_count: int = 0
    total_attaches: int = 0
    hold_count: int = 0

    def release(self) -> None:
        """Drop one attached-manager reference."""
        if self.attach_count <= 0:
            raise ConfigurationError("PQSnapshot.release without matching attach")
        self.attach_count -= 1

    def retain(self) -> None:
        """Take one storage reference (a cache node now holds the snapshot)."""
        self.hold_count += 1

    def release_hold(self) -> None:
        """Drop one storage reference (the holding node was evicted/replaced)."""
        if self.hold_count <= 0:
            raise ConfigurationError("PQSnapshot.release_hold without matching retain")
        self.hold_count -= 1

    def nbytes(self, dtype_bytes: int) -> int:
        """Modelled storage cost of the shareable payload (codes + codebooks).

        Codebooks are billed at ``dtype_bytes`` per element, codes at their
        integer width.  PQ codes are ~1/64th of the raw KV bytes they index,
        which is what makes spilling snapshots alongside a cold chain nearly
        free.
        """
        return modelled_nbytes([*self.codes, *self.codebooks], dtype_bytes)

    def truncated(self, num_tokens: int) -> "PQSnapshot":
        """A view of this snapshot covering only its first ``num_tokens``.

        Everything stays shared by reference (:meth:`PQCacheManager.attach`
        slices the codes it adopts); only the advertised coverage shrinks.
        The prefix cache uses this when a snapshot is found on a *shallow*
        node of a matched chain: its deeper codes belong to the producer's
        diverging suffix and must never reach a consumer whose prompt only
        shares the node's prefix.  Refcounts (attach/hold) live on the view
        independently of the original.
        """
        if not 0 < num_tokens <= self.num_tokens:
            raise ConfigurationError(
                f"truncation must be in (0, {self.num_tokens}], got {num_tokens}"
            )
        if num_tokens == self.num_tokens:
            return self
        return PQSnapshot(
            codebooks=self.codebooks,
            codes=self.codes,
            num_tokens=int(num_tokens),
            sketch_upto=self.sketch_upto,
            fingerprint=self.fingerprint,
        )


class PQCacheManager:
    """Per-layer, per-head PQ index over the prefilled keys."""

    def __init__(self, model_config: ModelConfig, config: PQCacheConfig | None = None) -> None:
        self.model_config = model_config
        self.config = config or PQCacheConfig()
        head_dim = model_config.head_dim
        if head_dim % self.config.num_partitions != 0:
            raise ConfigurationError(
                f"head_dim {head_dim} not divisible by num_partitions "
                f"{self.config.num_partitions}"
            )
        self._pq_config = self.config.pq_config(head_dim)
        #: per-layer stacked codebooks, each ``(h_kv, m, 2**b, sub_dim)``
        self._codebooks: list[np.ndarray] = []
        #: per-layer shared code buffers, each backing ``(capacity, h_kv, m)``
        self._codes: list[_LayerCodeBuffer] = []
        self._built = False
        #: prompt tokens the codebook fit saw (0 = one-shot full build)
        self.sketch_upto = 0
        self._kmeans_iterations = 0
        #: a submitted refine nobody has collected yet
        self._refining: Ticket | None = None
        self.gpu_cache: BlockGpuCache | None = None
        if self.config.gpu_cache_tokens > 0:
            self.gpu_cache = BlockGpuCache(
                capacity_tokens=self.config.gpu_cache_tokens,
                block_size=self.config.gpu_cache_block,
                policy=self.config.gpu_cache_policy,
                k_cache_blocks=self.config.k_cache_blocks,
            )

    # --------------------------------------------------------------- build

    @property
    def is_built(self) -> bool:
        return self._built

    def _require_built(self) -> None:
        if not self._built:
            raise NotFittedError("PQCacheManager.build must be called first")
        self._collect()

    def _collect(self) -> None:
        """Adopt a submitted refine's output, waiting for it if need be."""
        if self._refining is not None:
            trained = self._refining.result()
            self._refining = None
            self._codebooks, self._codes = [], []
            for layer in trained:
                self._adopt(*layer)

    @property
    def total_kmeans_iterations(self) -> int:
        """Lloyd iterations of every K-Means problem since the last (re)build,
        a submitted refine's included."""
        self._collect()
        return self._kmeans_iterations

    def cancel_refine(self) -> None:
        """Withdraw a submitted refine's jobs the helper has not started.

        For an index nobody will read again (its request finished, was
        aborted or restarts from scratch).  A later read still gets the
        refined index: it runs the withdrawn jobs inline.
        """
        if self._refining is not None:
            self._refining.cancel()

    def _reset(self, sketch_upto: int) -> None:
        """Drop any previous index ahead of a (re)build; the lists are
        rebound, never cleared — a snapshot may still hold the old ones."""
        self.cancel_refine()
        self._refining = None
        self._codebooks = []
        self._codes = []
        self.sketch_upto = sketch_upto
        self._kmeans_iterations = 0

    def _adopt(
        self, codebooks: np.ndarray, codes: np.ndarray, n_iter: np.ndarray
    ) -> None:
        """Append one layer's batched training output — ``(h_kv, m, 2**b,
        sub_dim)`` codebooks, ``(h_kv, n, m)`` codes, per-problem Lloyd
        iterations — in the batched decode layout."""
        self._codebooks.append(codebooks)
        self._codes.append(_LayerCodeBuffer(codes.transpose(1, 0, 2)))
        self._kmeans_iterations += int(n_iter.sum())

    def build(self, kvcache: KVCache, max_iters: int | None = None) -> None:
        """Train PQ codebooks on every layer/head's prefilled keys.

        Args:
            kvcache: cache produced by the prefilling phase.
            max_iters: optional Lloyd iteration cap (e.g. from the adaptive
                planner); defaults to the config's ``max_kmeans_iters``.
        """
        self._reset(sketch_upto=0)
        # One K-Means call per layer over its h_kv * m (head, sub-space)
        # problems; its outputs are already in the batched decode layout.
        for trained in map_layers(
            ProductQuantizer.fit_batch,
            [
                (self._pq_config, kvcache[layer_index].keys, max_iters)
                for layer_index in range(self.model_config.num_layers)
            ],
        ):
            self._adopt(*trained)
        self._built = True

    def build_incremental(
        self,
        kvcache: KVCache,
        upto: int,
        max_iters: int | None = None,
        sample_tokens: int | None = None,
    ) -> None:
        """Fit codebooks from a *sampled sketch* of the first prefilled tokens.

        The chunked prefill pipeline cannot wait for the whole prompt before
        starting PQ construction: codebooks are trained on a deterministic
        sample of the first ``upto`` tokens' keys, then all ``upto`` tokens
        are encoded with them.  Later chunks are streamed in through
        :meth:`append_tokens`, and :meth:`refine` re-optimises the codebooks
        over the full key set once the prompt has fully arrived.

        Args:
            kvcache: cache holding at least ``upto`` prefilled tokens.
            upto: number of leading tokens available so far.
            max_iters: optional Lloyd iteration cap for the sketch fit.
            sample_tokens: sketch size; ``None`` or values >= ``upto`` use
                every available token.
        """
        if upto <= 0:
            raise ConfigurationError("upto must be positive")
        if len(kvcache[0]) < upto:
            raise ConfigurationError(
                f"kvcache holds {len(kvcache[0])} tokens, need {upto}"
            )
        self._reset(sketch_upto=int(upto))
        sketch: np.ndarray | None = None
        if sample_tokens is not None and sample_tokens < upto:
            # One shared token sample across layers/heads: deterministic for
            # the config seed, sorted to keep gathers cache-friendly.
            rng = as_rng(self.config.seed)
            sketch = np.sort(rng.choice(upto, size=int(sample_tokens), replace=False))

        for trained in map_layers(
            _fit_sketch,
            [
                (self._pq_config, kvcache[layer_index].read(0, upto)[0], sketch, max_iters)
                for layer_index in range(self.model_config.num_layers)
            ],
        ):
            self._adopt(*trained)
        self._built = True

    def refine(
        self,
        kvcache: KVCache,
        max_iters: int | None = None,
        tol: float = 1e-6,
    ) -> None:
        """Re-run Lloyd iterations over every encoded key and re-encode.

        Completes the incremental construction: each (layer, head,
        sub-space) codebook continues from its sketch-fitted centroids over
        the full set of currently-encoded keys, and every stored code is
        refreshed under the updated codebooks — so the index quality matches
        a one-shot :meth:`build` within the tolerance of K-Means local
        optima (asserted by test).

        Returns once the per-layer jobs are submitted to the CPU lane, with
        copies of the keys they read; the first reader of the index collects
        them.

        Args:
            kvcache: cache holding at least as many tokens as are encoded.
            max_iters: optional Lloyd iteration cap for the refinement.
            tol: relative inertia-improvement convergence tolerance.
        """
        self._require_built()
        counts = [len(buf) for buf in self._codes]
        for layer_index, n in enumerate(counts):
            if len(kvcache[layer_index]) < n:
                raise ConfigurationError(
                    f"kvcache layer {layer_index} holds "
                    f"{len(kvcache[layer_index])} tokens, {n} are encoded"
                )
        iters = self.config.max_kmeans_iters if max_iters is None else int(max_iters)
        # Nothing is refined in place — the collect rebuilds the per-layer
        # lists from fresh arrays — so a prefix-cache snapshot that shares
        # the old codebooks or codes keeps seeing exactly what it captured.
        self._refining = submit(
            ProductQuantizer.refine_batch,
            [
                (self._codebooks[layer_index], kvcache[layer_index].read(0, n)[0],
                 iters, tol)
                for layer_index, n in enumerate(counts)
            ],
        )

    # ------------------------------------------------------- prefix reuse

    def snapshot(self, fingerprint: object = None) -> PQSnapshot:
        """Capture the current PQ state for prefix reuse — by reference.

        Intended to be taken at the *pre-refine* point of the incremental
        pipeline (sketch codebooks + streamed codes): that state is a pure
        function of the prompt prefix and the PQ configuration, so any later
        request sharing the prefix reproduces it bit-for-bit by attaching
        instead of re-clustering.  The manager flips into copy-on-write mode:
        a subsequent :meth:`refine` replaces the codebooks and a subsequent
        :meth:`append_tokens` copies the shared code buffer, leaving the
        snapshot's arrays untouched.
        """
        self._require_built()
        for buf in self._codes:
            buf.mark_shared()
        return PQSnapshot(
            codebooks=list(self._codebooks),
            codes=[buf.view() for buf in self._codes],
            num_tokens=len(self._codes[0]) if self._codes else 0,
            sketch_upto=self.sketch_upto,
            fingerprint=fingerprint,
        )

    def attach(self, snapshot: PQSnapshot, upto: int | None = None) -> None:
        """Seed this (unbuilt) manager from a prefix-cache snapshot.

        The snapshot's codebooks and the first ``upto`` token codes are
        adopted by reference (copy-on-write on later mutation); the manager
        behaves exactly as if :meth:`build_incremental` had fitted the same
        sketch and streamed the same ``upto`` tokens — minus the K-Means and
        encode work.

        Args:
            snapshot: state captured by :meth:`snapshot`.
            upto: shared-prefix length; defaults to the full snapshot.  Must
                cover at least ``snapshot.sketch_upto`` tokens, otherwise the
                codebooks would encode data outside the shared prefix.
        """
        if self._built:
            raise ConfigurationError("attach requires an unbuilt manager")
        upto = snapshot.num_tokens if upto is None else int(upto)
        if not 0 < upto <= snapshot.num_tokens:
            raise ConfigurationError(
                f"upto must be in (0, {snapshot.num_tokens}], got {upto}"
            )
        if upto < snapshot.sketch_upto:
            raise ConfigurationError(
                f"cannot attach {upto} tokens of a snapshot whose codebooks "
                f"were fitted on {snapshot.sketch_upto} tokens"
            )
        model = self.model_config
        if len(snapshot.codebooks) != model.num_layers or (
            snapshot.codebooks
            and snapshot.codebooks[0].shape[0] != model.num_kv_heads
        ):
            raise ConfigurationError("snapshot geometry does not match model")
        self._codebooks = list(snapshot.codebooks)
        self._codes = [
            _LayerCodeBuffer(codes[:upto], shared=True) for codes in snapshot.codes
        ]
        self.sketch_upto = snapshot.sketch_upto
        self._built = True
        snapshot.attach_count += 1
        snapshot.total_attaches += 1

    # -------------------------------------------------------------- update

    def append_tokens(self, layer_index: int, keys: np.ndarray) -> None:
        """Assign PQ codes to new tokens' keys for every head of a layer.

        Called when generated tokens leave the local window (paper §3.4
        lines 3-5 of Algorithm 2): the tokens' keys are encoded with the
        existing centroids — no re-clustering happens.
        :func:`append_tokens_grouped` on a batch of one.

        Args:
            layer_index: transformer layer.
            keys: ``(num_kv_heads, n_new, head_dim)`` key vectors of the
                tokens, in ascending token order.
        """
        append_tokens_grouped([(self, layer_index, keys)])

    def num_codes(self, layer_index: int, head: int = 0) -> int:
        """Number of tokens currently encoded for (layer, head).

        Does not collect a submitted refine: it re-encodes exactly the
        tokens already encoded, so the count is known without it.
        """
        if not self._built:
            raise NotFittedError("PQCacheManager.build must be called first")
        return len(self._codes[layer_index])

    # --------------------------------------------------------------- query

    def quantizer(self, layer_index: int, head: int) -> ProductQuantizer:
        """A per-head quantizer *viewing* the layer's stacked codebooks —
        the ``h == 1`` reference the batched kernels are tested against."""
        self._require_built()
        pq = ProductQuantizer(self._pq_config)
        pq._centroids = self._codebooks[layer_index][head]
        return pq

    def codebooks(self, layer_index: int) -> np.ndarray:
        """Stacked codebooks of a layer: ``(h_kv, m, 2**b, sub_dim)``."""
        self._require_built()
        return self._codebooks[layer_index]

    def layer_codes(self, layer_index: int) -> np.ndarray:
        """All heads' current PQ codes: ``(n_codes, h_kv, m)`` uint16.

        Returns a *view* into the shared amortised-growth buffer — cheap to
        take, but do not mutate it or hold it across :meth:`append_tokens`
        calls.
        """
        self._require_built()
        return self._codes[layer_index].view()

    def codes(self, layer_index: int, head: int) -> np.ndarray:
        """Current PQ codes of (layer, head): ``(n_codes, m)`` uint16.

        A per-head *view* into the shared layer buffer (see
        :meth:`layer_codes`) — do not mutate it or hold it across appends.
        """
        return self.layer_codes(layer_index)[:, head, :]

    def approximate_scores(
        self, layer_index: int, kv_queries: np.ndarray
    ) -> np.ndarray:
        """ADC scores of every encoded token, shape ``(h_kv, n_codes)``.

        One :meth:`ProductQuantizer.score_batch` call over all KV heads.

        Args:
            kv_queries: ``(num_kv_heads, head_dim)`` group-mean queries.
        """
        self._require_built()
        kv_queries = np.asarray(kv_queries, dtype=DTYPE)
        codes = self._codes[layer_index].view()  # (n, h_kv, m)
        return ProductQuantizer.score_batch(
            self._codebooks[layer_index], kv_queries, codes.transpose(1, 0, 2)
        )

    def topk_middle(
        self,
        layer_index: int,
        kv_queries: np.ndarray,
        segments: TokenSegments,
        k: int,
    ) -> list[np.ndarray]:
        """Approximate top-k middle tokens per KV head, as ascending index sets.

        Tokens outside the middle segment (initial and local tokens) are
        excluded — they are always attended to anyway and never retrieved.
        Each head's array holds the tokens of its ``k`` best ADC scores in
        **ascending token order**, ties at the k-th score to the lowest
        token indices: :func:`topk_middle_grouped` on a batch of one.
        """
        ((picked, _),) = topk_middle_grouped(
            [(self, layer_index, kv_queries, segments, k)]
        )
        return list(picked)

    def record_fetch(self, token_indices: np.ndarray) -> dict | None:
        """Register a top-k key/value fetch with the GPU block cache.

        Returns the cache lookup result (hit/miss token arrays) or ``None``
        when the GPU cache is disabled.
        """
        if self.gpu_cache is None:
            return None
        return self.gpu_cache.access(token_indices)

    # ---------------------------------------------------------- accounting

    def memory_footprint(self, seq_len: int | None = None) -> dict:
        """Bytes used by PQ codes and centroids across all layers/heads."""
        self._require_built()
        model = self.model_config
        cfg = self.config
        if seq_len is None:
            seq_len = self.num_codes(0)
        codes_bytes = (
            model.num_layers
            * model.num_kv_heads
            * seq_len
            * cfg.code_bytes_per_token_per_head()
        )
        centroid_bytes = (
            model.num_layers
            * model.num_kv_heads
            * self._pq_config.centroid_bytes(model.dtype_bytes)
        )
        raw_kv_bytes = model.kvcache_bytes(seq_len)
        return {
            "codes_bytes": float(codes_bytes),
            "centroid_bytes": float(centroid_bytes),
            "raw_kv_bytes": float(raw_kv_bytes),
            "compression_ratio": float(raw_kv_bytes)
            / max(codes_bytes + centroid_bytes, 1.0),
        }

    def step_communication_bytes(self, seq_len: int, k: int) -> dict:
        """Per-decode-step communication of PQCache for the latency model.

        PQ code prefetch is overlappable (it happens during the previous
        layer's compute); the top-k key/value fetch is blocking but partially
        served by the GPU cache (the caller applies the hit rate).
        """
        model = self.model_config
        cfg = self.config
        codes = (
            model.num_kv_heads * seq_len * cfg.code_bytes_per_token_per_head()
        )
        topk_fetch = k * model.num_kv_heads * 2 * model.head_dim * model.dtype_bytes
        return {"overlappable": float(codes), "blocking": float(topk_fetch)}


# --------------------------------------------------------------------------
# Cross-request grouped collectives for the fused decode round
# --------------------------------------------------------------------------
#
# One engine decode round serves many RUNNING requests, each with its own
# PQCacheManager.  The collectives below are the batch entry points the
# fused decode round dispatches to; a per-manager call is the batch of one.
# ``append_tokens_grouped`` concatenates same-geometry requests along the
# *head* axis and issues one compute-bound encode kernel per group (stacking
# heads only adds independent rows — encode's batched matmul runs one
# identically-shaped BLAS call per (head, sub-space) slice).
# ``topk_middle_grouped`` scores and picks member by member: ADC scoring is
# a memory-bound table gather whose cost does not shrink by stacking heads.


def _topk_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise top-``k`` of an ``(h, n)`` score matrix as a boolean mask.

    Row ``i`` marks exactly the set ``topk_indices(scores[i], k)`` picks
    (``1 <= k <= n``): everything strictly better than the row's k-th score
    plus the lowest-index ties at it.  One ``np.partition`` over all rows
    finds the k-th scores; no row is sorted.
    """
    n = scores.shape[1]
    kth = np.partition(scores, n - k, axis=1)[:, n - k, None]
    mask = scores >= kth
    for row, (row_scores, row_mask) in enumerate(zip(scores, mask)):
        surplus = np.count_nonzero(row_mask) - k
        if surplus > 0:
            # Ties straddle the k-th score: drop the highest-index ones.
            ties = np.flatnonzero(row_scores == kth[row])
            row_mask[ties[ties.size - surplus:]] = False
        elif surplus < 0:
            # NaN scores (partition orders them last, comparisons with them
            # are false) leave the row short: defer to the reference.
            row_mask[:] = False
            row_mask[topk_indices(row_scores, k)] = True
    return mask


def topk_middle_grouped(
    items: "list[tuple[PQCacheManager, int, np.ndarray, TokenSegments, int]]",
    timings: "dict[str, float] | None" = None,
) -> "list[tuple[np.ndarray, np.ndarray]]":
    """Approximate top-k middle tokens per KV head for a batch of requests.

    Args:
        items: one ``(manager, layer_index, kv_queries, segments, k)`` tuple
            per request, in engine batch order; ``kv_queries`` is
            ``(num_kv_heads, head_dim)``.
        timings: optional accumulator for host wall-clock stage seconds —
            ``"score"`` (ADC table lookups) and ``"topk"`` (partition, mask
            and index read-out) are added into it.

    Returns:
        Per item ``(picked, union)``.  ``picked`` is ``(h_kv, k_eff)`` int64:
        row ``h`` is head ``h``'s selection as an **ascending** token index
        set (see the module docstring), ``k_eff`` the smaller of ``k`` and
        the number of encoded middle tokens.  ``union`` is the ascending
        union of the rows — what one fetch has to bring in.
    """
    results = []
    for manager, layer_index, kv_queries, segments, k in items:
        manager._require_built()
        codes = manager._codes[layer_index].view()  # (n, h_kv, m)
        # Codes are aligned with absolute token positions, so the encoded
        # part of the (contiguous) middle segment is a zero-copy slice.
        start, stop = segments.middle_range
        stop = min(stop, codes.shape[0])
        k_eff = min(int(k), stop - start)
        if k_eff <= 0:
            h_kv = manager.model_config.num_kv_heads
            results.append(
                (np.empty((h_kv, 0), dtype=np.int64), np.empty(0, dtype=np.int64))
            )
            continue
        # (Concatenating the batch's heads into one scoring call measured
        # slower at long contexts: a multi-megabyte copy of the transposed
        # code views, then strided 2-D gathers over it.)
        score_start = perf_counter()
        scores = ProductQuantizer.score_batch(
            manager._codebooks[layer_index],
            np.asarray(kv_queries, dtype=DTYPE),
            codes[start:stop].transpose(1, 0, 2),
        )  # (h_kv, stop - start)
        topk_start = perf_counter()
        mask = _topk_mask(scores, k_eff)
        # Row-major flat positions of the set bits, k_eff per row; taking
        # each row's offset out leaves token indices.  (``np.nonzero`` on the
        # 2-D mask measured 5x slower than this.)
        picked = np.flatnonzero(mask).reshape(-1, k_eff)
        picked += start - mask.shape[1] * np.arange(mask.shape[0])[:, None]
        union = np.flatnonzero(mask.any(axis=0)) + start
        results.append((picked, union))
        if timings is not None:
            timings["score"] = (
                timings.get("score", 0.0) + topk_start - score_start
            )
            timings["topk"] = (
                timings.get("topk", 0.0) + perf_counter() - topk_start
            )
    return results


def append_tokens_grouped(
    items: "list[tuple[PQCacheManager, int, np.ndarray]]",
) -> None:
    """Assign PQ codes to new tokens' keys, for a batch of requests.

    Args:
        items: one ``(manager, layer_index, keys)`` tuple per request with
            ``keys`` shaped ``(num_kv_heads, n_new, head_dim)``; requests
            with the same ``(n_new, geometry)`` share one
            :meth:`ProductQuantizer.encode_batch` call.  A manager's codes
            do not depend on its batch-mates.
    """
    groups: dict = {}
    for manager, layer_index, keys in items:
        manager._require_built()
        keys = np.asarray(keys, dtype=DTYPE)
        h_kv = manager.model_config.num_kv_heads
        if keys.ndim != 3 or keys.shape[0] != h_kv:
            raise ConfigurationError(
                f"keys must have shape ({h_kv}, n_new, "
                f"{manager.model_config.head_dim}), got {keys.shape}"
            )
        if keys.shape[1] == 0:
            continue
        codebooks = manager._codebooks[layer_index]
        key = (keys.shape[1],) + codebooks.shape[1:]
        groups.setdefault(key, []).append((manager, layer_index, codebooks, keys))
    for members in groups.values():
        if len(members) == 1:
            manager, layer_index, codebooks, keys = members[0]
            codes = ProductQuantizer.encode_batch(codebooks, keys)
            manager._codes[layer_index].extend(codes.transpose(1, 0, 2))
            continue
        all_codebooks = np.concatenate([m[2] for m in members], axis=0)
        all_keys = np.concatenate([m[3] for m in members], axis=0)
        codes = ProductQuantizer.encode_batch(all_codebooks, all_keys)
        offset = 0
        for manager, layer_index, codebooks, _ in members:
            h = codebooks.shape[0]
            manager._codes[layer_index].extend(
                codes[offset : offset + h].transpose(1, 0, 2)
            )
            offset += h
