"""Decoder-only transformer with GQA, RoPE, RMSNorm and SwiGLU.

This is the inference substrate the rest of the reproduction plugs into.  It
implements exactly the two phases the paper describes (§2.1):

* :meth:`TransformerLM.prefill` — runs all prompt tokens through every layer,
  fills the :class:`~repro.llm.kvcache.KVCache`, and collects the per-layer
  aggregate attention statistics that the dropping baselines (H2O, SnapKV,
  PyramidKV) need.  Since the chunked-prefill redesign this is a thin loop
  over :meth:`TransformerLM.prefill_chunk`: callers that need to interleave a
  long prompt with other work (the serving engine's chunked-prefill
  scheduler) drive :class:`PrefillState` directly via
  :meth:`TransformerLM.begin_prefill` / :meth:`TransformerLM.prefill_chunk` /
  :meth:`TransformerLM.finish_prefill`.
* :meth:`TransformerLM.decode_step_batch` — processes the last generated token
  of each request in the round, reading keys/values from the caches, with an
  optional per-layer *selector* callback that restricts attention to a subset
  of tokens.  That callback is how every KVCache policy (PQCache and the
  baselines) is injected.  :meth:`TransformerLM.decode_step` is the round of
  one.

The model itself is stateless across sequences — all per-sequence state
lives in the :class:`~repro.llm.kvcache.KVCache` each caller owns (and, for a
prompt that is still being prefilled, in its :class:`PrefillState`) — which is
what lets the serving engine (:mod:`repro.serve`) interleave prefill chunks
and decode steps of many concurrent requests over one shared
``TransformerLM``.

Chunk-size invariance
---------------------
Chunked prefilling is **bitwise identical** to single-shot prefilling: any
partition of the prompt into chunks produces the same KVCache contents,
aggregates and logits, bit for bit.  The rule that buys this is one sentence:
*the shape of every BLAS operand a token meets is a function of its absolute
position; only the aggregate fold is sequential.*

* Dense projections run on a fixed global row-block grid
  (:data:`PREFILL_ROW_BLOCK` rows, zero-padded), because BLAS ``matmul``
  results for one row change with the operand's row count — but within one
  operand shape GEMM computes each output row from its own input row only.
* Attention runs on a second fixed grid
  (:func:`~repro.llm.attention.prefill_attention`,
  :data:`~repro.llm.attention.PREFILL_TILE` query rows per tile): tile ``i``
  is always the same two GEMMs over keys/values ``[0, (i + 1) * T)``,
  zero-padded where the chunk does not cover the tile's rows or the cache
  does not yet hold its keys.  Masked scores are exact zeros and ``0 * v``
  adds nothing, so a row's logits, its fixed-width softmax denominator (a
  plain ``sum``) and its output do not depend on what else is in the tile.
* The accumulated/windowed per-key score statistics are the one reduction
  *across* queries, and a tile can be split between two chunks, so they fold
  strictly sequentially, one query row at a time
  (:meth:`TransformerLM._fold_scores`); NumPy's pairwise ``sum`` over a
  tile's rows would depend on where the chunk boundary fell.

Row-wise operations (RMSNorm, SiLU, RoPE, residual adds) only reduce along
the fixed feature axis and are invariant as-is.

Decode rounds get the same treatment at request granularity: decode-time
dense ops run on fixed ``(DECODE_ROW_BLOCK, d)`` zero-padded operands (see
:func:`_decode_rows`), so a request's decode step is bitwise identical
whether it runs in a :meth:`TransformerLM.decode_step_batch` round of one or
packed with other requests.

The model is random-initialised: no pretrained weights exist offline.  Its
purpose is to exercise the true code paths (per-head keys with RoPE, GQA
grouping, caches, latency accounting) and to provide logit-fidelity
comparisons between attention policies, not to produce fluent text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigurationError, DimensionError
from ..utils import as_rng
from .attention import GroupedDecodeAttention, prefill_attention
from .config import ModelConfig
from .kvcache import KVCache
from .layers import Linear, RMSNorm, SwiGLU
from .rope import rope_frequencies, rope_rotate

__all__ = [
    "BatchSelector",
    "DECODE_ROW_BLOCK",
    "LayerWeights",
    "PrefillAggregates",
    "PrefillResult",
    "PrefillState",
    "PREFILL_ROW_BLOCK",
    "Selector",
    "TransformerLM",
]

#: Row-block size of the fixed global grid used for dense projections during
#: prefilling.  Blocks are aligned to absolute token positions and zero-padded
#: to exactly this many rows, so a token's projection is computed from an
#: identically-shaped ``matmul`` regardless of chunk boundaries.
PREFILL_ROW_BLOCK = 256

#: Row-block size of the fixed-shape dense operands used during decoding.
#: Every decode-time projection/FFN ``matmul`` runs on exactly this many rows
#: (zero-padded), whatever the size of the round — see :func:`_decode_rows`.
DECODE_ROW_BLOCK = 8


def _blocked_rows(fn, rows: np.ndarray, global_start: int) -> np.ndarray:
    """Apply a row-wise dense op on the fixed global row-block grid.

    ``fn`` must map ``(PREFILL_ROW_BLOCK, d_in)`` to
    ``(PREFILL_ROW_BLOCK, d_out)`` row-independently (a :class:`Linear` or
    :class:`SwiGLU`).  Rows are placed at ``global_start + i`` on the grid and
    missing grid rows are zero-padded, so each row's result is bitwise
    independent of which other rows happen to share its chunk.
    """
    block = PREFILL_ROW_BLOCK
    s = rows.shape[0]
    pieces: list[np.ndarray] = []
    pos = 0
    while pos < s:
        g = global_start + pos
        offset = g % block
        take = min(block - offset, s - pos)
        if offset == 0 and take == block:
            pieces.append(fn(rows[pos: pos + block]))
        else:
            padded = np.zeros((block, rows.shape[1]), dtype=np.float64)
            padded[offset: offset + take] = rows[pos: pos + take]
            pieces.append(fn(padded)[offset: offset + take])
        pos += take
    if len(pieces) == 1:
        return pieces[0]
    return np.concatenate(pieces, axis=0)


def _decode_rows(fn, rows: np.ndarray) -> np.ndarray:
    """Apply a row-wise dense op on fixed ``(DECODE_ROW_BLOCK, d)`` operands.

    BLAS ``matmul`` results for one row change with the operand's row count
    (the reason prefill projections run on the :data:`PREFILL_ROW_BLOCK`
    grid), but within a *fixed* operand shape each row's result is bitwise
    independent of both its offset in the block and the other rows' contents
    — GEMM computes every output row from its own input row only, with a
    per-element accumulation order fixed by the operand shapes.  Decode
    rounds rely on exactly that: a round of one runs its token's row alone in
    a zero-padded block, a larger round packs up to :data:`DECODE_ROW_BLOCK`
    requests' rows into the same shape (streaming each weight matrix once per
    round instead of once per request), and both see identical per-row
    results.
    """
    block = DECODE_ROW_BLOCK
    b = rows.shape[0]
    pieces: list[np.ndarray] = []
    for pos in range(0, b, block):
        take = min(block, b - pos)
        if take == block:
            pieces.append(fn(rows[pos: pos + block]))
        else:
            padded = np.zeros((block, rows.shape[1]), dtype=np.float64)
            padded[:take] = rows[pos: pos + take]
            pieces.append(fn(padded)[:take])
    if len(pieces) == 1:
        return pieces[0]
    return np.concatenate(pieces, axis=0)


@dataclass
class LayerWeights:
    """Parameters of one transformer layer."""

    attn_norm: RMSNorm
    q_proj: Linear
    k_proj: Linear
    v_proj: Linear
    o_proj: Linear
    ffn_norm: RMSNorm
    ffn: SwiGLU

    @classmethod
    def init(cls, config: ModelConfig, rng: np.random.Generator) -> "LayerWeights":
        d = config.hidden_dim
        kv_dim = config.num_kv_heads * config.head_dim
        return cls(
            attn_norm=RMSNorm.init(d, rng),
            q_proj=Linear.init(d, d, rng),
            k_proj=Linear.init(d, kv_dim, rng),
            v_proj=Linear.init(d, kv_dim, rng),
            o_proj=Linear.init(d, d, rng),
            ffn_norm=RMSNorm.init(d, rng),
            ffn=SwiGLU.init(d, config.ffn_dim, rng),
        )

    @property
    def num_parameters(self) -> int:
        return sum(
            module.num_parameters
            for module in (
                self.attn_norm, self.q_proj, self.k_proj, self.v_proj,
                self.o_proj, self.ffn_norm, self.ffn,
            )
        )


@dataclass
class PrefillAggregates:
    """Per-layer attention statistics collected during prefilling.

    Attributes:
        accumulated_scores: ``(h_kv, s)`` attention mass each key received,
            summed over all prompt queries and averaged over the query heads
            in each GQA group (used by H2O-style policies).
        window_scores: ``(h_kv, s)`` attention mass each key received from
            the last ``observation_window`` prompt queries (used by
            SnapKV / PyramidKV).
        observation_window: how many trailing queries contributed to
            ``window_scores``.
    """

    accumulated_scores: np.ndarray
    window_scores: np.ndarray
    observation_window: int


@dataclass
class PrefillResult:
    """Everything the decoding phase needs after prefilling.

    ``cached_prefix_len`` is non-zero for prefills resumed from a cached
    prefix; when the resume was performed *without* an accumulated-score
    snapshot (``prefix_acc_scores``), the ``aggregates`` cover only the
    queries the model actually processed — callers that consume aggregates
    (the dropping baselines) must resume with a snapshot (the serving engine
    enforces this via ``KVCachePolicy.needs_prefill_aggregates``).

    ``acc_snapshots`` maps each requested snapshot boundary ``L`` to the
    per-layer ``(num_heads, L)`` accumulated-score state after the first
    ``L`` prompt queries — the payload a future resumed prefill needs.
    """

    kvcache: KVCache
    last_hidden: np.ndarray                       # (d,)
    logits: np.ndarray                            # (vocab,)
    aggregates: list[PrefillAggregates]           # one per layer
    prompt_queries: list[np.ndarray] | None       # per layer (h, s, d_h) or None
    seq_len: int
    cached_prefix_len: int = 0
    acc_snapshots: dict = field(default_factory=dict)


@dataclass
class PrefillState:
    """Resumable state of a (possibly chunked) prefill in progress.

    Created by :meth:`TransformerLM.begin_prefill`; advanced by
    :meth:`TransformerLM.prefill_chunk`; turned into a :class:`PrefillResult`
    by :meth:`TransformerLM.finish_prefill`.  The serving engine keeps one of
    these per ``PREFILLING`` request so a long prompt can be processed a few
    hundred tokens at a time, interleaved with other requests' work.

    Attributes:
        token_ids: the full prompt (known upfront — chunking only changes
            *when* tokens are processed, not what the prompt is).
        observation_window: effective trailing-query window
            (``min(requested, seq_len)``) for the SnapKV-style aggregate.
        kvcache: cache being filled; after chunk ``i`` it holds exactly the
            tokens processed so far, for every layer.
        next_pos: index of the first unprocessed token.
        acc_scores: per layer ``(num_heads, seq_len)`` running column sums of
            attention mass (sequentially accumulated, see module docstring).
        window_scores: per layer ``(num_heads, seq_len)`` running column sums
            restricted to the last ``observation_window`` queries.
        chunk_queries: per layer list of per-chunk query tensors when query
            collection was requested, else ``None``.
        prefix_len: tokens attached from a cached prefix — the model never
            re-processes them (``next_pos`` starts there and the kvcache
            already holds their keys/values for every layer).
        acc_snapshot_boundaries: sorted token boundaries at which the running
            accumulated-score state should be captured into
            ``acc_snapshots`` (the prefix cache's resume payload).
        acc_snapshots: boundary → per-layer ``(num_heads, L)`` snapshots.
        last_hidden: final hidden state, available once complete.
        logits: next-token logits of the last prompt token, once complete.
    """

    token_ids: np.ndarray
    observation_window: int
    kvcache: KVCache
    acc_scores: list[np.ndarray]
    window_scores: list[np.ndarray]
    chunk_queries: list[list[np.ndarray]] | None
    next_pos: int = 0
    prefix_len: int = 0
    acc_snapshot_boundaries: tuple = ()
    acc_snapshots: dict = field(default_factory=dict)
    last_hidden: np.ndarray | None = None
    logits: np.ndarray | None = None

    @property
    def seq_len(self) -> int:
        """Total prompt length."""
        return int(self.token_ids.size)

    @property
    def num_processed(self) -> int:
        """Tokens prefilled so far."""
        return self.next_pos

    @property
    def remaining_tokens(self) -> int:
        """Tokens still to prefill."""
        return self.seq_len - self.next_pos

    @property
    def is_complete(self) -> bool:
        return self.next_pos >= self.seq_len


# A selector receives (layer_index, query (h, d_h), layer cache) and returns
# either None (attend to everything) or a per-KV-head list of token indices.
Selector = Callable[[int, np.ndarray, "KVCache"], Sequence[np.ndarray] | np.ndarray | None]

# A batch selector receives (layer_index, per-request queries, per-request
# caches) and returns one selection per request, each in the same format a
# plain :data:`Selector` would return for that request.
BatchSelector = Callable[
    [int, "list[np.ndarray]", "list[KVCache]"],
    "list[Sequence[np.ndarray] | np.ndarray | None]",
]


class TransformerLM:
    """Random-initialised decoder-only language model.

    Args:
        config: model geometry.
        seed: seed for weight initialisation.
        embedding_overrides: optional mapping ``token_id -> (d,) vector``
            allowing workloads to plant structured embeddings (e.g. giving a
            "needle" token an embedding correlated with the question token)
            while keeping the rest of the vocabulary random.
        qk_coupling: in ``[0, 1]``; interpolates each layer's key projection
            towards its query projection.  A trained LLM's retrieval heads
            align queries with the keys of semantically matching tokens; a
            random-initialised model has no such alignment, so the synthetic
            evaluation harness uses a non-zero coupling to recover the
            "matching tokens attend to each other" behaviour that makes
            planted evidence retrievable — the substitution that stands in
            for pretrained weights, which do not exist offline.
        rope_base: RoPE theta base; larger values weaken the positional
            rotation, which the evaluation harness uses so that evidence far
            from the question is not positionally suppressed.
    """

    def __init__(
        self,
        config: ModelConfig,
        seed: int = 0,
        embedding_overrides: dict[int, np.ndarray] | None = None,
        qk_coupling: float = 0.0,
        rope_base: float = 10000.0,
    ) -> None:
        if not 0.0 <= qk_coupling <= 1.0:
            raise ConfigurationError("qk_coupling must be in [0, 1]")
        self.config = config
        self.qk_coupling = qk_coupling
        self.rope_base = rope_base
        rng = as_rng(seed)
        d = config.hidden_dim
        scale = 1.0 / np.sqrt(d)
        self.embedding = rng.normal(0.0, scale, size=(config.vocab_size, d))
        if embedding_overrides:
            for token_id, vector in embedding_overrides.items():
                vector = np.asarray(vector, dtype=np.float64).reshape(-1)
                if vector.shape[0] != d:
                    raise DimensionError(
                        f"embedding override for token {token_id} must have dim {d}"
                    )
                self.embedding[int(token_id)] = vector
        self.layers = [LayerWeights.init(config, rng) for _ in range(config.num_layers)]
        if qk_coupling > 0.0:
            self._couple_query_key(qk_coupling)
        self.final_norm = RMSNorm.init(d, rng)
        # Weight tying keeps the classifier consistent with planted embeddings,
        # which is what makes retrieval tasks decodable by argmax.
        self.lm_head = self.embedding
        #: both decode paths' attention kernel; its only state is a workspace
        self._decode_attention = GroupedDecodeAttention()

    # ------------------------------------------------------------- helpers

    def _couple_query_key(self, coupling: float) -> None:
        """Blend each KV head's key projection towards the query projection
        of the first query head in its GQA group, preserving the weight scale."""
        cfg = self.config
        mix = np.sqrt(max(1.0 - coupling ** 2, 0.0))
        for layer in self.layers:
            q_w = layer.q_proj.weight.reshape(cfg.num_heads, cfg.head_dim, cfg.hidden_dim)
            k_w = layer.k_proj.weight.reshape(cfg.num_kv_heads, cfg.head_dim, cfg.hidden_dim)
            for kv_head in range(cfg.num_kv_heads):
                q_head = kv_head * cfg.gqa_group_size
                k_w[kv_head] = coupling * q_w[q_head] + mix * k_w[kv_head]
            layer.k_proj.weight = k_w.reshape(cfg.num_kv_heads * cfg.head_dim, cfg.hidden_dim)

    @property
    def num_parameters(self) -> int:
        total = int(self.embedding.size) + self.final_norm.num_parameters
        total += sum(layer.num_parameters for layer in self.layers)
        return total

    def _decode_project_qkv(
        self,
        layer: LayerWeights,
        hidden_rows: np.ndarray,
        rope: "tuple[np.ndarray, np.ndarray]",
    ) -> "list[tuple[np.ndarray, np.ndarray, np.ndarray]]":
        """Per-request Q/K/V for a decode round, on the fixed decode block.

        ``hidden_rows`` stacks one ``(d,)`` last-token hidden state per
        request and ``rope`` holds the ``(cos, sin)`` tables of the requests'
        positions, row for row, built once per round.  Projections run
        through :func:`_decode_rows`, so a row's results are bitwise
        identical whether it is projected alone (a round of one) or
        alongside the rest of a fused batch.  RMSNorm and RoPE reduce along
        per-row axes only and are batch-invariant as-is.

        Returns one ``(q, k, v)`` triple per request, each head-major with a
        single token: ``q`` is ``(num_heads, 1, head_dim)``, ``k``/``v`` are
        ``(num_kv_heads, 1, head_dim)``.
        """
        cfg = self.config
        normed = layer.attn_norm(hidden_rows)
        q_all = _decode_rows(layer.q_proj, normed)
        k_all = _decode_rows(layer.k_proj, normed)
        v_all = _decode_rows(layer.v_proj, normed)
        cos, sin = rope
        triples = []
        for i in range(len(hidden_rows)):
            q = q_all[i].reshape(1, cfg.num_heads, cfg.head_dim).transpose(1, 0, 2)
            k = k_all[i].reshape(1, cfg.num_kv_heads, cfg.head_dim).transpose(1, 0, 2)
            v = v_all[i].reshape(1, cfg.num_kv_heads, cfg.head_dim).transpose(1, 0, 2)
            q = rope_rotate(q, cos[i : i + 1], sin[i : i + 1])
            k = rope_rotate(k, cos[i : i + 1], sin[i : i + 1])
            triples.append((q, k, v))
        return triples

    # ------------------------------------------------------------- prefill

    def begin_prefill(
        self,
        token_ids: Sequence[int],
        observation_window: int = 32,
        collect_queries: bool = False,
        kvcache: KVCache | None = None,
        prefix_len: int = 0,
        prefix_acc_scores: "list[np.ndarray] | None" = None,
        acc_snapshot_boundaries: "Sequence[int] | None" = None,
    ) -> PrefillState:
        """Start a (possibly chunked) prefill of ``token_ids``.

        Args:
            token_ids: prompt token ids.
            observation_window: trailing query count used for the SnapKV-style
                window aggregate.
            collect_queries: also collect per-layer prompt queries (needed by
                the Oracle policy's offline analysis and by tests).
            kvcache: cache to fill; defaults to a fresh monolithic
                :class:`~repro.llm.kvcache.KVCache`.  The serving engine
                passes a :class:`~repro.llm.kvcache.PagedKVCache` here.
            prefix_len: resume-from-offset — the first ``prefix_len`` prompt
                tokens are already present in ``kvcache`` (a shared-prefix
                hit) and are *not* re-processed.  Requires ``kvcache``.
            prefix_acc_scores: per-layer ``(num_heads, prefix_len)``
                accumulated-score snapshots captured by the prefill that
                produced the prefix; when given, the resumed aggregates are
                bitwise identical to a cold prefill's.  Without it the
                ``acc`` aggregates only cover the resumed queries.
            acc_snapshot_boundaries: token boundaries (each in
                ``(prefix_len, seq_len]``) at which to capture the running
                accumulated-score state for future resumes.

        Returns:
            A fresh :class:`PrefillState` with ``prefix_len`` tokens already
            accounted as processed.
        """
        token_ids = np.asarray(list(token_ids), dtype=np.int64)
        if token_ids.size == 0:
            raise ConfigurationError("prompt must contain at least one token")
        if observation_window <= 0:
            raise ConfigurationError("observation_window must be positive")
        cfg = self.config
        s = int(token_ids.size)
        prefix_len = int(prefix_len)
        if prefix_len < 0:
            raise ConfigurationError("prefix_len must be >= 0")
        if prefix_len >= s:
            raise ConfigurationError(
                f"prefix_len ({prefix_len}) must leave at least one prompt "
                f"token to process (prompt has {s})"
            )
        if prefix_len > 0:
            if kvcache is None:
                raise ConfigurationError("prefix_len > 0 requires a kvcache")
            if collect_queries:
                raise ConfigurationError(
                    "collect_queries is incompatible with prefix resume: the "
                    "cached prefix's queries were never materialised"
                )
            if len(kvcache) != prefix_len:
                raise ConfigurationError(
                    f"kvcache holds {len(kvcache)} tokens, prefix_len="
                    f"{prefix_len} expected"
                )
        elif kvcache is not None and len(kvcache) != 0:
            raise ConfigurationError("a fresh prefill requires an empty kvcache")
        if kvcache is None:
            kvcache = KVCache(
                cfg.num_layers, cfg.num_kv_heads, cfg.head_dim, cfg.dtype_bytes
            )

        acc_scores = [np.zeros((cfg.num_heads, s)) for _ in range(cfg.num_layers)]
        if prefix_acc_scores is not None:
            if prefix_len == 0:
                raise ConfigurationError(
                    "prefix_acc_scores requires a non-zero prefix_len"
                )
            if len(prefix_acc_scores) != cfg.num_layers:
                raise ConfigurationError(
                    f"prefix_acc_scores must have {cfg.num_layers} per-layer "
                    f"entries, got {len(prefix_acc_scores)}"
                )
            for layer_index, snapshot in enumerate(prefix_acc_scores):
                snapshot = np.asarray(snapshot, dtype=np.float64)
                if snapshot.shape != (cfg.num_heads, prefix_len):
                    raise DimensionError(
                        f"prefix_acc_scores[{layer_index}] must have shape "
                        f"({cfg.num_heads}, {prefix_len}), got {snapshot.shape}"
                    )
                acc_scores[layer_index][:, :prefix_len] = snapshot

        boundaries: tuple[int, ...] = ()
        if acc_snapshot_boundaries:
            boundaries = tuple(sorted({int(b) for b in acc_snapshot_boundaries}))
            for boundary in boundaries:
                if not prefix_len < boundary <= s:
                    raise ConfigurationError(
                        f"acc snapshot boundary {boundary} outside "
                        f"({prefix_len}, {s}]"
                    )

        return PrefillState(
            token_ids=token_ids,
            observation_window=min(observation_window, s),
            kvcache=kvcache,
            acc_scores=acc_scores,
            window_scores=[
                np.zeros((cfg.num_heads, s)) for _ in range(cfg.num_layers)
            ],
            chunk_queries=(
                [[] for _ in range(cfg.num_layers)] if collect_queries else None
            ),
            next_pos=prefix_len,
            prefix_len=prefix_len,
            acc_snapshot_boundaries=boundaries,
        )

    def prefill_chunk(
        self,
        state: PrefillState,
        num_tokens: int,
        timings: "dict[str, float] | None" = None,
    ) -> int:
        """Process the next ``num_tokens`` prompt tokens through every layer.

        Appends the chunk's keys/values to the state's KVCache, accumulates
        the attention aggregates, and — once the last chunk completes —
        computes the final hidden state and next-token logits.  Results are
        bitwise independent of the chunking (see module docstring).

        Args:
            state: prefill state from :meth:`begin_prefill`.
            num_tokens: chunk-size budget; the chunk is clipped to the
                remaining prompt.
            timings: optional accumulator for host wall-clock stage seconds —
                ``"projection"`` (norm, Q/K/V/O projections, RoPE, cache
                append), ``"attention"`` (the tiled GEMMs and softmax),
                ``"aggregates"`` (the per-key score folds) and ``"ffn"`` are
                added into it.

        Returns:
            The number of tokens actually processed.
        """
        if state.is_complete:
            raise ConfigurationError("prefill is already complete")
        if num_tokens <= 0:
            raise ConfigurationError("num_tokens must be positive")
        cfg = self.config
        start = state.next_pos
        stop = min(start + num_tokens, state.seq_len)
        t = stop - start
        # one pair of rotation tables for every layer's Q and K
        cos, sin = rope_frequencies(cfg.head_dim, np.arange(start, stop), self.rope_base)
        hidden = self.embedding[state.token_ids[start:stop]]
        stages = dict.fromkeys(("projection", "attention", "aggregates", "ffn"), 0.0)

        for layer_index, layer in enumerate(self.layers):
            tick = perf_counter()
            normed = layer.attn_norm(hidden)
            q = _blocked_rows(layer.q_proj, normed, start)
            k = _blocked_rows(layer.k_proj, normed, start)
            v = _blocked_rows(layer.v_proj, normed, start)
            q = q.reshape(t, cfg.num_heads, cfg.head_dim).transpose(1, 0, 2)
            k = k.reshape(t, cfg.num_kv_heads, cfg.head_dim).transpose(1, 0, 2)
            v = v.reshape(t, cfg.num_kv_heads, cfg.head_dim).transpose(1, 0, 2)
            q = rope_rotate(q, cos, sin)
            k = rope_rotate(k, cos, sin)
            layer_cache = state.kvcache[layer_index]
            layer_cache.append(k, v)
            if state.chunk_queries is not None:
                state.chunk_queries[layer_index].append(q)
            stages["projection"] += perf_counter() - tick

            # Causal attention of the chunk's queries over every key cached
            # so far (earlier chunks + this one); the per-key statistics the
            # baselines need are folded in tile by tile.
            def fold(position: int, scores: np.ndarray) -> None:
                began = perf_counter()
                self._fold_scores(state, layer_index, position, scores)
                stages["aggregates"] += perf_counter() - began

            tick = perf_counter()
            outputs = prefill_attention(
                q, layer_cache.keys, layer_cache.values, on_scores=fold
            )
            stages["attention"] += perf_counter() - tick  # folds taken out below

            tick = perf_counter()
            attn_out = outputs.transpose(1, 0, 2).reshape(t, cfg.hidden_dim)
            hidden = hidden + _blocked_rows(layer.o_proj, attn_out, start)
            stages["projection"] += perf_counter() - tick
            tick = perf_counter()
            hidden = hidden + _blocked_rows(
                layer.ffn, layer.ffn_norm(hidden), start
            )
            stages["ffn"] += perf_counter() - tick

        state.next_pos = stop
        if state.is_complete:
            state.last_hidden = hidden[-1]
            final = self.final_norm(hidden[-1])
            state.logits = self.lm_head @ final
        stages["attention"] -= stages["aggregates"]
        if timings is not None:
            for stage, seconds in stages.items():
                timings[stage] = timings.get(stage, 0.0) + seconds
        return t

    def _fold_scores(
        self,
        state: PrefillState,
        layer_index: int,
        position: int,
        scores: np.ndarray,
    ) -> None:
        """Fold consecutive queries' score rows into the per-key aggregates.

        ``scores`` is ``(h, rows, >= position + rows)``: the post-softmax
        rows of the queries at ``position, position + 1, ...``.  Each total is
        the strictly sequential fold ``(...((acc + s_0) + s_1)...)`` over
        queries, one row at a time.  A tile's column sum would not do: a tile
        can be split between two chunks, and NumPy's pairwise ``sum`` of the
        two halves differs from the sum of the whole.

        Because the fold is sequential, the totals after query ``L - 1``
        restricted to keys ``[0, L)`` are bitwise what a prefill that
        *stopped* there would hold — captured at the requested snapshot
        boundaries, that is what lets the prefix cache resume a prefill
        mid-prompt without perturbing a single bit of the aggregates.
        """
        acc = state.acc_scores[layer_index]
        win = state.window_scores[layer_index]
        # First prompt query that counts towards the windowed aggregate.
        window_start = state.seq_len - state.observation_window
        for j in range(scores.shape[1]):
            seen = position + j + 1
            row = scores[:, j, :seen]
            acc[:, :seen] += row
            if seen > window_start:
                win[:, :seen] += row
            if seen in state.acc_snapshot_boundaries:
                sink = state.acc_snapshots.setdefault(
                    seen, [None] * self.config.num_layers
                )
                sink[layer_index] = acc[:, :seen].copy()

    def finish_prefill(self, state: PrefillState) -> PrefillResult:
        """Package a completed :class:`PrefillState` as a :class:`PrefillResult`."""
        if not state.is_complete:
            raise ConfigurationError(
                f"prefill incomplete: {state.num_processed}/{state.seq_len} "
                "tokens processed"
            )
        cfg = self.config
        s = state.seq_len
        group = cfg.gqa_group_size
        aggregates: list[PrefillAggregates] = []
        for layer_index in range(cfg.num_layers):
            # Reduce query-head statistics to KV heads (mean over the group),
            # since selection happens at KV-head granularity.
            acc = state.acc_scores[layer_index]
            win = state.window_scores[layer_index]
            aggregates.append(
                PrefillAggregates(
                    accumulated_scores=acc.reshape(cfg.num_kv_heads, group, s).mean(axis=1),
                    window_scores=win.reshape(cfg.num_kv_heads, group, s).mean(axis=1),
                    observation_window=state.observation_window,
                )
            )
        all_queries: list[np.ndarray] | None = None
        if state.chunk_queries is not None:
            all_queries = [
                chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=1)
                for chunks in state.chunk_queries
            ]
        assert state.last_hidden is not None and state.logits is not None
        return PrefillResult(
            kvcache=state.kvcache,
            last_hidden=state.last_hidden,
            logits=state.logits,
            aggregates=aggregates,
            prompt_queries=all_queries,
            seq_len=s,
            cached_prefix_len=state.prefix_len,
            acc_snapshots=dict(state.acc_snapshots),
        )

    def prefill(
        self,
        token_ids: Sequence[int],
        observation_window: int = 32,
        collect_queries: bool = False,
        chunk_size: int | None = None,
        timings: "dict[str, float] | None" = None,
    ) -> PrefillResult:
        """Run the prompt through the model and fill the KVCache.

        A thin loop over :meth:`prefill_chunk`; the result is bitwise
        identical for every ``chunk_size`` (``None`` processes the whole
        prompt in one chunk).

        Args:
            token_ids: prompt token ids.
            observation_window: trailing query count used for the SnapKV-style
                window aggregate.
            collect_queries: also return per-layer prompt queries (needed by
                the Oracle policy's offline analysis and by tests).
            chunk_size: tokens per prefill chunk.
            timings: optional host wall-clock stage accumulator, passed to
                every :meth:`prefill_chunk` call.

        Returns:
            A :class:`PrefillResult`.
        """
        state = self.begin_prefill(
            token_ids,
            observation_window=observation_window,
            collect_queries=collect_queries,
        )
        step = state.seq_len if chunk_size is None else int(chunk_size)
        while not state.is_complete:
            self.prefill_chunk(state, step, timings)
        return self.finish_prefill(state)

    # -------------------------------------------------------------- decode

    def decode_step(
        self,
        token_id: int,
        cache: KVCache,
        selector: Selector | None = None,
    ) -> np.ndarray:
        """Process one generated token and return next-token logits.

        The :meth:`decode_step_batch` round of one.  The token's key/value are
        appended to the cache *before* attention so the new token can always
        attend to itself, matching standard implementations.

        Args:
            token_id: id of the last generated token.
            cache: KVCache filled by :meth:`prefill` (and previous steps).
            selector: optional per-layer token selector implementing
                selective attention.  ``None`` reproduces full attention.

        Returns:
            ``(vocab,)`` next-token logits.
        """
        batch_selector = None
        if selector is not None:

            def batch_selector(layer_index, queries, caches):
                return [selector(layer_index, queries[0], caches[0])]

        (logits,) = self.decode_step_batch([token_id], [cache], batch_selector)
        return logits

    def decode_step_batch(
        self,
        token_ids: Sequence[int],
        caches: "Sequence[KVCache]",
        selector: BatchSelector | None = None,
        timings: "dict[str, float] | None" = None,
    ) -> "list[np.ndarray]":
        """Process one generated token for *each* request in one fused round.

        Bitwise identical to one round per request, in order: every dense
        op (projections, o_proj, FFN) packs the requests' rows into the same
        fixed-shape :func:`_decode_rows` blocks a round of one pads with
        zeros — each row's result is independent of its block-mates —
        norms/RoPE/lm_head reduce along per-request axes only, and the
        :class:`~repro.llm.attention.GroupedDecodeAttention` kernel's
        length-grouping across ``(request, kv_head)`` entries makes each
        entry's result independent of which other entries share its group.
        The win is weight reuse: one padded GEMM per dense op per
        layer streams each weight matrix once per *round* instead of once per
        request, plus one einsum per distinct selection length per layer
        instead of one per request per layer.

        Args:
            token_ids: last generated token id of each request.
            caches: one KVCache per request (appended in request order).
            selector: optional batch selector; receives all requests' queries
                and caches for a layer at once and returns one per-request
                selection (each in :data:`Selector` return format).
            timings: optional accumulator for host wall-clock stage seconds —
                the attention kernel adds ``"gather"`` and ``"attention"``.

        Returns:
            One ``(vocab,)`` logits array per request.
        """
        cfg = self.config
        n = len(caches)
        if len(token_ids) != n:
            raise DimensionError(
                f"got {len(token_ids)} token ids for {n} caches"
            )
        if n == 0:
            return []
        # Each request's position is its own pre-append seq_len.
        rope = rope_frequencies(
            cfg.head_dim, [cache.seq_len for cache in caches], self.rope_base
        )
        hidden_rows = np.stack([self.embedding[int(t)] for t in token_ids])

        for layer_index, layer in enumerate(self.layers):
            queries: list[np.ndarray] = []
            keys_all: list[np.ndarray] = []
            values_all: list[np.ndarray] = []
            triples = self._decode_project_qkv(layer, hidden_rows, rope)
            for i, (q, k, v) in enumerate(triples):
                layer_cache = caches[i][layer_index]
                layer_cache.append(k[:, 0, :], v[:, 0, :])
                queries.append(q[:, 0, :])
                keys_all.append(layer_cache.keys)
                values_all.append(layer_cache.values)

            if selector is not None:
                selections = selector(layer_index, queries, list(caches))
                if len(selections) != n:
                    raise DimensionError(
                        f"batch selector returned {len(selections)} selections "
                        f"for {n} requests"
                    )
            else:
                selections = [None] * n

            attn_outs = self._decode_attention(
                queries, keys_all, values_all, selections, timings
            )
            attn_rows = np.stack(
                [attn_outs[i].reshape(cfg.hidden_dim) for i in range(n)]
            )
            hidden_rows = hidden_rows + _decode_rows(layer.o_proj, attn_rows)
            hidden_rows = hidden_rows + _decode_rows(
                layer.ffn, layer.ffn_norm(hidden_rows)
            )

        return [
            self.lm_head @ self.final_norm(hidden_rows[i]) for i in range(n)
        ]
