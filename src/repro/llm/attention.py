"""Attention kernels for the transformer substrate.

Two kernels mirror the paper's two phases:

* :func:`prefill_attention` — causal attention of one prefill chunk's
  queries over every key cached so far, on a fixed global tile grid of BLAS
  GEMMs; the one prefill kernel :class:`~repro.llm.model.TransformerLM` runs.
* :class:`GroupedDecodeAttention` — single-query attention for the decode
  steps of a batch of requests, each optionally restricted to a subset of
  token indices per key/value head; this is the "selective attention" kernel
  every KVCache policy feeds.  :func:`decode_attention` is the batch of one.

Grouped-Query Attention is handled by mapping each query head to its
key/value head (``kv_head = q_head // group_size``); query-head counts that
are not a multiple of the KV-head count raise :class:`DimensionError` instead
of silently mis-grouping.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from ..errors import DimensionError
from ..utils import softmax

__all__ = [
    "GroupedDecodeAttention",
    "PREFILL_TILE",
    "decode_attention",
    "attention_scores_single_query",
    "expand_kv_heads",
    "prefill_attention",
]

#: Query rows per tile of :func:`prefill_attention`'s global grid.  Tiles are
#: aligned to absolute token positions, so a chunk that covers part of a tile
#: still pays both GEMMs for all of its rows (the softmax runs on the covered
#: rows only): a large tile makes few-token chunks — prefix-cache resumes,
#: fair-share slices — pad to many times their work, a small one makes long
#: chunks issue many thin GEMMs.  Measured on 2 048 tokens (8 heads, 4 KV
#: heads, d_h 32, one BLAS thread) at chunk 512 / 16 and on 600 one-token
#: chunks: T = 8 0.14 / 0.19 / 0.12 s per layer, 16 0.14 / 0.18 / 0.16 s,
#: 32 0.14 / 0.27 / 0.26 s, 64 0.13 / 0.40 / 0.47 s — long chunks are
#: elementwise-bound and barely care, short ones pay the padding in full.
PREFILL_TILE = 16

#: ``_FUTURE[j, c]``: key ``c`` of a diagonal tile lies after query row ``j``.
_FUTURE = np.triu(np.ones((PREFILL_TILE, PREFILL_TILE), dtype=bool), k=1)


def expand_kv_heads(tensor: np.ndarray, group_size: int) -> np.ndarray:
    """Repeat KV heads so they align with query heads.

    ``(h_kv, s, d_h) -> (h_kv * group_size, s, d_h)`` with each KV head
    repeated ``group_size`` times consecutively.
    """
    if group_size <= 0:
        raise DimensionError("group_size must be positive")
    return np.repeat(tensor, group_size, axis=0)


def prefill_attention(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    on_scores: "Callable[[int, np.ndarray], None] | None" = None,
) -> np.ndarray:
    """Causal attention of a prefill chunk, bitwise independent of chunking.

    The chunk's queries sit at absolute positions ``[n - t, n)`` where ``n``
    is the number of cached keys (the chunk's own keys included).  Query rows
    are placed on tiles of :data:`PREFILL_TILE` rows aligned to absolute
    positions — rows of a tile the chunk does not cover are zero — and tile
    ``i`` always runs the same two GEMMs per KV head,
    ``(group * T, d_h) @ (d_h, (i + 1) * T)`` and
    ``(group * T, (i + 1) * T) @ ((i + 1) * T, d_h)``, over keys/values
    ``[0, (i + 1) * T)`` zero-padded past what is cached.  So the operand
    shapes a row meets, and the width of its softmax, depend on its position
    alone.  GEMM computes an output row from its own input row, the scores of
    keys after the row are exact zeros, and ``0 * v`` adds nothing to a sum:
    every partition of a prompt into chunks yields the same bits.

    Args:
        queries: ``(h, t, d_h)`` the chunk's query vectors.
        keys: ``(h_kv, n, d_h)`` all cached keys, ``n >= t``.
        values: ``(h_kv, n, d_h)`` all cached values.
        on_scores: called once per tile as ``on_scores(position, scores)``
            with the post-softmax scores ``(h, rows, (i + 1) * T)`` of the
            chunk's rows in that tile, ``position`` being the first row's
            absolute position; the array is a view that dies with the tile.

    Returns:
        ``(h, t, d_h)`` attention outputs.
    """
    h, t, d_h = queries.shape
    h_kv, n, _ = keys.shape
    if h % h_kv != 0:
        raise DimensionError("query heads must be a multiple of kv heads")
    group = h // h_kv
    tile = PREFILL_TILE
    start = n - t
    padded = -(-n // tile) * tile
    # One contiguous K-transpose and one V per chunk, zero-padded to the grid
    # (a GEMM against the strided transpose view runs at half the speed).
    keys_t = np.zeros((h_kv, d_h, padded))
    keys_t[:, :, :n] = keys.transpose(0, 2, 1)
    values_p = np.zeros((h_kv, padded, d_h))
    values_p[:, :n] = values
    # GQA folds into the GEMM's row dimension: row ``g * T + j`` of a KV
    # head's operand is query head ``kv * group + g`` at tile row ``j``.
    grouped = (queries / np.sqrt(d_h)).reshape(h_kv, group, t, d_h)
    outputs = np.empty((h_kv, group, t, d_h))
    buffer = np.empty(h * tile * padded)
    for base in range(start - start % tile, n, tile):
        width = base + tile
        lo, hi = max(base, start), min(width, n)  # the chunk's rows of the tile
        covered = slice(lo - base, hi - base)     # ... as tile rows
        chunk = slice(lo - start, hi - start)     # ... as chunk rows
        q_tile = np.zeros((h_kv, group, tile, d_h))
        q_tile[:, :, covered] = grouped[:, :, chunk]
        scores = buffer[: h * tile * width].reshape(h_kv, group * tile, width)
        np.matmul(q_tile.reshape(h_kv, group * tile, d_h),
                  keys_t[:, :, :width], out=scores)
        # Softmax in place, on the chunk's rows only (the others stay zero);
        # only the diagonal tile holds keys after a row.
        rows = scores.reshape(h_kv, group, tile, width)[:, :, covered]
        np.copyto(rows[..., base:], -np.inf, where=_FUTURE[covered])
        rows -= rows.max(axis=-1, keepdims=True)
        np.exp(rows, out=rows)
        rows /= rows.sum(axis=-1, keepdims=True)
        weighted = np.matmul(scores, values_p[:, :width])
        outputs[:, :, chunk] = weighted.reshape(h_kv, group, tile, d_h)[:, :, covered]
        if on_scores is not None:
            on_scores(lo, rows.reshape(h, hi - lo, width))
    return outputs.reshape(h, t, d_h)


def attention_scores_single_query(
    query: np.ndarray,
    keys: np.ndarray,
    group_size: int,
) -> np.ndarray:
    """Pre-softmax logits of one decode query against all keys.

    Args:
        query: ``(h, d_h)`` query of the last token.
        keys: ``(h_kv, s, d_h)`` cached keys.
        group_size: query heads per key/value head.

    Returns:
        ``(h, s)`` scaled logits.
    """
    query = np.asarray(query, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    h, d_h = query.shape
    h_kv = keys.shape[0]
    if h % h_kv != 0:
        raise DimensionError(
            f"query heads ({h}) must be a multiple of kv heads ({h_kv})"
        )
    k_exp = expand_kv_heads(keys, group_size)
    if k_exp.shape[0] != h:
        raise DimensionError(
            f"expanded kv heads {k_exp.shape[0]} do not match query heads {h}"
        )
    return np.einsum("hd,hsd->hs", query, k_exp) / np.sqrt(d_h)


def _per_head_indices(selected, h_kv: int, length: int) -> list[np.ndarray]:
    """One int64 index array per KV head from a selection in any accepted
    form: ``None`` (all ``length`` tokens), one 1-D array shared by all KV
    heads, or a list/tuple of ``h_kv`` per-head arrays."""
    if selected is None:
        return [np.arange(length, dtype=np.int64)] * h_kv
    if not isinstance(selected, (list, tuple)):
        return [_checked_indices(selected, length)] * h_kv
    if len(selected) != h_kv:
        raise DimensionError(
            f"need {h_kv} per-head index arrays, got {len(selected)}"
        )
    return [_checked_indices(idx, length) for idx in selected]


def _checked_indices(indices, length: int) -> np.ndarray:
    """``indices`` as int64, every entry a valid (possibly negative) index
    into an axis of ``length``.  The gather runs ``np.take(mode="wrap")`` —
    ``mode="raise"`` buffers its ``out`` and measured 25-30 % slower — so the
    bounds fancy indexing would have enforced are checked here."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and not (-length <= indices.min() and indices.max() < length):
        bad = indices[(indices < -length) | (indices >= length)][0]
        raise IndexError(
            f"index {bad} is out of bounds for axis 0 with size {length}"
        )
    return indices


class GroupedDecodeAttention:
    """Decode attention of a batch of requests, one query each, optionally
    over a token subset per request and KV head.

    The ``(request, kv_head)`` entries are grouped by selection length; each
    group is gathered into dense ``(entries, tokens, d_h)`` tensors and scored
    with one einsum + softmax + einsum.  The non-optimised einsum accumulates
    per output element over the contracted axis only, so an entry's result is
    bitwise independent of its group-mates: a request gets the same bits
    alone (:func:`decode_attention`) and in any batch.  Every selected
    key/value row is copied exactly once, by ``np.take(..., out=...)`` into
    the group's slot of a workspace the instance keeps between calls (grown
    on demand, left at its high-water mark); nothing in it outlives a call.
    """

    def __init__(self) -> None:
        #: gathered keys (row 0) and values (row 1) of the group in flight
        self._workspace = np.empty((2, 0), dtype=np.float64)

    def _buffers(self, shape: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
        """C-contiguous key and value buffers of ``shape`` over the workspace."""
        need = shape[0] * shape[1] * shape[2]
        if self._workspace.shape[1] < need:
            # Head-room so a selection that grows by a token per step does
            # not reallocate per step.
            self._workspace = np.empty((2, need + need // 2), dtype=np.float64)
        keys, values = self._workspace[:, :need]
        return keys.reshape(shape), values.reshape(shape)

    def __call__(
        self,
        queries: "Sequence[np.ndarray]",
        keys: "Sequence[np.ndarray]",
        values: "Sequence[np.ndarray]",
        selections: "Sequence[np.ndarray | list[np.ndarray] | None]",
        timings: "dict[str, float] | None" = None,
    ) -> list[np.ndarray]:
        """Attention outputs, one ``(h, d_h)`` array per request.

        Args:
            queries: per request, the ``(h, d_h)`` query of its last token.
            keys: per request, its ``(h_kv, s, d_h)`` cached keys.
            values: per request, its ``(h_kv, s, d_h)`` cached values.
            selections: per request, the token indices to attend to — ``None``
                (all tokens), one 1-D index array shared by all KV heads, or
                a list of per-KV-head index arrays (PQCache retrieves per
                head).  Negative indices count from the end; an index outside
                ``[-s, s)`` raises :class:`IndexError`.
            timings: optional accumulator for host wall-clock stage seconds —
                ``"gather"`` (the key/value copies) and ``"attention"``
                (einsums + softmax) are added into it.
        """
        outputs: list[np.ndarray] = []
        # One entry per (request, kv_head): the head's output rows (a view
        # into ``outputs``), its query group, key rows, value rows, indices.
        entries: list[tuple[np.ndarray, ...]] = []
        for query, k_all, v_all, selected in zip(queries, keys, values, selections):
            query = np.asarray(query, dtype=np.float64)
            k_all = np.asarray(k_all, dtype=np.float64)
            v_all = np.asarray(v_all, dtype=np.float64)
            h, d_h = query.shape
            h_kv, s, _ = k_all.shape
            if h % h_kv != 0:
                raise DimensionError(
                    f"query heads ({h}) must be a multiple of kv heads ({h_kv})"
                )
            output = np.zeros((h, d_h), dtype=np.float64)
            outputs.append(output)
            per_head = _per_head_indices(selected, h_kv, s)
            for kv, (out_rows, q_group) in enumerate(zip(
                output.reshape(h_kv, h // h_kv, d_h),
                query.reshape(h_kv, h // h_kv, d_h),
            )):
                entries.append((out_rows, q_group, k_all[kv], v_all[kv], per_head[kv]))

        # Grouping by exact length (instead of padding to the max and
        # masking) keeps every softmax reduction at its true length.
        lengths = np.array([idx.size for *_, idx in entries], dtype=np.int64)
        for t in np.unique(lengths):
            if t == 0:
                continue  # empty selection: the head's output stays zero
            gather_start = perf_counter()
            members = [entries[r] for r in np.flatnonzero(lengths == t)]
            q_sel = np.stack([q_group for _, q_group, *_ in members])
            d_h = q_sel.shape[-1]
            k_sel, v_sel = self._buffers((len(members), int(t), d_h))
            for slot, (_, _, k_rows, v_rows, idx) in enumerate(members):
                np.take(k_rows, idx, axis=0, out=k_sel[slot], mode="wrap")
                np.take(v_rows, idx, axis=0, out=v_sel[slot], mode="wrap")
            attn_start = perf_counter()
            logits = np.einsum("ngd,ntd->ngt", q_sel, k_sel) / np.sqrt(d_h)
            weights = softmax(logits, axis=-1)
            out = np.einsum("ngt,ntd->ngd", weights, v_sel)  # (n, group, d_h)
            for (out_rows, *_), rows in zip(members, out):
                out_rows[:] = rows
            if timings is not None:
                timings["gather"] = (
                    timings.get("gather", 0.0) + attn_start - gather_start
                )
                timings["attention"] = (
                    timings.get("attention", 0.0) + perf_counter() - attn_start
                )
        return outputs


def decode_attention(
    query: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    selected: np.ndarray | list[np.ndarray] | None = None,
) -> np.ndarray:
    """``(h, d_h)`` attention output of one decode step, optionally over a
    token subset: :class:`GroupedDecodeAttention` on a batch of one (same
    argument forms, unbatched) with a fresh workspace."""
    return GroupedDecodeAttention()([query], [keys], [values], [selected])[0]
