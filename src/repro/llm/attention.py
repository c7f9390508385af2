"""Attention kernels for the transformer substrate.

Two kernels mirror the paper's two phases, next to a readable reference:

* :func:`prefill_attention` — causal attention of one prefill chunk's
  queries over every key cached so far, on a fixed global tile grid of BLAS
  GEMMs; the one prefill kernel :class:`~repro.llm.model.TransformerLM` runs.
* :func:`decode_attention` — single-query attention for a decode step,
  optionally restricted to a subset of token indices per key/value head;
  this is the "selective attention" kernel every KVCache policy feeds.
* :func:`causal_attention` — full causal self-attention written the obvious
  way (one einsum, one mask, one softmax); the oracle the tests compare
  :func:`prefill_attention` against.

Grouped-Query Attention is handled by mapping each query head to its
key/value head (``kv_head = q_head // group_size``); query-head counts that
are not a multiple of the KV-head count raise :class:`DimensionError` instead
of silently mis-grouping.

:func:`decode_attention` is vectorized across KV heads: per-head selections
are gathered into dense ``(heads, tokens, d_h)`` tensors (heads with equal
selection lengths are batched together, so no padding enters any softmax
reduction and results stay bitwise identical to a per-head einsum loop) and
scored with one einsum + softmax per length group instead of a Python loop
over every ``kv_head x group`` pair.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import DimensionError
from ..utils import softmax

__all__ = [
    "PREFILL_TILE",
    "causal_attention",
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


def causal_attention(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    return_scores: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Full causal self-attention.

    Args:
        queries: ``(h, s, d_h)`` query vectors.
        keys: ``(h_kv, s, d_h)`` key vectors.
        values: ``(h_kv, s, d_h)`` value vectors.
        return_scores: also return the post-softmax attention scores
            ``(h, s, s)`` (needed by baselines such as H2O and SnapKV).

    Returns:
        ``(h, s, d_h)`` attention output, optionally with the score tensor.
    """
    queries = np.asarray(queries, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    h, s, d_h = queries.shape
    h_kv = keys.shape[0]
    if h % h_kv != 0:
        raise DimensionError("query heads must be a multiple of kv heads")
    group = h // h_kv
    k_exp = expand_kv_heads(keys, group)
    v_exp = expand_kv_heads(values, group)

    logits = np.einsum("hqd,hkd->hqk", queries, k_exp) / np.sqrt(d_h)
    mask = np.triu(np.ones((s, s), dtype=bool), k=1)
    logits = np.where(mask[None, :, :], -np.inf, logits)
    scores = softmax(logits, axis=-1)
    output = np.einsum("hqk,hkd->hqd", scores, v_exp)
    if return_scores:
        return output, scores
    return output


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


def decode_attention(
    query: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    selected: np.ndarray | list[np.ndarray] | None = None,
) -> np.ndarray:
    """Attention output of one decode step, optionally over a token subset.

    Args:
        query: ``(h, d_h)`` query of the last token.
        keys: ``(h_kv, s, d_h)`` cached keys.
        values: ``(h_kv, s, d_h)`` cached values.
        selected: token indices to attend to.  Either ``None`` (all tokens),
            a single 1-D index array shared by all KV heads, or a list of
            per-KV-head index arrays (PQCache retrieves per head).

    Returns:
        ``(h, d_h)`` attention output.
    """
    query = np.asarray(query, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    h, d_h = query.shape
    h_kv, s, _ = keys.shape
    if h % h_kv != 0:
        raise DimensionError(
            f"query heads ({h}) must be a multiple of kv heads ({h_kv})"
        )
    group = h // h_kv

    if selected is None:
        per_head_indices = [np.arange(s, dtype=np.int64)] * h_kv
    elif isinstance(selected, (list, tuple)):
        if len(selected) != h_kv:
            raise DimensionError(
                f"need {h_kv} per-head index arrays, got {len(selected)}"
            )
        per_head_indices = [np.asarray(idx, dtype=np.int64) for idx in selected]
    else:
        shared = np.asarray(selected, dtype=np.int64)
        per_head_indices = [shared] * h_kv

    # Vectorized across KV heads: heads whose selections have the same
    # length are gathered and scored together with one einsum + softmax.
    # Grouping by exact length (instead of padding to the max and masking)
    # keeps every softmax reduction at its true length, so the result is
    # bitwise identical to scoring each head separately.
    output = np.zeros((h, d_h), dtype=np.float64)
    lengths = np.array([idx.size for idx in per_head_indices], dtype=np.int64)
    q_grouped = query.reshape(h_kv, group, d_h)
    scale = np.sqrt(d_h)
    for t in np.unique(lengths):
        if t == 0:
            continue  # empty selection: the head's output stays zero
        heads = np.flatnonzero(lengths == t)
        indices = np.stack([per_head_indices[kv] for kv in heads])  # (n, t)
        k_sel = keys[heads[:, None], indices]    # (n, t, d_h)
        v_sel = values[heads[:, None], indices]  # (n, t, d_h)
        logits = np.einsum("ngd,ntd->ngt", q_grouped[heads], k_sel) / scale
        weights = softmax(logits, axis=-1)
        out = np.einsum("ngt,ntd->ngd", weights, v_sel)  # (n, group, d_h)
        q_heads = (heads[:, None] * group + np.arange(group)[None, :]).ravel()
        output[q_heads] = out.reshape(-1, d_h)
    return output
