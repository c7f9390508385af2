"""Oracle for :func:`repro.llm.attention.prefill_attention`: full causal
self-attention written the obvious way (one einsum, one mask, one softmax),
in the substrate dtype.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionError
from repro.llm.attention import expand_kv_heads
from repro.utils import DTYPE, softmax


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
    queries = np.asarray(queries, dtype=DTYPE)
    keys = np.asarray(keys, dtype=DTYPE)
    values = np.asarray(values, dtype=DTYPE)
    h, s, d_h = queries.shape
    h_kv = keys.shape[0]
    if h % h_kv != 0:
        raise DimensionError("query heads must be a multiple of kv heads")
    group = h // h_kv
    k_exp = expand_kv_heads(keys, group)
    v_exp = expand_kv_heads(values, group)

    logits = np.einsum("hqd,hkd->hqk", queries, k_exp) / float(np.sqrt(d_h))
    mask = np.triu(np.ones((s, s), dtype=bool), k=1)
    logits = np.where(mask[None, :, :], -np.inf, logits)
    scores = softmax(logits, axis=-1)
    output = np.einsum("hqk,hkd->hqd", scores, v_exp)
    if return_scores:
        return output, scores
    return output
