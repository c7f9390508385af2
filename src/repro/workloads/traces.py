"""Attention-score traces (paper §3.1, Figure 6).

The paper motivates selective attention by showing that decode-time attention
scores follow power-law-like distributions: a small number of tokens receive
most of the mass.  This module extracts those distributions from the
substrate model on synthetic prompts and provides the statistics the Figure 6
benchmark reports (sorted score curves, mass concentration, and a power-law
tail-exponent estimate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..llm.attention import attention_scores_single_query
from ..llm.config import ModelConfig
from ..llm.model import TransformerLM
from ..utils import softmax

__all__ = ["AttentionTrace", "collect_decode_attention", "power_law_exponent",
           "mass_concentration"]


@dataclass
class AttentionTrace:
    """Post-softmax attention distribution of one (layer, head) decode query."""

    layer: int
    kv_head: int
    scores: np.ndarray  # (seq,) softmax scores, descending order not applied

    @property
    def sorted_scores(self) -> np.ndarray:
        return np.sort(self.scores)[::-1]


def collect_decode_attention(
    model: TransformerLM,
    prompt_ids,
    layers: tuple[int, ...] | None = None,
) -> list[AttentionTrace]:
    """Attention distributions of the last prompt token's query.

    Runs a prefill, then scores the final token's query against all cached
    keys for the requested layers, returning one trace per (layer, KV head).
    """
    config = model.config
    result = model.prefill(list(prompt_ids), collect_queries=True)
    layers = layers if layers is not None else tuple(range(config.num_layers))
    traces = []
    for layer in layers:
        queries = result.prompt_queries[layer]          # (h, s, d_h)
        last_query = queries[:, -1, :]                   # (h, d_h)
        keys = result.kvcache[layer].keys                # (h_kv, s, d_h)
        logits = attention_scores_single_query(last_query, keys, config.gqa_group_size)
        probs = softmax(logits, axis=-1)                 # (h, s)
        grouped = probs.reshape(config.num_kv_heads, config.gqa_group_size, -1).mean(axis=1)
        for kv_head in range(config.num_kv_heads):
            traces.append(AttentionTrace(layer=layer, kv_head=kv_head,
                                         scores=grouped[kv_head]))
    return traces


def mass_concentration(trace: AttentionTrace, fraction: float = 0.1) -> float:
    """Share of attention mass captured by the top ``fraction`` of tokens."""
    sorted_scores = trace.sorted_scores
    k = max(int(np.ceil(fraction * sorted_scores.size)), 1)
    return float(sorted_scores[:k].sum() / max(sorted_scores.sum(), 1e-12))


def power_law_exponent(trace: AttentionTrace, tail: int = 100) -> float:
    """Least-squares slope of log(score) vs log(rank) over the top ``tail``
    ranks — the power-law exponent the paper's Figure 6 visualises."""
    sorted_scores = trace.sorted_scores
    n = min(tail, sorted_scores.size)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    values = np.maximum(sorted_scores[:n], 1e-12)
    slope, _ = np.polyfit(np.log(ranks), np.log(values), deg=1)
    return float(slope)
