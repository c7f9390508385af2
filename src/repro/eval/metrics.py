"""Scoring metrics for selective-attention policies.

The paper reports each benchmark task's native metric (accuracy, F1,
Rouge-L).  Without real text those collapse into one underlying question: at
decode time, does the policy still attend to the tokens the answer depends
on?  Three task-level metrics capture the families used by the suites:

* ``recovery`` — attention-mass-weighted evidence recovery (graded; QA and
  summary-style tasks).
* ``exact``    — all evidence tokens present in the selected set (retrieval
  tasks: PassKey / Number / KV-retrieval / needle).
* ``coverage`` — fraction of evidence tokens present (counting, few-shot and
  summarisation tasks where partial credit makes sense).

In addition, policy-vs-full fidelity metrics (top-k attention recall and
logit divergence) are provided for the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..llm.kvcache import TokenSegments
from ..utils import softmax, topk_indices

__all__ = [
    "StepObservation",
    "evidence_recovery",
    "evidence_exact",
    "evidence_coverage",
    "attention_recall_at_k",
    "logit_divergence",
    "score_step",
]


@dataclass
class StepObservation:
    """Everything recorded for one (decode step, layer) selection decision.

    Attributes:
        layer: layer index.
        kv_queries: ``(h_kv, d_h)`` group-mean queries used for scoring.
        keys: ``(h_kv, s, d_h)`` keys available at that moment.
        selected: per-KV-head arrays of selected token indices (``None`` for
            full attention).
        segments: initial/middle/local partition at that moment.
    """

    layer: int
    kv_queries: np.ndarray
    keys: np.ndarray
    selected: list[np.ndarray] | None
    segments: TokenSegments

    def selected_union(self) -> np.ndarray:
        """Union of selected indices across heads (all tokens if full)."""
        seq_len = self.keys.shape[1]
        if self.selected is None:
            return np.arange(seq_len, dtype=np.int64)
        if not self.selected:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([np.asarray(s, dtype=np.int64)
                                         for s in self.selected]))

    def per_head_selected(self) -> list[np.ndarray]:
        seq_len = self.keys.shape[1]
        h_kv = self.keys.shape[0]
        if self.selected is None:
            full = np.arange(seq_len, dtype=np.int64)
            return [full] * h_kv
        return [np.asarray(s, dtype=np.int64) for s in self.selected]


def _full_attention_probs(obs: StepObservation) -> np.ndarray:
    """Exact softmax of each KV-head query over all keys: ``(h_kv, s)``,
    computed in float64 whatever the substrate dtype."""
    queries = np.asarray(obs.kv_queries, dtype=np.float64)
    keys = np.asarray(obs.keys, dtype=np.float64)
    logits = np.einsum("hd,hsd->hs", queries, keys) / np.sqrt(keys.shape[-1])
    return softmax(logits, axis=-1)


def evidence_recovery(obs: StepObservation, evidence: np.ndarray) -> float:
    """Attention mass on evidence captured by the selection, relative to the
    mass full attention puts there (in [0, 1], averaged over KV heads)."""
    evidence = np.asarray(evidence, dtype=np.int64)
    if evidence.size == 0:
        return 1.0
    probs = _full_attention_probs(obs)
    selected = obs.per_head_selected()
    ratios = []
    for head, indices in enumerate(selected):
        full_mass = probs[head, evidence].sum()
        if full_mass <= 1e-12:
            ratios.append(1.0)
            continue
        covered = np.intersect1d(evidence, indices, assume_unique=False)
        ratios.append(float(probs[head, covered].sum() / full_mass))
    return float(np.mean(ratios))


def evidence_exact(obs: StepObservation, evidence: np.ndarray) -> float:
    """1.0 if every evidence token is attended by at least one KV head."""
    evidence = np.asarray(evidence, dtype=np.int64)
    if evidence.size == 0:
        return 1.0
    union = obs.selected_union()
    return float(np.isin(evidence, union).all())


def evidence_coverage(obs: StepObservation, evidence: np.ndarray) -> float:
    """Fraction of evidence tokens attended by at least one KV head."""
    evidence = np.asarray(evidence, dtype=np.int64)
    if evidence.size == 0:
        return 1.0
    union = obs.selected_union()
    return float(np.isin(evidence, union).mean())


def attention_recall_at_k(obs: StepObservation, k: int) -> float:
    """Recall of the exact top-k middle tokens by the selected middle set.

    This is the pure retrieval-quality metric (independent of any task):
    how much of the true top-k does the policy's candidate set contain.
    """
    middle = obs.segments.middle_indices
    if middle.size == 0 or k <= 0:
        return 1.0
    probs = _full_attention_probs(obs)
    selected = obs.per_head_selected()
    recalls = []
    for head, indices in enumerate(selected):
        scores = probs[head, middle]
        true_top = middle[topk_indices(scores, min(k, middle.size))]
        hit = np.isin(true_top, indices).sum()
        recalls.append(hit / true_top.size)
    return float(np.mean(recalls))


def logit_divergence(policy_logits: np.ndarray, full_logits: np.ndarray) -> float:
    """KL(full || policy) between next-token distributions (fidelity metric)."""
    p = softmax(np.asarray(full_logits, dtype=np.float64))
    log_q = np.asarray(policy_logits, dtype=np.float64)
    log_q = log_q - np.max(log_q)
    log_q = log_q - np.log(np.sum(np.exp(log_q)))
    log_p = np.log(np.maximum(p, 1e-300))
    return float(np.sum(p * (log_p - log_q)))


_METRIC_FNS = {
    "recovery": evidence_recovery,
    "exact": evidence_exact,
    "coverage": evidence_coverage,
}


def score_step(metric: str, obs: StepObservation, evidence: np.ndarray) -> float:
    """Dispatch a task metric by name."""
    return _METRIC_FNS[metric](obs, evidence)
