"""Quality-evaluation harness: task metrics, dataset scoring and suite tables."""

from .metrics import (
    StepObservation,
    attention_recall_at_k,
    evidence_coverage,
    evidence_exact,
    evidence_recovery,
    logit_divergence,
    score_step,
)
from .runner import DatasetScore, EvaluationHarness

__all__ = [
    "StepObservation",
    "attention_recall_at_k",
    "evidence_coverage",
    "evidence_exact",
    "evidence_recovery",
    "logit_divergence",
    "score_step",
    "DatasetScore",
    "EvaluationHarness",
]
