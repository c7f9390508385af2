"""Evaluation harness: run policies over synthetic datasets and score them.

The harness reproduces the paper's quality-evaluation loop:

1. build (or reuse) the substrate model,
2. prefill each sample's prompt once,
3. for every policy, clone the prefilled KVCache, let the policy build its
   state (PQ codebooks, retained sets, block representatives, ...),
4. feed the sample's probe tokens as teacher-forced decode steps through the
   serving engine (:class:`repro.serve.InferenceEngine` in
   ``forced_decode_ids`` mode), recording every per-layer selection decision
   via the engine's selection hook,
5. score the recorded selections against the sample's evidence positions
   with the dataset's metric, and average into a 0-100 score per dataset —
   the same shape as the LongBench / InfiniteBench score tables.

Driving the engine (rather than a private decode loop) keeps the quality
harness and the serving path on one code path.  Prefill results are cached
per sample so evaluating eight policies costs one prefill, not eight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..baselines.base import KVCachePolicy, SelectionBudget
from ..llm.config import ModelConfig
from ..llm.kvcache import KVCache
from ..llm.model import PrefillResult, TransformerLM
from ..memory.devices import HardwareSpec
from ..memory.latency import LatencyModel
from ..serve.config import EngineConfig
from ..serve.engine import InferenceEngine
from ..serve.request import PolicySpec, Request
from ..serve.scheduler import SchedulerConfig
from ..workloads.base import Sample, TaskDataset
from .metrics import StepObservation, attention_recall_at_k, score_step

__all__ = ["DatasetScore", "EvaluationHarness", "clone_prefill"]

PolicyFactory = Callable[[], KVCachePolicy]


def clone_prefill(prefill: PrefillResult, config: ModelConfig) -> PrefillResult:
    """Deep-copy the mutable parts of a prefill result (the KVCache).

    Decode steps append to the cache and PQCache/H2O mutate derived state, so
    every policy gets its own cache copy; the immutable aggregates and logits
    are shared.
    """
    cache = KVCache(
        config.num_layers, config.num_kv_heads, config.head_dim,
        config.dtype_bytes,
    )
    for layer_index in range(config.num_layers):
        source = prefill.kvcache[layer_index]
        cache[layer_index].append(*source.read())
    return PrefillResult(
        kvcache=cache,
        last_hidden=prefill.last_hidden,
        logits=prefill.logits,
        aggregates=prefill.aggregates,
        prompt_queries=prefill.prompt_queries,
        seq_len=prefill.seq_len,
    )


@dataclass
class DatasetScore:
    """Aggregated result of one policy on one dataset."""

    dataset: str
    policy: str
    score: float
    per_sample: list[float] = field(default_factory=list)
    attention_recall: float = float("nan")

    def as_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "policy": self.policy,
            "score": self.score,
            "attention_recall": self.attention_recall,
            "num_samples": len(self.per_sample),
        }


class EvaluationHarness:
    """Shared model + prefill cache for comparing policies on task suites."""

    def __init__(
        self,
        model_config: ModelConfig | None = None,
        seed: int = 0,
        qk_coupling: float = 0.9,
        rope_base: float = 1e6,
        observation_window: int = 32,
        model: TransformerLM | None = None,
        prefill_fn: Callable[[TransformerLM, Sequence[int]], PrefillResult] | None = None,
    ) -> None:
        self.model_config = model_config or ModelConfig.tiny()
        self.model = model or TransformerLM(
            self.model_config, seed=seed, qk_coupling=qk_coupling, rope_base=rope_base
        )
        self.observation_window = observation_window
        #: optional custom prefill (e.g. the MInference-style sparse prefill)
        self.prefill_fn = prefill_fn
        self._prefill_cache: dict[int, PrefillResult] = {}
        self._max_cached_prefills = 256
        #: the single-slot per-sample engines share one latency model (cheap
        #: to build, but sharing keeps the simulated-clock assumptions identical)
        self._engine_config = EngineConfig(
            scheduler=SchedulerConfig(max_batch_size=1),
            latency_model=LatencyModel(HardwareSpec.paper_testbed(), self.model_config),
        )

    # -------------------------------------------------------------- prefill

    def _prefill(self, sample: Sample) -> PrefillResult:
        # Key by the prompt contents: sample objects are transient and id()
        # values get recycled, which would silently return a stale prefill.
        key = hash(tuple(sample.prompt_ids))
        if key not in self._prefill_cache:
            if self.prefill_fn is not None:
                result = self.prefill_fn(self.model, sample.prompt_ids)
            else:
                result = self.model.prefill(
                    sample.prompt_ids, observation_window=self.observation_window
                )
            if len(self._prefill_cache) >= self._max_cached_prefills:
                self._prefill_cache.pop(next(iter(self._prefill_cache)))
            self._prefill_cache[key] = result
        return self._prefill_cache[key]

    def clear_cache(self) -> None:
        """Drop cached prefills (frees memory between suites)."""
        self._prefill_cache.clear()

    # ------------------------------------------------------------- evaluate

    def run_sample(
        self, policy: KVCachePolicy, sample: Sample
    ) -> list[StepObservation]:
        """Run one sample under one policy and return every selection made.

        The sample's probe tokens are fed as teacher-forced decode steps
        through a single-slot :class:`~repro.serve.InferenceEngine`; the
        engine's selection hook records one :class:`StepObservation` per
        layer per step.
        """
        config = self.model_config
        shared = self._prefill(sample)
        prefill = clone_prefill(shared, config)

        observations: list[StepObservation] = []

        def record(layer_index: int, query: np.ndarray, cache: KVCache, selected) -> None:
            # ``selected`` arrives already normalised by the engine's
            # selector: per-KV-head int64 index arrays, or None.
            layer_cache = cache[layer_index]
            kv_queries = query.reshape(
                config.num_kv_heads, config.gqa_group_size, config.head_dim
            ).mean(axis=1)
            observations.append(
                StepObservation(
                    layer=layer_index,
                    kv_queries=kv_queries,
                    keys=layer_cache.keys.copy(),
                    selected=selected,
                    segments=policy.budget.segments(len(layer_cache)),
                )
            )

        request = Request(
            prompt_ids=list(sample.prompt_ids),
            policy_spec=PolicySpec.from_instance(policy),
            forced_decode_ids=[int(p) for p in sample.probe_ids],
            prefill=prefill,
            selection_hook=record,
        )
        InferenceEngine(self.model, self._engine_config).run([request])
        return observations

    def evaluate(
        self,
        policy_factory: PolicyFactory,
        dataset: TaskDataset,
        policy_name: str | None = None,
        recall_k: int | None = None,
        layer_aggregation: str = "max",
    ) -> DatasetScore:
        """Score one policy on one dataset (0-100).

        ``layer_aggregation`` controls how per-layer selection scores combine
        within one decode step: ``"max"`` (default) models that evidence
        reaching attention in *any* layer suffices for the answer — this is
        what keeps Oracle close to Full, as in the paper — while ``"mean"``
        is the stricter all-layers view used by the ablation benchmarks.
        """
        per_sample: list[float] = []
        recalls: list[float] = []
        name = policy_name or "policy"
        num_layers = self.model_config.num_layers
        reduce_layers = np.max if layer_aggregation == "max" else np.mean
        for sample in dataset.samples:
            policy = policy_factory()
            name = policy_name or policy.name
            observations = self.run_sample(policy, sample)
            step_scores = []
            for start in range(0, len(observations), num_layers):
                step_obs = observations[start:start + num_layers]
                layer_scores = [
                    score_step(dataset.metric, obs, sample.evidence_positions)
                    for obs in step_obs
                ]
                step_scores.append(float(reduce_layers(layer_scores)))
            per_sample.append(float(np.mean(step_scores)) if step_scores else 0.0)
            if recall_k is not None:
                recalls.append(
                    float(np.mean([attention_recall_at_k(obs, recall_k)
                                   for obs in observations]))
                )
        return DatasetScore(
            dataset=dataset.name,
            policy=name,
            score=100.0 * float(np.mean(per_sample)),
            per_sample=per_sample,
            attention_recall=float(np.mean(recalls)) if recalls else float("nan"),
        )

    def evaluate_suite(
        self,
        policy_factories: dict[str, PolicyFactory],
        datasets: Sequence[TaskDataset],
        recall_k: int | None = None,
    ) -> dict[str, dict[str, float]]:
        """Score every policy on every dataset.

        Returns ``{dataset_name: {policy_name: score}}`` plus an ``"average"``
        row, matching the layout of the paper's Tables 2 and 4.
        """
        table: dict[str, dict[str, float]] = {}
        for dataset in datasets:
            row: dict[str, float] = {}
            for policy_name, factory in policy_factories.items():
                result = self.evaluate(factory, dataset, policy_name, recall_k)
                row[policy_name] = result.score
            table[dataset.name] = row
        if table:
            policies = list(next(iter(table.values())))
            table["average"] = {
                p: float(np.mean([table[d][p] for d in table if d != "average"]))
                for p in policies
            }
        return table

    # ------------------------------------------------------------ reporting

    @staticmethod
    def format_table(table: dict[str, dict[str, float]]) -> str:
        """Render a suite result as an aligned text table."""
        if not table:
            return "(empty)"
        policies = list(next(iter(table.values())))
        header = ["dataset"] + policies
        widths = [max(len(h), 14) for h in header]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        for dataset, row in table.items():
            cells = [dataset.ljust(widths[0])]
            for i, policy in enumerate(policies, start=1):
                cells.append(f"{row[policy]:6.2f}".ljust(widths[i]))
            lines.append("  ".join(cells))
        return "\n".join(lines)
