"""Request-centric data model of the serving engine.

A :class:`Request` bundles everything one sequence needs to travel through
the engine: the prompt, the sampling parameters, and a :class:`PolicySpec`
describing which KVCache policy to instantiate for it.  The engine answers
with :class:`RequestOutput` objects — one per engine step that touched the
request — carrying the newly streamed tokens and, once the request finishes,
the full per-step logits/selections payload.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from ..baselines.base import KVCachePolicy, SelectionBudget
from ..baselines.registry import POLICY_NAMES, build_policy
from ..errors import ConfigurationError
from ..llm.model import PrefillResult
from .metrics import RequestMetrics

__all__ = [
    "SamplingParams",
    "PolicySpec",
    "Request",
    "RequestQoS",
    "RequestStatus",
    "RequestOutput",
    "SelectionHook",
    "StepSelections",
]

#: Selection record of ONE decode step: per transformer layer, ``None`` (all
#: attended) or the list of per-KV-head selected token index arrays.
StepSelections = list[list[np.ndarray] | None]

#: called from inside the per-layer selector with
#: ``(layer_index, query, cache, selected)`` where ``selected`` is already
#: normalised to per-KV-head index arrays (or ``None`` for full attention) —
#: the eval harness uses this to record
#: :class:`~repro.eval.metrics.StepObservation` objects.
SelectionHook = Callable[[int, np.ndarray, object, object], None]

_REQUEST_COUNTER = itertools.count()


def _next_request_id() -> str:
    return f"req-{next(_REQUEST_COUNTER)}"


@dataclass(frozen=True)
class SamplingParams:
    """Per-request decoding parameters (greedy decoding throughout).

    Attributes:
        max_new_tokens: number of tokens to generate.
        forbidden_ids: token ids never emitted (masked to ``-inf``).
        stop_token_ids: ids that terminate the request early; the stop token
            is included in the output but not decoded further.
        observation_window: trailing-query window for prefill aggregates.
    """

    max_new_tokens: int = 16
    forbidden_ids: tuple[int, ...] = ()
    stop_token_ids: tuple[int, ...] = ()
    observation_window: int = 32

    def __post_init__(self) -> None:
        if self.max_new_tokens <= 0:
            raise ConfigurationError("max_new_tokens must be positive")
        if self.observation_window <= 0:
            raise ConfigurationError("observation_window must be positive")


@dataclass(frozen=True)
class RequestQoS:
    """Per-request quality-of-service tags (multi-tenant serving).

    QoS steers *scheduling only*: admission order, chunked-prefill budget
    shares, victim selection under pool pressure, proactive swap-out, and
    load shedding.  It never changes what a request computes — tokens and
    logits stay byte-identical to an uncontended run of the same request
    (the engine's load-bearing invariant).

    Attributes:
        priority: priority class; higher is more important.  Admission is
            ordered by class (FCFS within a class), and under pool pressure
            victims are preferred from strictly lower classes — the age-rule
            liveness argument holds *within* each class, so the oldest
            request of the top class always completes.
        tenant: tenant label; per-tenant metrics are keyed on it and the
            chunked-prefill token budget is split weighted-fair *across*
            tenants (max-min within each tenant).
        weight: this tenant's fair-share weight in the chunked-prefill
            split (> 0); requests of one tenant should declare the same
            weight (the largest declared weight wins per step).
        deadline: optional completion deadline in *relative* simulated
            seconds from the request's arrival (> 0).  Within a priority
            class, deadline-tagged requests are admitted
            earliest-deadline-first ahead of the FCFS tail of untagged
            requests; when the scheduler's
            ``shed_missed_deadlines`` knob is on, a request still waiting
            past its deadline (or provably unable to meet it) is shed with
            ``finish_reason="deadline"``.
    """

    priority: int = 0
    tenant: str = "default"
    weight: float = 1.0
    deadline: float | None = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ConfigurationError("tenant must be a non-empty string")
        if self.weight <= 0:
            raise ConfigurationError("weight must be > 0")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError("deadline must be > 0 seconds (or None)")


class PolicySpec:
    """Recipe for building one fresh :class:`KVCachePolicy` per request.

    Policies are stateful (PQ codebooks, retained sets, GPU-cache stats), so
    requests must never share an instance; the engine calls :meth:`build`
    exactly once per request.  Two construction styles are supported:

    * :meth:`named` — canonical registry name + budget + options (the normal
      serving path, e.g. ``PolicySpec.named("pqcache", budget)``),
    * :meth:`from_instance` — wrap an already-built policy (single use; for
      a hand-built or instrumented policy).
    """

    def __init__(
        self,
        name: str | None = None,
        budget: SelectionBudget | None = None,
        options: dict | None = None,
    ) -> None:
        if name is not None and budget is None:
            raise ConfigurationError("a named PolicySpec requires a budget")
        # Fail at request-creation time, not mid-serving after the request
        # was already admitted into a batch slot.
        if name is not None and name not in POLICY_NAMES:
            raise ConfigurationError(
                f"unknown policy {name!r}; valid names: {', '.join(POLICY_NAMES)}"
            )
        self.name = name
        self.budget = budget
        self.options = dict(options or {})
        self._instance: KVCachePolicy | None = None
        self._instance_used = False

    # ------------------------------------------------------------ builders

    @classmethod
    def named(cls, name: str, budget: SelectionBudget, **options) -> "PolicySpec":
        """Spec resolved through :func:`repro.baselines.build_policy`."""
        return cls(name=name, budget=budget, options=options)

    @classmethod
    def from_instance(cls, policy: KVCachePolicy) -> "PolicySpec":
        """Single-use spec wrapping an existing policy instance."""
        spec = cls()
        spec._instance = policy
        return spec

    @property
    def supports_rebuild(self) -> bool:
        """Whether :meth:`build` can be called again for the *same* request.

        Recompute-preemption discards a request's policy state and rebuilds
        it from the spec on resume.  A named spec produces a fresh
        equivalent policy every time; an instance-wrapping spec cannot (the
        instance is stateful and single-use), so the engine swaps such
        requests instead of recomputing them.
        """
        return self._instance is None

    def build(self) -> KVCachePolicy:
        """Construct (or hand over) the policy for one request."""
        if self._instance is not None:
            if self._instance_used:
                raise ConfigurationError(
                    "PolicySpec.from_instance is single-use: policies are "
                    "stateful and cannot serve two requests"
                )
            self._instance_used = True
            return self._instance
        if self.name is not None:
            assert self.budget is not None
            return build_policy(self.name, self.budget, **self.options)
        raise ConfigurationError("empty PolicySpec cannot build a policy")

    def describe(self) -> dict:
        return {"name": self.name, "options": dict(self.options)}


class RequestStatus(Enum):
    """Lifecycle of a request inside the engine.

    ``WAITING → PREFILLING → RUNNING → FINISHED``: a request admitted into a
    batch slot first prefills its prompt (one monolithic step, or several
    chunks under chunked prefill — it stays ``PREFILLING`` between chunks),
    then decodes (``RUNNING``) until it finishes.  Under KV-pool pressure
    the engine may *preempt* a prefilling or running request: ``SWAPPED``
    means its blocks were copied to the CPU/disk swap tier and will be
    restored bitwise when the request is re-admitted; ``PREEMPTED``
    (recompute mode) means its blocks were dropped and the request will
    re-prefill its prompt and deterministically replay its generated tokens.
    Both states sit in the waiting queue and re-enter through admission.
    :meth:`InferenceEngine.abort` can finish a request early from any
    non-finished state (see ``docs/serving.md``).
    """

    WAITING = "waiting"
    PREFILLING = "prefilling"
    RUNNING = "running"
    SWAPPED = "swapped"
    PREEMPTED = "preempted"
    FINISHED = "finished"


@dataclass
class Request:
    """One generation request submitted to the :class:`InferenceEngine`.

    Attributes:
        prompt_ids: prompt token ids (non-empty).
        sampling: greedy-decoding parameters.
        policy_spec: KVCache policy recipe, or ``None`` for full attention.
        request_id: unique id; auto-assigned when omitted.
        forced_decode_ids: teacher-forcing mode — decode exactly these tokens
            instead of sampling (the evaluation harness feeds probe tokens
            this way); no tokens are *generated* in this mode.
        prefill: optional precomputed prefill result (e.g. a clone of a
            shared prefill); the engine skips its own prefill when set.
        selection_hook: optional observer called at every per-layer selection.
        qos: priority/tenant tags (see :class:`RequestQoS`); the default is
            a single best-effort class, which reproduces the pre-QoS FCFS
            scheduler exactly.
    """

    prompt_ids: list[int]
    sampling: SamplingParams = field(default_factory=SamplingParams)
    policy_spec: PolicySpec | None = None
    request_id: str = field(default_factory=_next_request_id)
    forced_decode_ids: list[int] | None = None
    prefill: PrefillResult | None = None
    selection_hook: SelectionHook | None = None
    qos: RequestQoS = field(default_factory=RequestQoS)

    def __post_init__(self) -> None:
        self.prompt_ids = [int(t) for t in self.prompt_ids]
        if not self.prompt_ids:
            raise ConfigurationError("prompt_ids must be non-empty")
        if self.forced_decode_ids is not None:
            self.forced_decode_ids = [int(t) for t in self.forced_decode_ids]
            if not self.forced_decode_ids:
                raise ConfigurationError("forced_decode_ids must be non-empty")


@dataclass
class RequestOutput:
    """Streamed (and final) output of one request.

    The engine emits one output per step that touched the request; only the
    final output (``finished=True``) carries the heavyweight ``logits`` /
    ``selections`` / ``prefill`` payload.

    Attributes:
        request_id: id of the originating request.
        new_token_ids: tokens first emitted during this engine step.
        token_ids: all tokens emitted so far (prompt excluded).
        finished: whether the request completed this step.
        finish_reason: ``"length"``, ``"stop"``, ``"aborted"``, ``"shed"``
            (refused by admission control), ``"deadline"`` (missed or
            provably-unmeetable deadline) or ``None`` while running.
        metrics: per-request serving metrics (TTFT, TPOT, bytes moved, ...).
        logits: ``(steps, vocab)`` per-decode-step logits (final output only).
        selections: per-step :data:`StepSelections` (final only).
        prefill: the request's prefill result (final output only).
    """

    request_id: str
    new_token_ids: list[int]
    token_ids: list[int]
    finished: bool
    finish_reason: str | None
    metrics: RequestMetrics
    logits: np.ndarray | None = None
    selections: list[StepSelections] | None = None
    prefill: PrefillResult | None = None
