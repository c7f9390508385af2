"""Engine-internal per-request mutable state.

:class:`RequestState` is the engine's working record of one submitted
:class:`~repro.serve.Request`: scheduling status, the policy instance, the
(possibly partial) prefill, paged-KV/prefix bookkeeping, swap-preemption
handles, generated tokens, per-step logits/selections, and the request's
:class:`~repro.serve.RequestMetrics`.  It lives in its own module so the
cluster layer (:mod:`repro.serve.cluster`) and the pool-pressure component
(:mod:`repro.serve.pressure`) can name it without importing the full engine.
"""

from __future__ import annotations

import numpy as np

from ..baselines.base import KVCachePolicy
from ..llm.kvcache import PagedKVCache, SwappedBlocks
from ..llm.model import PrefillResult, PrefillState
from ..utils import DTYPE
from .metrics import RequestMetrics
from .request import Request, RequestStatus, StepSelections

__all__ = ["RequestState"]


class RequestState:
    """Engine-internal mutable state of one request."""

    def __init__(self, request: Request, arrival_time: float, seq: int = 0) -> None:
        self.request = request
        #: order of entry into the scheduler, set as the engine releases the
        #: arrival — the preemption priority: a request may only victimise
        #: requests that entered after it, which guarantees the oldest
        #: active request always progresses (no preemption livelock).
        self.seq = seq
        self.status = RequestStatus.WAITING
        self.policy: KVCachePolicy | None = None
        self.prefill: PrefillResult | None = None
        self.prefill_state: PrefillState | None = None
        self.chunk_lens: list[int] = []
        self.chunk_seconds: float = 0.0
        self.method: str = "full"
        #: the request's KV in the engine's pool, from admission on
        self.paged: PagedKVCache | None = None
        self.cached_prefix = 0
        self.prefix_acc: list[np.ndarray] | None = None
        self.acc_capture = 0
        #: construction time (refine & friends) extending past the last
        #: compute task — charged after the first token is stamped, since it
        #: only gates the first retrieval (TT2T), not the first token.
        self.construction_tail = 0.0
        #: swap-preemption state: the parked chain handle and the status to
        #: restore once the blocks are swapped back in
        self.swap_handle: SwappedBlocks | None = None
        self.resume_status = RequestStatus.RUNNING
        self.generated: list[int] = []
        self.step_logits: list[np.ndarray] = []
        self.selections: list[StepSelections] = []
        self.num_decoded = 0
        self.finish_reason: str | None = None
        qos_deadline = request.qos.deadline
        #: absolute deadline on the engine's simulated clock (arrival time +
        #: the QoS-relative deadline); ``None`` when the request carries no
        #: deadline.  Part of the scheduler's
        #: ``Schedulable`` protocol (EDF ordering / miss shedding key off it).
        self.deadline_time: float | None = (
            None if qos_deadline is None else arrival_time + float(qos_deadline)
        )
        self.metrics = RequestMetrics(
            arrival_time=arrival_time,
            num_prompt_tokens=len(request.prompt_ids),
            priority=request.qos.priority,
            tenant=request.qos.tenant,
            deadline=self.deadline_time,
        )
        forbidden = np.asarray(request.sampling.forbidden_ids, dtype=np.int64)
        self._forbidden = forbidden
        self._stop_ids = frozenset(request.sampling.stop_token_ids)

    # ------------------------------------------------------------- helpers

    @property
    def forced(self) -> list[int] | None:
        return self.request.forced_decode_ids

    # QoS passthroughs — with ``seq``, ``deadline_time`` and
    # ``remaining_prefill_tokens`` the scheduler's ``Schedulable`` protocol.

    @property
    def qos(self):
        return self.request.qos

    @property
    def priority(self) -> int:
        return self.request.qos.priority

    @property
    def tenant(self) -> str:
        return self.request.qos.tenant

    @property
    def weight(self) -> float:
        return self.request.qos.weight

    @property
    def finished(self) -> bool:
        return self.status == RequestStatus.FINISHED

    @property
    def remaining_prefill_tokens(self) -> int:
        """Prompt tokens still to prefill (the scheduler's chunk protocol).

        Cache-hit tokens are excluded: a request resumed from a shared
        prefix only demands chunk budget for its divergent suffix.
        """
        if self.prefill is not None or self.request.prefill is not None:
            return 0
        if self.prefill_state is not None:
            return self.prefill_state.remaining_tokens
        return len(self.request.prompt_ids) - self.cached_prefix

    def pick_token(self, logits: np.ndarray) -> int:
        """Masked greedy argmax."""
        if self._forbidden.size:
            logits = logits.copy()
            logits[self._forbidden] = -np.inf
        return int(np.argmax(logits))

    def is_stop(self, token: int) -> bool:
        return token in self._stop_ids

    def next_input_token(self) -> int:
        """Token the next decode round must process."""
        if self.forced is not None:
            return self.forced[self.num_decoded]
        return self.generated[self.num_decoded]

    def stacked_logits(self, vocab_size: int) -> np.ndarray:
        if not self.step_logits:
            return np.zeros((0, vocab_size), dtype=DTYPE)
        return np.stack(self.step_logits, axis=0)
