"""Continuous-batching scheduler with optional chunked prefill.

The scheduler owns the waiting queue and the running batch.  Each engine step
asks it for a :class:`SchedulingDecision`: which waiting requests to admit,
how many prefill tokens each partially-prefilled request may process this
step, and which running requests get a decode round.  Admission is FCFS and a
request holds its batch slot until it finishes — the classic
continuous-batching discipline (Orca/vLLM style): slots freed by finished
requests are refilled on the very next step instead of waiting for the whole
batch to drain.

Chunked prefill (vLLM-style) is enabled by setting
``max_prefill_chunk_tokens``: instead of prefilling an admitted prompt in one
monolithic step — which head-of-line-blocks every other request for the whole
prompt's makespan — each step hands out at most that many prompt tokens,
split max-min fairly across the batch's ``PREFILLING`` requests (short
prompts complete first, long prompts soak up the leftover budget).  What the
scheduler reads of an item is the :class:`Schedulable` protocol (the
engine's per-request state implements it).

The scheduler is storage-agnostic: under the engine's paged-KV/prefix-cache
mode a request's ``remaining_prefill_tokens`` already excludes the tokens
served from the shared-prefix cache, so cache-hit requests demand chunk
budget (and clock) only for their divergent suffix — the scheduler charges
zero prefill work for cache-hit tokens without knowing they exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Generic, List, Optional, Protocol, Tuple, TypeVar

from ..errors import ConfigurationError

__all__ = [
    "Schedulable",
    "SchedulerConfig",
    "SchedulingDecision",
    "ContinuousBatchingScheduler",
]


class Schedulable(Protocol):
    """What the scheduler (and the SLO tuner) read of a scheduled item.

    With one best-effort deadline-less class (``priority`` 0, one ``tenant``,
    ``deadline_time`` ``None``) every code path is the pre-QoS FCFS one.

    Attributes:
        priority: QoS class; higher admits first and is preempted last.
        tenant: weighted-fair grouping of the chunked-prefill budget.
        weight: the tenant's declared share of that budget.
        seq: submission order (newest is shed first within a class).
        deadline_time: absolute simulated-clock deadline (EDF ordering
            within the class), or ``None``.
        remaining_prefill_tokens: prompt tokens still to prefill — the
            chunk budget's demand; 0 once the item only decodes.
    """

    @property
    def priority(self) -> int: ...
    @property
    def tenant(self) -> str: ...
    @property
    def weight(self) -> float: ...
    @property
    def seq(self) -> int: ...
    @property
    def deadline_time(self) -> "float | None": ...
    @property
    def remaining_prefill_tokens(self) -> int: ...


T = TypeVar("T", bound=Schedulable)


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the continuous-batching scheduler.

    Attributes:
        max_batch_size: maximum concurrently running (decode) requests.
        max_prefills_per_step: admission cap per engine step; prefills are
            long, so bounding them keeps decode rounds of already-running
            requests from starving (vLLM's ``max_num_seqs`` analogue).
        max_prefill_chunk_tokens: per-step prompt-token budget shared by all
            mid-prefill requests.  ``None`` (the default) disables chunking:
            admitted requests prefill their whole prompt in the admission
            step, exactly like the pre-chunking engine.
        preemption_mode: what happens to a victim's KV when the engine
            preempts it under block-pool pressure.  ``"swap"`` (default)
            copies its blocks to the CPU swap tier and restores them bitwise
            on resume; ``"recompute"`` drops the blocks and re-enqueues the
            request, which re-prefills its prompt and deterministically
            replays its generated tokens on resume (cheaper in memory
            traffic, more compute).  Requests whose policy cannot be rebuilt
            deterministically (``PolicySpec.from_instance``) are swapped
            even in recompute mode.
        victim_policy: which running request is preempted first.  ``"lifo"``
            (default) picks the most recently admitted — the one that has
            wasted the least work, vLLM's default; ``"fifo"`` picks the
            oldest.  With QoS-tagged traffic the policy only breaks ties
            *within* a priority class: victims always come from the lowest
            running class first.
        max_waiting: admission-control cap on the waiting queue.  ``None``
            (default) never sheds; with a cap, a submit that would overflow
            the queue sheds the lowest-ranked never-admitted waiting request
            (lowest priority class, newest within it) with
            ``finish_reason="shed"``.
        shed_infeasible: shed a request on arrival when it is *provably*
            infeasible — its prompt alone needs more KV blocks than the
            whole pool holds, so no schedule could ever complete it.  Off by
            default: the pre-QoS contract is a ``CapacityError`` when such a
            request reaches the head of the queue.
        proactive_swap_free_fraction: when the free fraction of the block
            pool drops below this threshold at the start of a step and
            higher-priority work is waiting, the engine proactively swaps
            out the lowest-priority running requests before admission
            instead of waiting for a reactive preemption mid-allocation.
            ``None`` (default) disables proactive swap-out.  This value is
            the *baseline*: the engine copies it to a mutable
            ``proactive_swap_free_fraction`` attribute that the opt-in SLO
            tuner (:class:`~repro.serve.SLOTuner`) may move at runtime.
        shed_missed_deadlines: shed deadline-tagged requests that cannot
            meet their deadline — on arrival when the deadline is *provably*
            unmeetable (the prefill-compute lower bound of the prompt alone
            exceeds the relative deadline) and mid-wait when the simulated
            clock passes the resolved deadline while the request is still
            waiting for admission — with ``finish_reason="deadline"``.  On
            by default; requests without a deadline are never affected.
            Turning it off keeps EDF ordering but completes every request
            (useful for A/B ordering comparisons).
    """

    max_batch_size: int = 8
    max_prefills_per_step: int = 2
    max_prefill_chunk_tokens: int | None = None
    preemption_mode: str = "swap"
    victim_policy: str = "lifo"
    max_waiting: int | None = None
    shed_infeasible: bool = False
    proactive_swap_free_fraction: float | None = None
    shed_missed_deadlines: bool = True

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ConfigurationError("max_batch_size must be positive")
        if self.max_prefills_per_step <= 0:
            raise ConfigurationError("max_prefills_per_step must be positive")
        if self.max_prefill_chunk_tokens is not None and self.max_prefill_chunk_tokens <= 0:
            raise ConfigurationError(
                "max_prefill_chunk_tokens must be positive (or None to disable)"
            )
        if self.preemption_mode not in ("swap", "recompute"):
            raise ConfigurationError(
                "preemption_mode must be 'swap' or 'recompute'"
            )
        if self.victim_policy not in ("lifo", "fifo"):
            raise ConfigurationError("victim_policy must be 'lifo' or 'fifo'")
        if self.max_waiting is not None and self.max_waiting <= 0:
            raise ConfigurationError(
                "max_waiting must be positive (or None to disable shedding)"
            )
        if self.proactive_swap_free_fraction is not None and not (
            0.0 < self.proactive_swap_free_fraction <= 1.0
        ):
            raise ConfigurationError(
                "proactive_swap_free_fraction must be in (0, 1] (or None)"
            )

    @property
    def chunked_prefill_enabled(self) -> bool:
        return self.max_prefill_chunk_tokens is not None


@dataclass
class SchedulingDecision(Generic[T]):
    """What one engine step should do.

    Attributes:
        admitted: requests moving waiting → running this step.
        prefill_chunks: ``(request, num_tokens)`` prefill work for this step,
            in processing order (chunked mode only; empty otherwise —
            unchunked admissions prefill their whole prompt).
        decodes: running requests that get a decode round this step.  In
            chunked mode this includes requests whose prefill completes with
            this step's chunk allocation, matching the unchunked behaviour of
            decoding right after admission-prefill.
    """

    admitted: List[T]
    decodes: List[T]
    prefill_chunks: List[Tuple[T, int]] = field(default_factory=list)


class ContinuousBatchingScheduler(Generic[T]):
    """Priority-ordered admission + run-to-completion batch slots over
    :class:`Schedulable` items."""

    def __init__(self, config: SchedulerConfig | None = None) -> None:
        self.config = config or SchedulerConfig()
        self._waiting: List[T] = []
        self._running: List[T] = []
        #: per-tenant weight overrides consulted ahead of the items' own
        #: declared weights — the SLO tuner's handle on the weighted-fair
        #: chunk split (requests' frozen QoS declarations stay untouched)
        self.tenant_weights: dict[str, float] = {}

    def _weight(self, item: T) -> float:
        """The item's chunk-budget weight: the tuner's override, else its own."""
        return float(self.tenant_weights.get(item.tenant, item.weight))

    # ------------------------------------------------------------- queues

    @property
    def num_waiting(self) -> int:
        return len(self._waiting)

    @property
    def num_running(self) -> int:
        return len(self._running)

    @property
    def has_work(self) -> bool:
        return bool(self._waiting or self._running)

    def waiting_items(self) -> tuple[T, ...]:
        """The waiting queue in admission order (highest class first)."""
        return tuple(self._waiting)

    def running_items(self) -> tuple[T, ...]:
        """The running batch in admission order."""
        return tuple(self._running)

    def _insert_waiting(self, item: T, front_of_class: bool) -> None:
        """Insert keeping the queue sorted by priority (descending), EDF
        within each class.

        Within a priority class, deadline-tagged items come first in
        earliest-deadline order; items without a deadline form the FCFS
        tail of the class — so untagged traffic keeps PR 9's per-class
        age-rule liveness argument verbatim, and with no deadlines at all
        this degenerates to plain append / appendleft.  Among equal ranks
        (same deadline, or both untagged) new submissions go to the *back*
        (FCFS), resumed preemption victims to the *front* (they re-admit
        before newer equal-ranked arrivals).
        """
        p = item.priority
        d = item.deadline_time

        def belongs_before(existing: T) -> bool:
            ep = existing.priority
            if ep != p:
                return ep < p
            ed = existing.deadline_time
            if d is None:
                # untagged: after every deadline-tagged item of the class
                return ed is None and front_of_class
            if ed is None:
                return True
            if d != ed:
                return d < ed
            return front_of_class

        idx = 0
        while idx < len(self._waiting) and not belongs_before(self._waiting[idx]):
            idx += 1
        self._waiting.insert(idx, item)

    def submit(self, item: T) -> None:
        """Enqueue a request for admission (priority-ordered, EDF-then-FCFS
        within the class)."""
        self._insert_waiting(item, front_of_class=False)

    def lowest_ranked_waiting(
        self, eligible: "Optional[Callable[[T], bool]]" = None
    ) -> T | None:
        """The waiting item admission values *least* — the shedding victim.

        Lowest priority class; newest (highest ``seq``) within it.  This is
        the single shed-victim ranking shared by every shed path: the
        engine's ``max_waiting`` overflow and deadline sweeps both rank
        through here.  ``eligible`` filters the candidates — the engine
        passes a never-admitted predicate so re-queued preemption victims
        (which already hold generated tokens) are never chosen.
        """
        candidates = (
            self._waiting
            if eligible is None
            else [item for item in self._waiting if eligible(item)]
        )
        if not candidates:
            return None
        return min(candidates, key=lambda it: (it.priority, -it.seq))

    def finish(self, item: T) -> None:
        """Release the batch slot of a finished request."""
        self._running.remove(item)

    def remove(self, item: T) -> None:
        """Drop a request from whichever queue holds it (abort support)."""
        if not self.discard(item):
            raise ConfigurationError("item is not scheduled")

    def discard(self, item: T) -> bool:
        """:meth:`remove` that tolerates an already-departed item.

        Returns whether the item was scheduled — the engine's idempotent
        abort path uses this so aborting a request that lost a same-step
        race against a shed or finish stays a no-op.
        """
        if item in self._running:
            self._running.remove(item)
            return True
        if item in self._waiting:
            self._waiting.remove(item)
            return True
        return False

    def contains_running(self, item: T) -> bool:
        """Whether the item currently holds a batch slot."""
        return item in self._running

    def preempt(self, item: T, requeue_front: bool = True) -> None:
        """Move a running request back to the waiting queue.

        Preempted requests go to the *front of their priority class* by
        default so they are resumed before newer same-class arrivals (no
        starvation of victims); ``requeue_front=False`` parks the item at
        the back of its class instead — the engine uses that when a resume
        attempt itself failed for memory, so other requests get a chance to
        finish and free blocks first.
        """
        if item not in self._running:
            raise ConfigurationError("cannot preempt an item that is not running")
        self._running.remove(item)
        self._insert_waiting(item, front_of_class=requeue_front)

    def pick_victim(self, exclude: "tuple[T, ...] | list[T]" = ()) -> T | None:
        """Choose the running request to preempt under pool pressure.

        Victims come from the lowest running priority class first (no
        cross-class inversion: a class never bleeds for a lower one); the
        configured ``victim_policy`` breaks ties within the class —
        ``"lifo"`` prefers the most recently admitted (least sunk work,
        vLLM's default), ``"fifo"`` the oldest.  Items in ``exclude``
        (typically the request that needs the memory) are never chosen.
        Returns ``None`` when no running request is eligible.
        """
        order = (
            reversed(self._running)
            if self.config.victim_policy == "lifo"
            else iter(self._running)
        )
        best: T | None = None
        for item in order:
            if any(item is excluded for excluded in exclude):
                continue
            if best is None or item.priority < best.priority:
                best = item
        return best

    # ----------------------------------------------------------- schedule

    def _grant_max_min(
        self,
        items: List[T],
        budget: int,
        chunks: List[Tuple[T, int]],
        granted: dict,
    ) -> int:
        """Max-min (water-filling) split of ``budget`` over ``items``.

        Smallest demands are served first (fully, when the fair share covers
        them) so short prompts are never head-of-line-blocked by a long
        prefill; the leftover budget rolls over to the larger demands.  Ties
        keep FCFS order (stable sort).  Returns the tokens actually granted.
        """
        items = sorted(items, key=lambda it: it.remaining_prefill_tokens)
        used = 0
        for index, item in enumerate(items):
            if budget <= 0:
                break
            claimants_left = len(items) - index
            fair_share = -(-budget // claimants_left)  # ceil division
            grant = min(item.remaining_prefill_tokens, fair_share, budget)
            if grant > 0:
                chunks.append((item, grant))
                granted[id(item)] = grant
                budget -= grant
                used += grant
        return used

    def schedule(self) -> SchedulingDecision[T]:
        """Admit waiting requests into free slots, then plan prefill/decode."""
        admitted: List[T] = []
        while (
            self._waiting
            and len(self._running) < self.config.max_batch_size
            and len(admitted) < self.config.max_prefills_per_step
        ):
            item = self._waiting.pop(0)
            self._running.append(item)
            admitted.append(item)

        if not self.config.chunked_prefill_enabled:
            return SchedulingDecision(admitted=admitted, decodes=list(self._running))

        # Chunked mode: split the step's token budget weighted-fair across
        # tenants (each tenant's share is proportional to its declared
        # weight), then max-min fairly over each tenant's own
        # partially-prefilled requests.  With a single tenant — in
        # particular with untagged traffic — this is byte-for-byte the
        # plain max-min split the pre-QoS scheduler ran.
        prefilling = [
            item for item in self._running if item.remaining_prefill_tokens > 0
        ]
        granted: dict = {}
        chunks: List[Tuple[T, int]] = []
        budget = int(self.config.max_prefill_chunk_tokens or 0)

        tenants: dict[str, List[T]] = {}
        for item in prefilling:
            tenants.setdefault(item.tenant, []).append(item)

        if len(tenants) <= 1:
            self._grant_max_min(prefilling, budget, chunks, granted)
        else:
            # Water-filling over tenants: serve the tenant with the smallest
            # demand-per-weight first, granting it ceil(budget * w / W) of
            # the remaining budget; a tenant that cannot use its share rolls
            # the leftover over to the hungrier tenants.
            weights = {
                name: max(self._weight(item) for item in members)
                for name, members in tenants.items()
            }
            demands = {
                name: sum(item.remaining_prefill_tokens for item in members)
                for name, members in tenants.items()
            }
            order = sorted(tenants, key=lambda n: (demands[n] / weights[n], n))
            total_weight = sum(weights.values())
            for name in order:
                if budget <= 0:
                    break
                fair = math.ceil(budget * weights[name] / total_weight)
                share = min(demands[name], fair, budget)
                used = self._grant_max_min(tenants[name], share, chunks, granted)
                budget -= used
                total_weight -= weights[name]

        decodes = [
            item for item in self._running
            if item.remaining_prefill_tokens - granted.get(id(item), 0) <= 0
        ]
        return SchedulingDecision(
            admitted=admitted, decodes=decodes, prefill_chunks=chunks
        )
