"""One serving replica of the cluster: an engine with routing signals.

A :class:`Worker` *is* an :class:`~repro.serve.InferenceEngine` — same
pool/scheduler/clock/prefix-cache core, same byte-identical admit → prefill
→ decode loop — plus a worker id and the signals the router reads live: its
load, its deadline backlog, and its prefix cache's coverage of a prompt.
Keeping the worker a plain engine subclass is what makes the cluster's
byte-identity invariant structural: placement decides *which* engine runs a
request, and every engine runs it identically.
"""

from __future__ import annotations

import math
from typing import Sequence

from ...llm.model import TransformerLM
from ..config import EngineConfig
from ..engine import InferenceEngine
from ..prefix_cache import PrefixCoverage

__all__ = ["Worker"]


class Worker(InferenceEngine):
    """A cluster replica: one engine plus the signals the router reads.

    Args:
        worker_id: stable index of this replica in the fleet.
        model: shared transformer substrate (weights are read-only, so all
            workers can share one instance).
        config: this replica's :class:`~repro.serve.EngineConfig`; the
            worker builds its own pool, swap tiers and prefix cache from it.
    """

    def __init__(
        self, worker_id: int, model: TransformerLM, config: EngineConfig
    ) -> None:
        super().__init__(model, config)
        self.worker_id = worker_id

    @property
    def load(self) -> int:
        """Queued plus active requests — the router's balancing signal."""
        return self.num_waiting + self.num_running

    def load_at_or_above(self, priority: int) -> int:
        """Queued plus active requests of priority class >= ``priority``.

        The router's per-class load signal: work *below* the incoming
        request's class does not delay it (the QoS scheduler admits over it
        and preempts it under pressure), so only same-or-higher-class
        occupancy counts when balancing a tagged request.
        """
        return sum(
            1
            for item in (
                self.scheduler.waiting_items() + self.scheduler.running_items()
            )
            if item.priority >= priority
        )

    def _scheduled_deadlines(self) -> "list[float]":
        """Absolute deadlines of every scheduled (waiting or running) request."""
        return [
            item.deadline_time
            for item in (
                self.scheduler.waiting_items() + self.scheduler.running_items()
            )
            if item.deadline_time is not None
        ]

    def deadline_backlog(self, before_slack: "float | None" = None) -> int:
        """Scheduled deadline-tagged requests — the router's EDF signal.

        With ``before_slack`` (an incoming request's *relative* deadline),
        count only those whose remaining slack is strictly smaller: the
        requests EDF would order ahead of the incoming one on this worker.
        ``None`` counts every deadline-tagged scheduled request.
        """
        clock = self.metrics.clock
        return sum(
            1
            for deadline_time in self._scheduled_deadlines()
            if before_slack is None or deadline_time - clock < before_slack
        )

    @property
    def nearest_deadline_slack(self) -> float:
        """Seconds until this worker's most urgent scheduled deadline.

        ``inf`` when no scheduled request carries a deadline (negative when
        a scheduled deadline has already passed) — the router's slack
        tie-break prefers the worker that can best absorb urgent work.
        """
        deadlines = self._scheduled_deadlines()
        if not deadlines:
            return math.inf
        return min(deadlines) - self.metrics.clock

    def prefix_coverage(self, keys: Sequence[bytes]) -> PrefixCoverage:
        """This worker's leading-prefix coverage of a prompt's chain keys —
        the router's cache signal (zero without a prefix cache)."""
        if self.prefix_cache is None:
            return PrefixCoverage()
        return self.prefix_cache.coverage(keys)

    def describe(self) -> dict:
        """Per-worker reporting row (hit rates, load, clock)."""
        return {
            "worker_id": self.worker_id,
            "load": self.load,
            "clock": self.metrics.clock,
            "requests_finished": self.metrics.requests_finished,
            "prefix_cache_hit_rate": self.metrics.prefix_cache_hit_rate,
            "prefix_token_hit_rate": self.metrics.prefix_token_hit_rate,
        }
