"""Placement policies: which worker serves an incoming request.

The router is pure decision logic: given a prompt, the fleet's load
signals, and the shared :class:`~repro.serve.cluster.FingerprintDirectory`,
it returns a :class:`Placement` — it never touches a worker's internals and
never affects *what* a request computes, only *where* (and therefore on
whose simulated clock) it runs.

Policies:

* ``round_robin`` — cycle through workers in submission order; the
  baseline that scatters conversation turns and turns prefix-cache wins
  back into cold prefills.
* ``least_loaded`` — the worker with the fewest queued + active requests
  (ties to the lowest id).
* ``cache_aware`` — the worker whose cache holds the longest *resident*
  leading prefix of the prompt (by directory coverage); ties break toward
  the least-loaded worker, then the lowest id.  On a full resident miss it
  falls back to least-loaded; with ``migrate_on_miss``, a spilled chain on
  some worker's disk tier is shipped to the fallback target first (unless
  the owner *is* the target — restoring locally is strictly cheaper).
* ``edf_aware`` — deadline-pressure balancing for EDF fleets: the worker
  holding the fewest deadline-tagged requests the incoming one would queue
  behind (its *nearest-deadline backlog*), then the worker with the most
  slack to its own most urgent deadline, then per-class load, then the
  lowest id.  A fleet without deadline-tagged work is all zero-backlog /
  infinite-slack, which degrades to least-loaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from ...errors import ConfigurationError
from ..prefix_cache import chain_block_keys
from .directory import FingerprintDirectory

__all__ = ["Router", "Placement", "RoutableWorker", "ROUTING_POLICIES"]

ROUTING_POLICIES = ("round_robin", "least_loaded", "cache_aware", "edf_aware")


class RoutableWorker(Protocol):
    """The load signals the router reads of a fleet member — documented on
    :class:`~repro.serve.cluster.Worker`, which implements them."""

    @property
    def worker_id(self) -> int: ...
    @property
    def load(self) -> int: ...
    @property
    def nearest_deadline_slack(self) -> float: ...
    def load_at_or_above(self, priority: int) -> int: ...
    def deadline_backlog(self, before_slack: "float | None" = None) -> int: ...


@dataclass
class Placement:
    """One routing decision, with the evidence it was made on.

    Attributes:
        worker_id: the chosen worker.
        policy: the policy that produced the decision.
        matched_tokens: directory-resident leading-prefix tokens on the
            chosen worker at decision time (0 for load-only placements).
        migrate_from: owner of a spilled chain to ship to ``worker_id``
            before submission, or ``None``.
        migrate_tokens: leading-prefix tokens the migration would cover.
    """

    worker_id: int
    policy: str
    matched_tokens: int = 0
    migrate_from: "int | None" = None
    migrate_tokens: int = 0


class Router:
    """Pluggable placement over a worker fleet.

    Args:
        policy: one of :data:`ROUTING_POLICIES`.
        migrate_on_miss: under ``cache_aware``, ship a spilled matching
            chain from its owning worker to the fallback target instead of
            ignoring it (the frontend executes and bills the transfer).
        hash_fn: chain hash used to fingerprint prompts; must equal the
            workers' :class:`~repro.serve.PrefixCache` hash so router keys
            and published keys agree.  ``None`` uses the default hash.
    """

    def __init__(
        self,
        policy: str = "cache_aware",
        migrate_on_miss: bool = False,
        hash_fn=None,
    ) -> None:
        if policy not in ROUTING_POLICIES:
            raise ConfigurationError(
                f"unknown routing policy {policy!r}; "
                f"expected one of {ROUTING_POLICIES}"
            )
        self.policy = policy
        self.migrate_on_miss = migrate_on_miss
        self.hash_fn = hash_fn
        self._next = 0

    # ------------------------------------------------------------- placing

    def place(
        self,
        prompt_ids: Sequence[int],
        workers: "Sequence[RoutableWorker]",
        directory: "FingerprintDirectory | None" = None,
        block_size: "int | None" = None,
        priority: "int | None" = None,
        deadline: "float | None" = None,
    ) -> Placement:
        """Choose a worker for one request.

        Args:
            prompt_ids: the request's prompt tokens.
            workers: the fleet.
            directory: the fleet fingerprint directory (``cache_aware``
                treats ``None`` as an empty directory).
            block_size: the workers' KV block size, needed to fingerprint
                the prompt; ``None`` disables coverage scoring (cache-aware
                degrades to least-loaded).
            priority: the request's QoS priority class.  When set, load
                comparisons count only same-or-higher-class occupancy —
                lower-class work does not delay a tagged request, so it
                should not repel it either.  ``None`` keeps the total-load
                signal.
            deadline: the request's *relative* deadline in seconds, if any.
                ``edf_aware`` uses it to count only the scheduled requests
                the incoming one would actually queue behind under EDF
                (those with less remaining slack); ``None`` counts every
                deadline-tagged request.
        """
        if not workers:
            raise ConfigurationError("cannot place a request on zero workers")
        if self.policy == "round_robin":
            worker = workers[self._next % len(workers)]
            self._next += 1
            return Placement(worker.worker_id, self.policy)
        if self.policy == "least_loaded":
            return Placement(
                self._least_loaded(workers, priority).worker_id, self.policy
            )
        if self.policy == "edf_aware":
            return Placement(
                self._least_deadline_pressed(
                    workers, priority, deadline
                ).worker_id,
                self.policy,
            )
        return self._place_cache_aware(
            prompt_ids, workers, directory, block_size, priority
        )

    @staticmethod
    def _load(worker: RoutableWorker, priority: "int | None") -> int:
        """The balancing signal: per-class load when a class is given."""
        if priority is not None:
            return worker.load_at_or_above(priority)
        return worker.load

    @classmethod
    def _least_loaded(
        cls, workers: "Sequence[RoutableWorker]", priority: "int | None" = None
    ) -> RoutableWorker:
        return min(workers, key=lambda w: (cls._load(w, priority), w.worker_id))

    @classmethod
    def _least_deadline_pressed(
        cls,
        workers: "Sequence[RoutableWorker]",
        priority: "int | None",
        deadline: "float | None",
    ) -> RoutableWorker:
        """EDF-pressure balancing: fewest deadline-tagged requests ahead of
        the incoming one, then most slack to the worker's nearest deadline,
        then per-class load, then the lowest id."""

        def rank(worker: RoutableWorker):
            return (
                worker.deadline_backlog(before_slack=deadline),
                -worker.nearest_deadline_slack,
                cls._load(worker, priority),
                worker.worker_id,
            )

        return min(workers, key=rank)

    def _place_cache_aware(
        self,
        prompt_ids: Sequence[int],
        workers: "Sequence[RoutableWorker]",
        directory: "FingerprintDirectory | None",
        block_size: "int | None",
        priority: "int | None" = None,
    ) -> Placement:
        covered = {}
        if directory is not None and block_size is not None:
            keys = chain_block_keys(prompt_ids, block_size, self.hash_fn)
            if keys:
                covered = directory.coverage(keys)
        by_id = {worker.worker_id: worker for worker in workers}
        # Rank candidates that hold a resident prefix: longest match first,
        # then lightest load, then lowest id (the deterministic tie-break).
        best = None
        best_rank = None
        for worker_id, coverage in covered.items():
            worker = by_id.get(worker_id)
            if worker is None or coverage.resident_blocks == 0:
                continue
            rank = (
                -coverage.resident_blocks,
                self._load(worker, priority),
                worker.worker_id,
            )
            if best_rank is None or rank < best_rank:
                best, best_rank = worker, rank
        if best is not None:
            matched = covered[best.worker_id].resident_blocks * block_size
            return Placement(best.worker_id, self.policy, matched_tokens=matched)

        # Resident miss: fall back to least-loaded.  A *spilled* chain on
        # some worker's disk tier can still be put to work: with
        # migrate_on_miss the frontend ships it to the fallback target —
        # unless that target already owns it (its own match would restore
        # the chain locally, skipping the PCIe round trip).
        target = self._least_loaded(workers, priority)
        placement = Placement(target.worker_id, self.policy)
        if self.migrate_on_miss and covered:
            owner_id, coverage = min(
                covered.items(),
                key=lambda item: (
                    -item[1].known_blocks,
                    by_id[item[0]].load if item[0] in by_id else 0,
                    item[0],
                ),
            )
            if (
                coverage.known_blocks > 0
                and owner_id in by_id
                and owner_id != target.worker_id
            ):
                placement.migrate_from = owner_id
                placement.migrate_tokens = coverage.known_blocks * block_size
        return placement
