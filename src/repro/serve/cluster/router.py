"""Placement policies: which worker serves an incoming request.

The router is pure decision logic: given a prompt and the fleet's live
signals — load and each worker's prefix-cache coverage of the prompt — it
returns a :class:`Placement`.  It never affects *what* a
request computes, only *where* (and therefore on whose simulated clock) it
runs.

Policies:

* ``round_robin`` — cycle through workers in submission order; the
  baseline that scatters conversation turns and turns prefix-cache wins
  back into cold prefills.
* ``least_loaded`` — the worker with the fewest queued + active requests
  (ties to the lowest id).
* ``cache_aware`` — the worker whose cache holds the longest *resident*
  leading prefix of the prompt (by cache coverage); ties break toward
  the least-loaded worker, then the lowest id.  On a full resident miss it
  falls back to least-loaded; with ``migrate_on_miss``, a spilled chain on
  some worker's disk tier is shipped to the fallback target first (unless
  the owner *is* the target — restoring locally is strictly cheaper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from ...errors import ConfigurationError
from ..prefix_cache import PrefixCoverage, chain_block_keys

__all__ = ["Router", "Placement", "RoutableWorker", "ROUTING_POLICIES"]

ROUTING_POLICIES = ("round_robin", "least_loaded", "cache_aware")


class RoutableWorker(Protocol):
    """The signals the router reads of a fleet member — documented on
    :class:`~repro.serve.cluster.Worker`, which implements them."""

    @property
    def worker_id(self) -> int: ...
    @property
    def load(self) -> int: ...
    def load_at_or_above(self, priority: int) -> int: ...
    def prefix_coverage(self, keys: Sequence[bytes]) -> PrefixCoverage: ...


@dataclass
class Placement:
    """One routing decision, with the evidence it was made on.

    Attributes:
        worker_id: the chosen worker.
        policy: the policy that produced the decision.
        matched_tokens: resident leading-prefix tokens on the chosen
            worker at decision time (0 for load-only placements).
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
    """

    def __init__(
        self, policy: str = "cache_aware", migrate_on_miss: bool = False
    ) -> None:
        if policy not in ROUTING_POLICIES:
            raise ConfigurationError(
                f"unknown routing policy {policy!r}; "
                f"expected one of {ROUTING_POLICIES}"
            )
        self.policy = policy
        self.migrate_on_miss = migrate_on_miss
        self._next = 0

    # ------------------------------------------------------------- placing

    def place(
        self,
        prompt_ids: Sequence[int],
        workers: "Sequence[RoutableWorker]",
        block_size: "int | None" = None,
        priority: "int | None" = None,
    ) -> Placement:
        """Choose a worker for one request.

        Args:
            prompt_ids: the request's prompt tokens.
            workers: the fleet.
            block_size: the workers' KV block size, which cache-aware
                placement needs to fingerprint the prompt.
            priority: the request's QoS priority class.  When set, load
                comparisons count only same-or-higher-class occupancy —
                lower-class work does not delay a tagged request, so it
                should not repel it either.  ``None`` keeps the total-load
                signal.
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
        return self._place_cache_aware(
            prompt_ids, workers, block_size, priority
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

    def _place_cache_aware(
        self,
        prompt_ids: Sequence[int],
        workers: "Sequence[RoutableWorker]",
        block_size: int,
        priority: "int | None" = None,
    ) -> Placement:
        # Hash the prompt once; every worker walks its own index for it.
        keys = chain_block_keys(prompt_ids, block_size)
        covered = [(worker, worker.prefix_coverage(keys)) for worker in workers]
        # Rank candidates that hold a resident prefix: longest match first,
        # then lightest load, then lowest id (the deterministic tie-break).
        resident = [item for item in covered if item[1].resident_blocks]
        if resident:
            worker, coverage = min(
                resident,
                key=lambda item: (
                    -item[1].resident_blocks,
                    self._load(item[0], priority),
                    item[0].worker_id,
                ),
            )
            return Placement(
                worker.worker_id,
                self.policy,
                matched_tokens=coverage.resident_blocks * block_size,
            )

        # Resident miss: fall back to least-loaded.  A *spilled* chain on
        # some worker's disk tier can still be put to work: with
        # migrate_on_miss the frontend ships it to the fallback target —
        # unless that target already owns it (its own match would restore
        # the chain locally, skipping the PCIe round trip).
        target = self._least_loaded(workers, priority)
        placement = Placement(target.worker_id, self.policy)
        if self.migrate_on_miss:
            owner, coverage = min(
                covered,
                key=lambda item: (
                    -item[1].known_blocks, item[0].load, item[0].worker_id
                ),
            )
            if coverage.known_blocks > 0 and owner.worker_id != target.worker_id:
                placement.migrate_from = owner.worker_id
                placement.migrate_tokens = coverage.known_blocks * block_size
        return placement
