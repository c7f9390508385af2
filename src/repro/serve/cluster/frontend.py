"""Cluster frontend: N workers and one router.

:class:`ClusterFrontend` is the fleet-level serving surface: it owns ``N``
:class:`~repro.serve.cluster.Worker` replicas (each a full
:class:`~repro.serve.InferenceEngine` with its own block pool, swap tiers,
prefix cache, and simulated clock), routes every submitted request through a
:class:`~repro.serve.cluster.Router`, and aggregates per-worker
:class:`~repro.serve.EngineMetrics` into fleet metrics
(counters sum, clocks take the max — parallel replicas overlap in wall
time).

The load-bearing invariant is **byte-identity**: placement changes only the
clock, never the bytes.  Every worker runs the same deterministic engine
code over the same shared substrate weights, so a request's tokens and
logits are identical whichever worker serves it — and identical to a
single-worker (or single-engine) run under the same per-request policy
config.  Routing quality therefore only moves latency: cache-aware
placement lands conversation turns on the worker already holding their
prefix, round-robin scatters them into cold prefills.

Migration (``migrate_on_miss``): when cache-aware routing misses every
resident chain but some worker holds a *spilled* match on its disk tier,
the frontend ships that chain to the routed worker — exported off the
owner's NVMe (:meth:`~repro.serve.PrefixCache.export_chain`), imported
bitwise into the target's pool
(:meth:`~repro.serve.PrefixCache.import_chain`), and billed to the target's
clock as an NVMe-read → PCIe-H2D timeline
(:meth:`~repro.memory.LatencyModel.migration_timeline`), *after* the
request's arrival is stamped so its TTFT honestly includes the transfer it
waited on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ...errors import ConfigurationError
from ...llm.model import TransformerLM
from ..config import EngineConfig, PoolConfig, resolve_config
from ..metrics import EngineMetrics
from ..request import Request, RequestOutput
from .router import Placement, Router
from .worker import Worker

__all__ = ["ClusterFrontend", "ClusterMetrics"]


@dataclass
class ClusterMetrics:
    """Fleet-level migration counters (per-worker engines bill their own
    swap/spill traffic; these cover only cross-worker chain transfers).

    ``migrated_kv_bytes``/``migrated_disk_bytes`` are the modelled sizes
    that crossed PCIe and the source's NVMe.

    ``routed_by_class`` counts routing decisions per QoS priority class
    (``{priority: requests}``); the per-class serving outcomes live in the
    merged workers' ``EngineMetrics.per_class`` buckets (see
    :meth:`ClusterFrontend.fleet_metrics`).
    """

    migrations: int = 0
    migrated_blocks: int = 0
    migrated_kv_bytes: float = 0.0
    migrated_disk_bytes: float = 0.0
    migration_seconds: float = 0.0
    routed_by_class: dict = field(default_factory=dict)

    # Read-only aliases under the pre-raw names, kept while
    # ``bench/adapters.py`` still reads them.
    migrated_kv_wire_bytes = property(lambda self: self.migrated_kv_bytes)
    migrated_disk_wire_bytes = property(lambda self: self.migrated_disk_bytes)

    def as_dict(self) -> dict:
        return {
            "migrations": self.migrations,
            "migrated_blocks": self.migrated_blocks,
            "migrated_kv_bytes": self.migrated_kv_bytes,
            "migrated_disk_bytes": self.migrated_disk_bytes,
            "migration_seconds": self.migration_seconds,
            "routed_by_class": dict(sorted(self.routed_by_class.items())),
        }


class ClusterFrontend:
    """Serving front-end over a fleet of engine replicas.

    Args:
        model: shared transformer substrate; weights are read-only, so one
            instance backs every worker.
        num_workers: replica count.
        placement: routing policy (see
            :data:`~repro.serve.cluster.ROUTING_POLICIES`).
        migrate_on_miss: ship spilled matching chains to the routed worker
            under cache-aware placement (billed, see module docstring).
        config: the :class:`~repro.serve.EngineConfig` every worker builds
            its own pool, swap tiers, prefix cache and clock from; by
            default one with a pool (cache-aware routing needs one).
        **keywords: shim — the pre-config options, with
            ``enable_prefix_caching`` defaulting to ``True``; not with
            ``config``.  ``slo_tuner`` is per-engine state and is rejected.
    """

    def __init__(
        self,
        model: TransformerLM,
        num_workers: int = 2,
        placement: str = "cache_aware",
        migrate_on_miss: bool = False,
        config: EngineConfig | None = None,
        **keywords,
    ) -> None:
        if num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        if "slo_tuner" in keywords:
            raise ConfigurationError("a fleet cannot share one SLOTuner: its "
                                     "window would mix every worker's requests")
        if keywords:
            keywords = {"enable_prefix_caching": True, **keywords}
        config = resolve_config(config, keywords, EngineConfig(pool=PoolConfig()))
        self.model = model
        self.router = Router(placement, migrate_on_miss=migrate_on_miss)
        self.workers: list[Worker] = [
            Worker(index, model, config)
            for index in range(num_workers)
        ]
        self.metrics = ClusterMetrics()
        #: request id → worker id, for output/abort routing
        self._assignment: dict[str, int] = {}
        #: routing decisions in submission order (introspection / tests)
        self.placements: list[Placement] = []

    # -------------------------------------------------------------- intake

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    @property
    def block_size(self) -> "int | None":
        allocator = self.workers[0].block_allocator
        return allocator.block_size if allocator is not None else None

    def submit(self, request: Request) -> str:
        """Route and enqueue one request; returns its id."""
        if request.request_id in self._assignment:
            raise ConfigurationError(
                f"duplicate request id {request.request_id!r}"
            )
        placement = self.router.place(
            request.prompt_ids,
            self.workers,
            block_size=self.block_size,
            priority=request.qos.priority,
            deadline=request.qos.deadline,
        )
        self.placements.append(placement)
        self.metrics.routed_by_class[request.qos.priority] = (
            self.metrics.routed_by_class.get(request.qos.priority, 0) + 1
        )
        worker = self.workers[placement.worker_id]
        worker.submit(request)
        self._assignment[request.request_id] = placement.worker_id
        if placement.migrate_from is not None:
            # After submit: the request's arrival is stamped on the target's
            # clock first, so the migration it waits on lands in its TTFT.
            self._migrate(placement, request.prompt_ids)
        return request.request_id

    def worker_of(self, request_id: str) -> Worker:
        """The worker a request was placed on."""
        try:
            return self.workers[self._assignment[request_id]]
        except KeyError:
            raise ConfigurationError(
                f"request {request_id!r} was never submitted to this cluster"
            ) from None

    # ----------------------------------------------------------- migration

    def _migrate(self, placement: Placement, prompt_ids) -> None:
        """Ship a spilled chain from its owner to the routed worker.

        Export copies the chain (spilled blocks ship their parked copies
        straight off the owner's NVMe — no restore on the source, and the
        parked copy stays valid); import writes each block exactly once
        into the target's pool, truncating gracefully under capacity
        pressure.  The transfer is billed to the *target* clock as an
        NVMe-read → PCIe-H2D timeline.  The router set ``migrate_from``
        from the owner's own cache a moment ago, so the chain is there.
        """
        source = self.workers[placement.migrate_from]
        target = self.workers[placement.worker_id]
        exported = source.prefix_cache.export_chain(prompt_ids)
        target.prefix_cache.import_chain(exported)
        block_bytes = target.pressure.block_nbytes()
        kv_bytes = float(exported.num_blocks * block_bytes)
        disk_bytes = (
            float(exported.disk_blocks * block_bytes)
            + float(exported.payload_nbytes())
        )
        seconds = target.pressure.bill_migration(kv_bytes, disk_bytes)
        self.metrics.migrations += 1
        self.metrics.migrated_blocks += exported.num_blocks
        self.metrics.migrated_kv_bytes += kv_bytes
        self.metrics.migrated_disk_bytes += disk_bytes
        self.metrics.migration_seconds += seconds

    # ------------------------------------------------------------- serving

    @property
    def has_unfinished(self) -> bool:
        return any(worker.has_unfinished for worker in self.workers)

    def step(self) -> list[RequestOutput]:
        """Advance every worker with pending work by one engine step."""
        outputs: list[RequestOutput] = []
        for worker in self.workers:
            if worker.has_unfinished:
                outputs.extend(worker.step())
        return outputs

    def run(
        self, requests: "Iterable[Request] | None" = None
    ) -> dict[str, RequestOutput]:
        """Submit ``requests`` (if given), drain the fleet, return finals."""
        if requests is not None:
            for request in requests:
                self.submit(request)
        finals: dict[str, RequestOutput] = {}
        while self.has_unfinished:
            for output in self.step():
                if output.finished:
                    finals[output.request_id] = output
        return finals

    def abort(self, request_id: str) -> RequestOutput:
        """Cancel an unfinished request on whichever worker holds it."""
        return self.worker_of(request_id).abort(request_id)

    def final_output(self, request_id: str) -> RequestOutput:
        """Final output of a finished request."""
        return self.worker_of(request_id).final_output(request_id)

    def release(self, request_id: str) -> None:
        """Drop a finished request's retained output on its worker."""
        self.worker_of(request_id).release(request_id)

    # ----------------------------------------------------------- reporting

    def fleet_metrics(self) -> EngineMetrics:
        """Fleet-aggregated engine counters.

        Per-worker snapshots merged into a fresh instance: counters sum,
        the clock takes the max (replicas run in parallel — the fleet
        makespan is the slowest worker, not the sum).
        """
        merged = EngineMetrics()
        for worker in self.workers:
            merged.merge(worker.metrics.snapshot())
        return merged

    def describe(self) -> dict:
        return {
            "num_workers": self.num_workers,
            "placement": self.router.policy,
            "migrate_on_miss": self.router.migrate_on_miss,
            "fleet": self.fleet_metrics().as_dict(),
            "migration": self.metrics.as_dict(),
            "workers": [worker.describe() for worker in self.workers],
        }
