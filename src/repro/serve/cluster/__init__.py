"""Multi-worker serving cluster over the single-engine stack.

PR 1–5 built one engine; this package scales it out: ``N``
:class:`Worker` replicas (each a full
:class:`~repro.serve.InferenceEngine`) behind a :class:`ClusterFrontend`,
with a :class:`Router` choosing placements (``round_robin`` /
``least_loaded`` / ``cache_aware``).  Cache-aware routing
hashes a prompt once and asks every worker's own prefix cache how much of
it is resident or spilled there, so conversation turns land on the worker
already holding their prefix; ``migrate_on_miss`` ships spilled
chains between workers' tiers, billed as NVMe+PCIe timeline traffic.
Placement changes only the simulated clock — tokens and logits are
byte-identical to a single-worker run for every policy and worker count.

Typical use::

    from repro.serve.cluster import ClusterFrontend

    cluster = ClusterFrontend(model, num_workers=4, placement="cache_aware")
    cluster.submit(request)
    finals = cluster.run()
    print(cluster.fleet_metrics().as_dict())
"""

from .frontend import ClusterFrontend, ClusterMetrics
from .router import ROUTING_POLICIES, Placement, Router
from .worker import Worker

__all__ = [
    "ClusterFrontend",
    "ClusterMetrics",
    "Placement",
    "ROUTING_POLICIES",
    "Router",
    "Worker",
]
