"""Request-centric serving engine with continuous batching.

This package is the serving front-end of the reproduction: it turns the
single-sequence policy stack (model substrate + KVCache policies) into an
engine that admits concurrent :class:`Request` objects, interleaves their
decode rounds, streams tokens incrementally, and accounts simulated
wall-clock through the analytical latency models.  With
``enable_prefix_caching=True`` requests draw their KVCache from a shared
paged block pool and the :class:`PrefixCache` reuses common prompt prefixes
— KV blocks, accumulated-score snapshots and PQ artifacts — across requests
(see ``docs/architecture.md``).

Typical use::

    from repro.serve import InferenceEngine, PolicySpec, Request, SamplingParams

    engine = InferenceEngine(model, enable_prefix_caching=True)
    engine.submit(Request(prompt_ids=prompt,
                          sampling=SamplingParams(max_new_tokens=16),
                          policy_spec=PolicySpec.named("pqcache", budget)))
    for output in engine.stream():
        ...  # output.new_token_ids arrive as they are generated
"""

from ..llm.generation import StepSelections
from .cluster import (
    ClusterFrontend,
    ClusterMetrics,
    FingerprintDirectory,
    Placement,
    Router,
    Worker,
)
from .engine import InferenceEngine
from .metrics import EngineMetrics, QoSClassMetrics, QuantileDigest, RequestMetrics
from .prefix_cache import (
    ExportedChain,
    ExportedChainNode,
    PrefixCache,
    PrefixCacheStats,
    PrefixMatch,
    chain_block_keys,
)
from .pressure import PoolPressure
from .request import (
    PolicySpec,
    Request,
    RequestOutput,
    RequestQoS,
    RequestStatus,
    SamplingParams,
    SelectionHook,
)
from .scheduler import ContinuousBatchingScheduler, SchedulerConfig, SchedulingDecision
from .slo import SLOTuner

__all__ = [
    "InferenceEngine",
    "ClusterFrontend",
    "ClusterMetrics",
    "FingerprintDirectory",
    "Placement",
    "Router",
    "Worker",
    "EngineMetrics",
    "QoSClassMetrics",
    "QuantileDigest",
    "RequestMetrics",
    "SLOTuner",
    "PoolPressure",
    "PrefixCache",
    "PrefixCacheStats",
    "PrefixMatch",
    "ExportedChain",
    "ExportedChainNode",
    "chain_block_keys",
    "PolicySpec",
    "Request",
    "RequestOutput",
    "RequestQoS",
    "RequestStatus",
    "SamplingParams",
    "SelectionHook",
    "ContinuousBatchingScheduler",
    "SchedulerConfig",
    "SchedulingDecision",
    "StepSelections",
]
