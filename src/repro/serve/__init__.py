"""Request-centric serving engine with continuous batching.

This package is the serving front-end of the reproduction: it turns the
single-sequence policy stack (model substrate + KVCache policies) into an
engine that admits concurrent :class:`Request` objects, interleaves their
decode rounds, streams tokens incrementally, and accounts simulated
wall-clock through the analytical latency models.  With a
:class:`PoolConfig` requests draw their KVCache from a shared paged block
pool and the :class:`PrefixCache` reuses common prompt prefixes — KV blocks,
accumulated-score snapshots and PQ artifacts — across requests (see
``docs/architecture.md``).

Typical use::

    from repro.serve import (EngineConfig, InferenceEngine, PolicySpec,
                             PoolConfig, Request, SamplingParams)

    engine = InferenceEngine(model, EngineConfig(pool=PoolConfig()))
    engine.submit(Request(prompt_ids=prompt,
                          sampling=SamplingParams(max_new_tokens=16),
                          policy_spec=PolicySpec.named("pqcache", budget)))
    for output in engine.stream():
        ...  # output.new_token_ids arrive as they are generated
"""

from .cluster import (
    ClusterFrontend,
    ClusterMetrics,
    Placement,
    Router,
    Worker,
)
from .config import EngineConfig, PoolConfig
from .engine import InferenceEngine
from .metrics import EngineMetrics, QoSClassMetrics, QuantileDigest, RequestMetrics
from .prefix_cache import (
    ExportedChain,
    ExportedChainNode,
    PrefixCache,
    PrefixCacheStats,
    PrefixCoverage,
    PrefixMatch,
    chain_block_keys,
)
from .pressure import PoolPressure
from .replay import Replay, replay
from .request import (
    PolicySpec,
    Request,
    RequestOutput,
    RequestQoS,
    RequestStatus,
    SamplingParams,
    SelectionHook,
    StepSelections,
)
from .scheduler import ContinuousBatchingScheduler, SchedulerConfig, SchedulingDecision
from .slo import SLOTuner

__all__ = [
    "InferenceEngine",
    "EngineConfig",
    "PoolConfig",
    "ClusterFrontend",
    "ClusterMetrics",
    "Placement",
    "Router",
    "Worker",
    "EngineMetrics",
    "QoSClassMetrics",
    "QuantileDigest",
    "RequestMetrics",
    "SLOTuner",
    "Replay",
    "replay",
    "PoolPressure",
    "PrefixCache",
    "PrefixCacheStats",
    "PrefixCoverage",
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
