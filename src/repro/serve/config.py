"""One validated configuration for an engine, a worker and a fleet.

PQCache's serving state is one storage hierarchy (paper §3.1): a GPU block
pool, a CPU tier that holds the full KV, and a disk tier.  :class:`PoolConfig`
spells it as one value; :class:`EngineConfig` adds the scheduler, the clock
model and the retention bound.  Every engine has a pool: the default
``PoolConfig()`` is unbounded, and every request's KV — computed or brought
as a precomputed prefill — lives in its blocks.  Both are frozen and
validate at construction; one config may back many engines, each building
its own allocator, swap tiers and prefix cache from it.

:func:`config_from_keywords` is a shim: the pre-config keyword spelling that
``bench/adapters.py`` still passes to ``InferenceEngine`` and
``ClusterFrontend`` (``ROADMAP.md`` names it under Rules).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..memory.latency import LatencyModel
from .scheduler import SchedulerConfig

__all__ = ["EngineConfig", "PoolConfig", "config_from_keywords", "resolve_config"]


@dataclass(frozen=True)
class PoolConfig:
    """The paged block pool and the swap tiers behind it.

    Attributes:
        block_size: tokens per KV block (prefix-match granularity).
        blocks: GPU pool bound; ``None`` grows on demand.  A dry pool first
            evicts/spills cold prefix chains, then preempts
            (``SchedulerConfig.preemption_mode``).
        cpu_blocks: CPU swap-tier capacity (``None``: unbounded); when full,
            its oldest parked chains demote to disk.
        disk_blocks: disk-tier capacity for swap overflow and spilled prefix
            chains (``None``: unbounded).
    """

    block_size: int = 64
    blocks: int | None = None
    cpu_blocks: int | None = None
    disk_blocks: int | None = None

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ConfigurationError("block_size must be positive")
        if self.blocks is not None and self.blocks <= 0:
            raise ConfigurationError("blocks must be positive or None")
        for name in ("cpu_blocks", "disk_blocks"):
            if getattr(self, name) is not None and getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0 or None")


@dataclass(frozen=True)
class EngineConfig:
    """Everything an :class:`~repro.serve.InferenceEngine` is built from
    besides the model.

    Attributes:
        scheduler: batching, prefill-chunking, preemption and QoS knobs.
        pool: paged pool, swap tiers and the prefix cache over them; the
            default is unbounded (nothing is ever preempted or evicted).
        latency_model: the simulated clock's model; ``None`` builds one per
            engine from the paper's testbed and the model's geometry.
        max_retained_outputs: finished outputs kept beyond this count are
            evicted oldest first; ``None`` retains everything.
    """

    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    pool: PoolConfig = field(default_factory=PoolConfig)
    latency_model: LatencyModel | None = None
    max_retained_outputs: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.scheduler, SchedulerConfig):
            raise ConfigurationError("scheduler must be a SchedulerConfig")
        if not isinstance(self.pool, PoolConfig):
            raise ConfigurationError("pool must be a PoolConfig")
        if not isinstance(self.latency_model, (LatencyModel, type(None))):
            raise ConfigurationError("latency_model must be a LatencyModel or None")
        if self.max_retained_outputs is not None and self.max_retained_outputs < 0:
            raise ConfigurationError("max_retained_outputs must be >= 0 or None")


def config_from_keywords(
    *,
    scheduler_config: SchedulerConfig | None = None,
    latency_model: LatencyModel | None = None,
    max_retained_outputs: int | None = None,
    enable_prefix_caching: bool = False,
    kv_block_size: int = 64,
    kv_pool_blocks: int | None = None,
    swap_cpu_blocks: int | None = None,
    swap_disk_blocks: int | None = None,
) -> EngineConfig:
    """Shim: the pre-config keywords as an :class:`EngineConfig`.

    ``enable_prefix_caching`` sizes ``pool`` from the other options.  Without
    it the pool is the default ``PoolConfig()``: ``kv_block_size`` is
    ignored and any other pool option raises.
    """
    pool = PoolConfig()
    if enable_prefix_caching:
        pool = PoolConfig(kv_block_size, kv_pool_blocks, swap_cpu_blocks,
                          swap_disk_blocks)
    else:
        given = {"kv_pool_blocks": kv_pool_blocks, "swap_cpu_blocks": swap_cpu_blocks,
                 "swap_disk_blocks": swap_disk_blocks}
        ignored = [name for name, value in given.items() if value is not None]
        if ignored:
            raise ConfigurationError(
                f"pool options {', '.join(ignored)} need "
                "enable_prefix_caching=True: without it there is no pool"
            )
    return EngineConfig(scheduler_config or SchedulerConfig(), pool,
                        latency_model, max_retained_outputs)


def resolve_config(
    config: EngineConfig | None, keywords: dict, default: EngineConfig
) -> EngineConfig:
    """``config``; else the shim's reading of ``keywords``; else ``default``."""
    if keywords:
        if config is not None:
            raise ConfigurationError(
                "pass an EngineConfig or keyword options, not both "
                f"(got config and {', '.join(sorted(keywords))})"
            )
        return config_from_keywords(**keywords)
    if config is None:
        return default
    if not isinstance(config, EngineConfig):
        raise ConfigurationError(
            f"config must be an EngineConfig, got {type(config).__name__}"
        )
    return config
