"""Tests for ``repro.serve.config``: one validated config for engine, worker
and fleet, and the keyword shim that still builds it.

* every invalid field value is rejected when the config is written, and the
  pool fields reject exactly what ``BlockAllocator`` / ``SwapSpace`` reject;
* the keyword spelling and the config give the same engine: scheduler
  config, pool geometry and tokens;
* a fleet builds every worker from one config, each with its own pool;
* a deleted option fails loudly, as a field or as a shim keyword.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines import SelectionBudget
from repro.errors import ConfigurationError
from repro.llm.kvcache import BlockAllocator, SwapSpace
from repro.memory import HardwareSpec, LatencyModel
from repro.serve import (
    ClusterFrontend,
    EngineConfig,
    InferenceEngine,
    PolicySpec,
    PoolConfig,
    Request,
    SamplingParams,
    SchedulerConfig,
)
from repro.serve.config import config_from_keywords

BUDGET = SelectionBudget(token_ratio=0.25, num_initial=4, num_local=16)


def _allocator(**options) -> BlockAllocator:
    return BlockAllocator(2, 2, 8, **options)


# ------------------------------------------------------------- validation

#: (PoolConfig field, invalid value, the pre-config class that rejects it)
POOL_INVALID = [
    ("block_size", 0, lambda v: _allocator(block_size=v)),
    ("block_size", -16, lambda v: _allocator(block_size=v)),
    ("blocks", 0, lambda v: _allocator(capacity_blocks=v)),
    ("blocks", -1, lambda v: _allocator(capacity_blocks=v)),
    ("cpu_blocks", -1, lambda v: SwapSpace(_allocator(), cpu_capacity_blocks=v)),
    ("disk_blocks", -1, lambda v: SwapSpace(_allocator(), disk_capacity_blocks=v)),
]


@pytest.mark.parametrize(
    "field, value, mirror", POOL_INVALID,
    ids=[f"{field}={value!r}" for field, value, _ in POOL_INVALID],
)
def test_pool_config_rejects(field, value, mirror):
    with pytest.raises(ConfigurationError, match=field):
        PoolConfig(**{field: value})
    with pytest.raises(ConfigurationError):
        mirror(value)


@pytest.mark.parametrize("options", [
    {"blocks": 1}, {"cpu_blocks": 0}, {"disk_blocks": 0},
    {"block_size": 1, "blocks": None},
], ids=lambda options: ",".join(options))
def test_pool_config_accepts_boundaries(options):
    PoolConfig(**options)


ENGINE_INVALID = [
    ("scheduler", None),
    ("scheduler", {"max_batch_size": 2}),
    ("pool", True),  # the old enable_prefix_caching=True, misplaced
    ("pool", {"block_size": 16}),
    ("latency_model", "paper_testbed"),
    ("max_retained_outputs", -1),
]


@pytest.mark.parametrize(
    "field, value", ENGINE_INVALID,
    ids=[f"{field}={value!r}" for field, value in ENGINE_INVALID],
)
def test_engine_config_rejects(field, value):
    with pytest.raises(ConfigurationError, match=field):
        EngineConfig(**{field: value})


def test_configs_are_frozen():
    config = EngineConfig(pool=PoolConfig())
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.pool = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.pool.blocks = 4


def test_engine_rejects_a_non_config(model):
    """The second positional argument used to be the scheduler config."""
    with pytest.raises(ConfigurationError, match="EngineConfig"):
        InferenceEngine(model, SchedulerConfig())


# ------------------------------------------------------------ the engine


def test_default_config_has_an_unbounded_pool(model):
    """Every engine owns its pool, swap tiers, prefix cache and pressure
    ladder; there is no pool-less engine to configure."""
    engine = InferenceEngine(model, EngineConfig())
    assert EngineConfig().pool == PoolConfig()
    assert engine.block_allocator.capacity_blocks is None
    assert engine.block_allocator.block_size == PoolConfig().block_size
    assert engine.swap_space.cpu_capacity_blocks is None
    assert engine.prefix_cache.allocator is engine.block_allocator
    assert engine.pressure.allocator is engine.block_allocator
    with pytest.raises(ConfigurationError, match="PoolConfig"):
        EngineConfig(pool=None)


def test_pool_config_sets_pool_geometry(model):
    engine = InferenceEngine(
        model,
        EngineConfig(pool=PoolConfig(block_size=16, blocks=8, cpu_blocks=3,
                                     disk_blocks=5)),
    )
    assert engine.block_allocator.block_size == 16
    assert engine.block_allocator.capacity_blocks == 8
    assert engine.swap_space.cpu_capacity_blocks == 3
    assert engine.swap_space.disk_capacity_blocks == 5
    assert engine.prefix_cache is not None and engine.pressure is not None


def test_latency_model_and_retention_are_used(model, tiny_config):
    latency = LatencyModel(HardwareSpec.paper_testbed(), tiny_config)
    engine = InferenceEngine(
        model, EngineConfig(latency_model=latency, max_retained_outputs=0)
    )
    assert engine.latency is latency
    request = Request(prompt_ids=list(range(4, 80)),
                      sampling=SamplingParams(max_new_tokens=1))
    engine.run([request])
    with pytest.raises(ConfigurationError):
        engine.final_output(request.request_id)  # retention 0: not kept


# ----------------------------------------------------- keywords vs config

KEYWORDS = dict(
    scheduler_config=SchedulerConfig(max_batch_size=2,
                                     max_prefill_chunk_tokens=64),
    enable_prefix_caching=True,
    kv_block_size=16,
    kv_pool_blocks=24,
    swap_cpu_blocks=6,
    swap_disk_blocks=None,
    max_retained_outputs=4,
)
CONFIG = EngineConfig(
    scheduler=SchedulerConfig(max_batch_size=2, max_prefill_chunk_tokens=64),
    pool=PoolConfig(block_size=16, blocks=24, cpu_blocks=6),
    max_retained_outputs=4,
)


def _chat_turns(tiny_config):
    rng = np.random.default_rng(3)
    shared = rng.integers(4, tiny_config.vocab_size, size=96).tolist()
    return [
        shared + rng.integers(4, tiny_config.vocab_size, size=n).tolist()
        for n in (16, 40, 24)
    ]


def _serve(engine, prompts):
    """Serve the prompts one after another, so later ones hit the cache."""
    outputs = []
    for prompt in prompts:
        request = Request(prompt_ids=prompt,
                          sampling=SamplingParams(max_new_tokens=3),
                          policy_spec=PolicySpec.named("pqcache", BUDGET))
        outputs.append(engine.run([request])[request.request_id])
    return outputs


def test_keyword_spelling_builds_the_same_config():
    assert config_from_keywords(**KEYWORDS) == CONFIG
    assert config_from_keywords() == EngineConfig()


def test_keywords_and_config_give_the_same_engine(model, tiny_config):
    by_keywords = InferenceEngine(model, **KEYWORDS)
    by_config = InferenceEngine(model, CONFIG)
    assert by_keywords.config == by_config.config
    assert by_keywords.scheduler.config == by_config.scheduler.config
    for engine in (by_keywords, by_config):
        assert engine.block_allocator.block_size == 16
        assert engine.block_allocator.capacity_blocks == 24
        assert engine.swap_space.cpu_capacity_blocks == 6
        assert engine.swap_space.disk_capacity_blocks is None

    prompts = _chat_turns(tiny_config)
    keyword_outs = _serve(by_keywords, prompts)
    config_outs = _serve(by_config, prompts)
    assert keyword_outs[-1].metrics.cached_prefix_tokens > 0  # reuse ran
    for a, b in zip(keyword_outs, config_outs):
        assert a.token_ids == b.token_ids
        assert np.array_equal(a.logits, b.logits)
        assert a.metrics.cached_prefix_tokens == b.metrics.cached_prefix_tokens
    assert by_keywords.metrics.clock == by_config.metrics.clock


def test_config_and_keywords_together_rejected(model):
    with pytest.raises(ConfigurationError, match="not both"):
        InferenceEngine(model, EngineConfig(), kv_block_size=16)
    with pytest.raises(ConfigurationError, match="not both"):
        ClusterFrontend(model, config=EngineConfig(), kv_pool_blocks=8)


def test_unknown_keyword_rejected(model):
    with pytest.raises(TypeError):
        InferenceEngine(model, enable_prefix_cache=True)


# --------------------------------------------------------------- the fleet


def test_fleet_gives_every_worker_the_config_and_its_own_pool(model):
    config = EngineConfig(
        scheduler=SchedulerConfig(max_batch_size=3),
        pool=PoolConfig(block_size=16, blocks=32),
    )
    cluster = ClusterFrontend(model, num_workers=3, config=config)
    assert [worker.config for worker in cluster.workers] == [config] * 3
    for part in ("block_allocator", "swap_space", "prefix_cache", "pressure",
                 "metrics", "scheduler"):
        parts = [getattr(worker, part) for worker in cluster.workers]
        assert len({id(p) for p in parts}) == 3, part
    for worker in cluster.workers:
        assert worker.block_allocator.block_size == 16
        assert worker.block_allocator.capacity_blocks == 32
    assert cluster.block_size == 16


def test_fleet_default_has_a_pool(model):
    default = ClusterFrontend(model)
    assert all(worker.config == EngineConfig(pool=PoolConfig())
               for worker in default.workers)
    # the keyword shim keeps the old default, and can still turn it off
    keyworded = ClusterFrontend(model, scheduler_config=SchedulerConfig())
    assert keyworded.workers[0].config == EngineConfig(pool=PoolConfig())
    # without it the workers get the default pool, not its keyword sizes
    uncached = ClusterFrontend(model, enable_prefix_caching=False,
                               kv_block_size=16)
    assert uncached.workers[0].config == EngineConfig()
    assert uncached.block_size == PoolConfig().block_size


# ------------------------------------------------------- deleted options

#: (config class, field) of options that no longer exist
DELETED_FIELDS = [
    (SchedulerConfig, "victim_policy", "fifo"),
    (SchedulerConfig, "max_waiting", 4),
    (SchedulerConfig, "shed_infeasible", True),
    (PoolConfig, "cache_decoded_blocks", True),
]


@pytest.mark.parametrize(
    "config, name, value", DELETED_FIELDS,
    ids=[f"{config.__name__}.{name}" for config, name, _ in DELETED_FIELDS],
)
def test_deleted_field_rejected(config, name, value):
    with pytest.raises(TypeError, match=name):
        config(**{name: value})


@pytest.mark.parametrize("build", [InferenceEngine, ClusterFrontend],
                         ids=lambda build: build.__name__)
@pytest.mark.parametrize("name", ["cache_decoded_blocks", "slo_tuner"])
def test_deleted_keyword_rejected(model, build, name):
    """The shim forwards only the keywords it knows, so a deleted one
    raises instead of building an engine that silently ignores it."""
    with pytest.raises(TypeError, match=name):
        build(model, **{name: True})
