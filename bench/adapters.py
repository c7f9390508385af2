"""The benchmark's only contact with the program under test.

Every import from ``repro`` and every constructor call lives in this file, so
a change to the program's construction surface (the ROADMAP's ``EngineConfig``)
is a one-file change here.  The rest of ``bench/`` sees models, engines,
requests and arrival events only through the functions below.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.baselines import SelectionBudget
from repro.core import PQCacheConfig
from repro.llm import KVCache, ModelConfig, PrefillResult, TransformerLM
from repro.serve import (
    ClusterFrontend,
    InferenceEngine,
    PolicySpec,
    Request,
    RequestQoS,
    SamplingParams,
    SchedulerConfig,
)
from repro.utils import topk_indices
from repro.workloads import (
    ArrivalEvent,
    Conversation,
    bursty_arrivals,
    merge_arrivals,
    multi_turn_conversation,
    poisson_arrivals,
    random_deadlines,
    tag_arrivals,
    tag_deadlines,
)

from .trace import Target

__all__ = [
    "ClusterTarget",
    "EngineTarget",
    "RecallProbe",
    "TRACE_TARGETS",
    "build_cluster",
    "build_engine",
    "build_model",
    "build_request",
    "chat_arrivals",
    "chat_population",
    "merge_arrivals",
    "paper_decomposition",
    "pqcache_policy",
    "qos",
    "reference_engine",
    "stampede_arrivals",
    "synth_prefill",
]

#: reserved attention segments used by every benchmark policy (the values of
#: ``benchmarks/conftest.py::make_budget``)
NUM_INITIAL = 4
NUM_LOCAL = 16


# ---------------------------------------------------------------- building


def build_model(
    *, layers: int, hidden: int, heads: int, kv_heads: int, name: str
) -> TransformerLM:
    config = ModelConfig(
        num_layers=layers, hidden_dim=hidden, num_heads=heads,
        num_kv_heads=kv_heads, ffn_dim=2 * hidden, vocab_size=512,
        max_context=65536, name=name,
    )
    return TransformerLM(config, seed=0)


def pqcache_policy(
    *, token_ratio: float, kmeans_iters: int, gpu_cache_tokens: int
) -> PolicySpec:
    """PQCache at the paper's LongBench setting (m=2, b=6)."""
    budget = SelectionBudget(
        token_ratio=token_ratio, comm_ratio=1.0 / 128.0,
        num_initial=NUM_INITIAL, num_local=NUM_LOCAL,
    )
    pq_config = PQCacheConfig(
        num_partitions=2, num_bits=6, max_kmeans_iters=kmeans_iters,
        gpu_cache_tokens=gpu_cache_tokens,
    )
    return PolicySpec.named("pqcache", budget, pq_config=pq_config)


def _scheduler(
    max_batch: int, chunk: "int | None", *, prefills_per_step: "int | None" = None,
    proactive_swap: "float | None" = None,
) -> SchedulerConfig:
    return SchedulerConfig(
        max_batch_size=max_batch,
        max_prefills_per_step=prefills_per_step or 2,
        max_prefill_chunk_tokens=chunk,
        preemption_mode="swap",
        proactive_swap_free_fraction=proactive_swap,
        shed_missed_deadlines=True,
    )


def build_engine(
    model: TransformerLM,
    *,
    max_batch: int,
    chunk: "int | None" = None,
    prefills_per_step: "int | None" = None,
    prefix_caching: bool = False,
    block_size: int = 16,
    pool_blocks: "int | None" = None,
    proactive_swap: "float | None" = None,
) -> InferenceEngine:
    """One serving engine; finished outputs are not retained (the harness
    keeps what it needs from the outputs ``step`` returns)."""
    return InferenceEngine(
        model,
        scheduler_config=_scheduler(
            max_batch, chunk, prefills_per_step=prefills_per_step,
            proactive_swap=proactive_swap,
        ),
        enable_prefix_caching=prefix_caching,
        kv_block_size=block_size,
        kv_pool_blocks=pool_blocks,
        max_retained_outputs=0,
    )


def build_cluster(
    model: TransformerLM,
    *,
    workers: int,
    max_batch: int,
    chunk: int,
    block_size: int,
    pool_blocks: int,
) -> ClusterFrontend:
    return ClusterFrontend(
        model,
        num_workers=workers,
        placement="cache_aware",
        migrate_on_miss=True,
        scheduler_config=_scheduler(max_batch, chunk),
        kv_block_size=block_size,
        kv_pool_blocks=pool_blocks,
        max_retained_outputs=0,
    )


def reference_engine(model: TransformerLM, chunk: "int | None") -> InferenceEngine:
    """Fresh unbounded engine a sampled request is replayed on, alone.

    Default-constructed except for the prefill chunk size: PQCache builds its
    index from the chunk hooks (sketch fit → stream encode → refine), which a
    monolithic prefill never calls, so chunked and monolithic runs of one
    request may legitimately pick different tokens.  Any chunk size gives the
    same index; no chunking at all does not.
    """
    if chunk is None:
        return InferenceEngine(model)
    return InferenceEngine(
        model, scheduler_config=SchedulerConfig(max_prefill_chunk_tokens=chunk)
    )


def qos(*, priority: int, tenant: str, weight: float,
        deadline: "float | None" = None) -> RequestQoS:
    return RequestQoS(priority=priority, tenant=tenant, weight=weight,
                      deadline=deadline)


def build_request(
    request_id: str,
    prompt_ids: "list[int]",
    max_new_tokens: int,
    policy: "PolicySpec | None",
    *,
    prefill: "PrefillResult | None" = None,
    request_qos: "RequestQoS | None" = None,
    selection_hook=None,
) -> Request:
    return Request(
        request_id=request_id,
        prompt_ids=prompt_ids,
        sampling=SamplingParams(max_new_tokens=max_new_tokens),
        policy_spec=policy,
        prefill=prefill,
        selection_hook=selection_hook,
        qos=request_qos or RequestQoS(),
    )


def synth_prefill(model: TransformerLM, seq_len: int, seed: int) -> PrefillResult:
    """A precomputed prefill over random keys and values (the idiom of
    ``benchmarks/test_decode_batching.py``): prefilling 16k tokens through the
    causal substrate would dwarf the decode phase being measured."""
    config = model.config
    rng = np.random.default_rng(seed)
    cache = KVCache(config.num_layers, config.num_kv_heads, config.head_dim)
    shape = (config.num_kv_heads, seq_len, config.head_dim)
    for layer in range(config.num_layers):
        cache[layer].append(rng.standard_normal(shape), rng.standard_normal(shape))
    return PrefillResult(
        kvcache=cache,
        last_hidden=np.zeros(config.hidden_dim),
        logits=rng.standard_normal(config.vocab_size),
        aggregates=[],
        prompt_queries=None,
        seq_len=seq_len,
    )


# ----------------------------------------------------------------- traffic


def chat_population(
    *, users: int, apps: int, turns: int, system_tokens: int, turn_tokens: int,
    seed: int,
) -> "list[Conversation]":
    """One scripted conversation per user; users of one app share its system
    prompt, so their prompts share a ``system_tokens`` prefix.

    App popularity is skewed (app ``a`` of ``A`` gets ``A - a`` users in every
    ``A(A+1)/2``), as real prompt popularity is: the worker or cache slot that
    holds the popular prefix runs hotter than the rest.
    """
    systems = [
        multi_turn_conversation(
            num_turns=1, system_tokens=system_tokens, turn_tokens=turn_tokens,
            seed=[seed, 0, app],
        ).system_ids
        for app in range(apps)
    ]
    popularity = [app for app in range(apps) for _ in range(apps - app)]
    return [
        Conversation(
            system_ids=systems[popularity[user % len(popularity)]],
            turn_ids=multi_turn_conversation(
                num_turns=turns, system_tokens=turn_tokens + turns,
                turn_tokens=turn_tokens, seed=[seed, 1, user],
            ).turn_ids,
        )
        for user in range(users)
    ]


def _fit_horizon(events: "list[ArrivalEvent]", horizon: float) -> "list[ArrivalEvent]":
    """Rescale a trace so its last arrival lands on ``horizon``.

    A Poisson process conditioned on its count over a window is that many
    uniform points in the window, so this keeps the generator's interleaving
    and burstiness while holding the offered rate at the frozen value for
    every seed — the rate, not the seed, sets the operating point.
    """
    scale = horizon / events[-1].time
    return [replace(event, time=event.time * scale) for event in events]


def chat_arrivals(
    *, users: int, turns: int, rate: float, seed: int, tenant: str, priority: int,
) -> "list[ArrivalEvent]":
    """Poisson arrivals of exactly ``turns`` turns for each of ``users``."""
    count = users * turns
    events = poisson_arrivals(count, rate=rate, seed=[seed, 2])
    order = np.random.default_rng([seed, 3]).permutation(np.repeat(np.arange(users), turns))
    seen = [0] * users
    assigned = []
    for event, user in zip(events, order.tolist()):
        assigned.append(replace(event, user=user, turn=seen[user]))
        seen[user] += 1
    return tag_arrivals(_fit_horizon(assigned, count / rate), tenant, priority)


def stampede_arrivals(
    *, bursts: int, burst_size: int, horizon: float, spread: float, seed: int,
    tenant: str, priority: int, deadline: "float | None" = None,
    urgent: "tuple[float, float, float] | None" = None,
) -> "list[ArrivalEvent]":
    """``bursts`` stampedes of ``burst_size`` arrivals over ``horizon``
    simulated seconds; the event's ``turn`` is its burst and its ``user`` its
    (shuffled) place in the burst.

    Each burst is one ``bursty_arrivals`` stampede; an arrival trails the
    onset by ``spread`` of the horizon's ``bursts``-th slice on average.
    Onsets are stratified — burst
    ``i`` starts somewhere in the middle half of the ``i``-th slice — so
    whether two stampedes collide is a property of the workload, not of the
    seed.  ``deadline`` tags every event with one relative completion
    deadline; ``urgent=(share, low, high)`` then gives that share of them a
    tight one drawn uniformly from ``[low, high)``, so EDF has an order to
    impose and an urgent request that finds every slot taken is shed.
    """
    rng = np.random.default_rng([seed, 4])
    slice_len = horizon / bursts
    events: list[ArrivalEvent] = []
    for burst in range(bursts):
        stampede = bursty_arrivals(
            1, burst_size, within_burst_rate=1.0 / (spread * slice_len),
            seed=[seed, 4, burst],
        )
        onset = (burst + rng.uniform(0.25, 0.75)) * slice_len - stampede[0].time
        users = rng.permutation(burst_size).tolist()
        events.extend(
            replace(event, time=event.time + onset, user=user, turn=burst)
            for user, event in zip(users, stampede)
        )
    events = tag_arrivals(events, tenant, priority)
    if deadline is not None:
        events = tag_deadlines(events, deadline)
    if urgent is not None:
        share, low, high = urgent
        events = random_deadlines(events, low, high, fraction=share, seed=[seed, 6])
    return events


# ----------------------------------------------------------------- targets


_ENGINE_COUNTERS = (
    "steps", "requests_submitted", "requests_finished", "requests_aborted",
    "requests_shed", "deadline_misses", "prefills", "prefill_chunks",
    "decode_rounds", "generated_tokens", "prefix_cache_queries",
    "prefix_cache_hits", "prefix_cache_hit_tokens", "prefix_prompt_tokens",
    "preemptions_swap", "preemptions_recompute", "proactive_swap_outs",
    "swap_out_blocks", "swap_in_blocks", "swap_out_bytes", "swap_in_bytes",
    "spill_out_bytes", "spill_in_bytes", "swap_out_wire_bytes",
    "swap_in_wire_bytes", "spill_out_wire_bytes", "spill_in_wire_bytes",
    "swap_seconds", "decode_batch_rounds", "decode_batch_requests",
    "decode_score_seconds", "decode_topk_seconds", "decode_gather_seconds",
    "decode_attention_seconds",
)
_PREFIX_COUNTERS = ("restored_blocks", "spilled_blocks", "evicted_blocks",
                    "exported_blocks", "imported_blocks")
_CLUSTER_COUNTERS = ("migrations", "migrated_kv_wire_bytes",
                     "migrated_disk_wire_bytes", "migration_seconds")


class EngineTarget:
    """What the replay loop and the metrics need from one engine."""

    def __init__(self, engine, engines: "list[InferenceEngine] | None" = None) -> None:
        self.engine = engine
        self.engines = engines or [engine]

    def submit(self, request: Request) -> None:
        self.engine.submit(request)

    def step(self) -> list:
        return self.engine.step()

    @property
    def has_unfinished(self) -> bool:
        return self.engine.has_unfinished

    def now(self) -> float:
        return self.engine.metrics.clock

    def advance_to(self, time: float) -> None:
        """Fast-forward the simulated clock over an idle gap."""
        for engine in self.engines:
            engine.metrics.clock = max(engine.metrics.clock, time)

    def clock_of(self, request_id: str) -> float:
        return self.engine.metrics.clock

    def makespan(self) -> float:
        return max(engine.metrics.clock for engine in self.engines)

    def pool_used_share(self) -> "float | None":
        """Allocated ÷ capacity over the bounded pools, ``None`` if unbounded."""
        used = capacity = 0
        for engine in self.engines:
            allocator = engine.block_allocator
            if allocator is None or allocator.capacity_blocks is None:
                return None
            used += allocator.num_allocated
            capacity += allocator.capacity_blocks
        return used / capacity

    def counters(self) -> dict:
        """Flat counter snapshot of the drained target (fleet counters summed)."""
        out: dict = dict.fromkeys(
            _ENGINE_COUNTERS + _PREFIX_COUNTERS + _CLUSTER_COUNTERS
            + ("placements", "affinity_placements"), 0)
        for engine in self.engines:
            for name in _ENGINE_COUNTERS:
                out[name] += getattr(engine.metrics, name)
            if engine.prefix_cache is not None:
                for name in _PREFIX_COUNTERS:
                    out[name] += getattr(engine.prefix_cache.stats, name)
        clocks = [engine.metrics.clock for engine in self.engines]
        out["clock_skew"] = max(clocks) - min(clocks)
        generated = [engine.metrics.generated_tokens for engine in self.engines]
        out["load_imbalance"] = max(generated) / (sum(generated) / len(generated) or 1.0)
        return out


class ClusterTarget(EngineTarget):
    """The same surface over a fleet.

    Fleet time is the smallest clock among workers with unfinished work (all
    workers when none has any); idle workers are advanced to it so a request
    routed to one is not stamped in the past.
    """

    def __init__(self, cluster: ClusterFrontend) -> None:
        super().__init__(cluster, list(cluster.workers))
        self.cluster = cluster

    def now(self) -> float:
        busy = [w.metrics.clock for w in self.engines if w.has_unfinished]
        now = min(busy or [w.metrics.clock for w in self.engines])
        for worker in self.engines:
            if not worker.has_unfinished:
                worker.metrics.clock = max(worker.metrics.clock, now)
        return now

    def clock_of(self, request_id: str) -> float:
        return self.cluster.worker_of(request_id).metrics.clock

    def counters(self) -> dict:
        out = super().counters()
        for name in _CLUSTER_COUNTERS:
            out[name] = getattr(self.cluster.metrics, name)
        out["placements"] = len(self.cluster.placements)
        out["affinity_placements"] = sum(
            1 for placement in self.cluster.placements if placement.matched_tokens > 0)
        return out


# -------------------------------------------------------- recall (oracle)


class RecallProbe:
    """``Request.selection_hook`` measuring PQ retrieval recall.

    At every ``every``-th selection call it compares, per KV head, the middle
    tokens PQ picked with the exact top-k by true key score.  Used only in
    the correctness pass, never in a timed run.
    """

    def __init__(self, policy: PolicySpec, prompt_len: int, every: int) -> None:
        self.budget = policy.budget
        self.k = policy.budget.middle_budget(prompt_len)
        self.every = every
        self.calls = 0
        self.recalls: list[float] = []

    def __call__(self, layer_index, query, kvcache, selected) -> None:
        self.calls += 1
        if selected is None or self.calls % self.every:
            return
        keys = kvcache[layer_index].keys
        h_kv = keys.shape[0]
        kv_queries = query.reshape(h_kv, query.shape[0] // h_kv, -1).mean(axis=1)
        middle = self.budget.segments(keys.shape[1]).middle_indices
        k = min(self.k, middle.size)
        if k == 0:
            return
        for head in range(h_kv):
            exact = middle[topk_indices(keys[head, middle, :] @ kv_queries[head], k)]
            picked = np.intersect1d(np.asarray(selected[head]), middle)
            self.recalls.append(np.intersect1d(exact, picked).size / k)


# ------------------------------------------------- paper-shape comparison


def paper_decomposition(target: EngineTarget, phase: str, seq_len: int) -> dict:
    """``LatencyModel`` shares for Fig 12a (prefill) / Fig 12b (decode)."""
    latency = target.engines[0].latency
    if phase == "prefill":
        return latency.prefill_decomposition(seq_len)
    return latency.decode_decomposition(seq_len, "pqcache")


# ----------------------------------------------------------- trace targets


def _step_args(args, kwargs, outputs) -> dict:
    return {"args": {
        "requests": [output.request_id for output in outputs],
        "sim_clock": args[0].metrics.clock,
    }}


def _fleet_step_args(args, kwargs, outputs) -> dict:
    return {"args": {
        "requests": [output.request_id for output in outputs],
        "sim_clock": max(worker.metrics.clock for worker in args[0].workers),
    }}


def _built_tokens(args, kwargs, result) -> dict:
    return {"tokens": args[0].num_codes(0)}


def _chunk_tokens(args, kwargs, processed) -> dict:
    return {"tokens": processed}


def _decode_rows(args, kwargs, logits) -> dict:
    return {"rows": len(logits)}


def _gpu_cache_access(args, kwargs, result) -> dict:
    return {"hit_tokens": result["hit_tokens"].size,
            "miss_tokens": result["miss_tokens"].size}


def _encoded_bytes(args, kwargs, encoded) -> dict:
    return {"logical_bytes": encoded.logical_nbytes,
            "wire_bytes": encoded.wire_nbytes}


#: the public callables a traced run wraps, by layer.  Module-level functions
#: are wrapped in the namespace that calls them.
TRACE_TARGETS = [
    Target("serve.engine.step", "repro.serve.engine:InferenceEngine.step", annotate=_step_args),
    Target("serve.engine.submit", "repro.serve.engine:InferenceEngine.submit"),
    Target("serve.scheduler.schedule",
           "repro.serve.scheduler:ContinuousBatchingScheduler.schedule"),
    Target("serve.prefix_cache.match", "repro.serve.prefix_cache:PrefixCache.match"),
    Target("serve.prefix_cache.insert", "repro.serve.prefix_cache:PrefixCache.insert"),
    Target("serve.prefix_cache.evict", "repro.serve.prefix_cache:PrefixCache.evict"),
    Target("serve.prefix_cache.export_chain",
           "repro.serve.prefix_cache:PrefixCache.export_chain"),
    Target("serve.prefix_cache.import_chain",
           "repro.serve.prefix_cache:PrefixCache.import_chain"),
    Target("llm.kvcache.swap_out", "repro.llm.kvcache:SwapSpace.swap_out"),
    Target("llm.kvcache.swap_in", "repro.llm.kvcache:SwapSpace.swap_in"),
    Target("llm.kvcodec.encode", "repro.llm.kvcodec:KVBlockCodec.encode",
           subclasses=True, annotate=_encoded_bytes),
    Target("llm.kvcodec.decode", "repro.llm.kvcodec:KVBlockCodec.decode", subclasses=True),
    Target("llm.model.prefill_chunk", "repro.llm.model:TransformerLM.prefill_chunk",
           annotate=_chunk_tokens),
    Target("llm.model.decode_step", "repro.llm.model:TransformerLM.decode_step"),
    Target("llm.model.decode_step_batch",
           "repro.llm.model:TransformerLM.decode_step_batch", annotate=_decode_rows),
    Target("baselines.pqcache_policy.select_batch",
           "repro.baselines.pqcache_policy:PQCachePolicy.select_batch"),
    Target("baselines.pqcache_policy.on_decode_step_batch",
           "repro.baselines.pqcache_policy:PQCachePolicy.on_decode_step_batch"),
    Target("baselines.pqcache_policy.on_prefill_chunk",
           "repro.baselines.pqcache_policy:PQCachePolicy.on_prefill_chunk"),
    Target("baselines.pqcache_policy.finish_prefill",
           "repro.baselines.pqcache_policy:PQCachePolicy.finish_prefill"),
    Target("core.pqcache.build", "repro.core.pqcache:PQCacheManager.build",
           annotate=_built_tokens),
    Target("core.pqcache.build_incremental",
           "repro.core.pqcache:PQCacheManager.build_incremental", annotate=_built_tokens),
    Target("core.pqcache.refine", "repro.core.pqcache:PQCacheManager.refine",
           annotate=_built_tokens),
    Target("core.pqcache.attach", "repro.core.pqcache:PQCacheManager.attach"),
    Target("core.pqcache.append_tokens_grouped",
           "repro.baselines.pqcache_policy:append_tokens_grouped"),
    Target("core.kmeans.kmeans_fit", "repro.core.pq:kmeans_fit"),
    Target("core.kmeans.kmeans_refine", "repro.core.pq:kmeans_refine"),
    Target("core.gpu_cache.access", "repro.core.gpu_cache:BlockGpuCache.access",
           annotate=_gpu_cache_access),
    Target("serve.cluster.place", "repro.serve.cluster.router:Router.place"),
    Target("serve.cluster.step", "repro.serve.cluster.frontend:ClusterFrontend.step",
           annotate=_fleet_step_args),
    Target("serve.cluster.submit", "repro.serve.cluster.frontend:ClusterFrontend.submit"),
    Target("memory.latency", "repro.memory.latency:LatencyModel.*"),
]
