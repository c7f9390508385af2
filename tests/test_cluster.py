"""Tests for the multi-worker serving cluster (repro.serve.cluster).

The load-bearing contract is **byte-identity**: for any placement policy and
worker count, every request's tokens AND logits equal a single-worker run —
placement (and migration) move only the simulated clock.  Around it:
prefix-cache coverage semantics, router scoring/tie-breaking/fallback, spilled-chain export/import round-trips, and fleet metric
aggregation.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines import SelectionBudget
from repro.errors import ConfigurationError
from repro.llm.kvcache import BlockAllocator, SwapSpace
from repro.serve import (
    EngineConfig,
    EngineMetrics,
    InferenceEngine,
    PolicySpec,
    PoolConfig,
    PrefixCache,
    PrefixCoverage,
    QoSClassMetrics,
    Request,
    RequestMetrics,
    RequestQoS,
    SamplingParams,
    chain_block_keys,
)
from repro.serve.cluster import (
    ROUTING_POLICIES,
    ClusterFrontend,
    ClusterMetrics,
    Router,
    Worker,
)
from test_preemption import assert_attribution_bounded

BUDGET = SelectionBudget(token_ratio=0.2, comm_ratio=1.0 / 64.0,
                         num_initial=4, num_local=16)

#: a worker with a default-geometry paged pool (the fleet's default config)
POOLED = EngineConfig(pool=PoolConfig())

#: policy matrix from the issue: dense baseline + the paper's method + three
#: published baselines (None means no policy_spec — full attention).
CLUSTER_POLICIES = (None, "pqcache", "snapkv", "h2o", "sparq")

PROMPT_LENS = (120, 152, 184)


def make_prompts(tiny_config, lengths=PROMPT_LENS, seed=9):
    rng = np.random.default_rng(seed)
    return [rng.integers(4, tiny_config.vocab_size, size=n).tolist()
            for n in lengths]


def make_requests(prompts, policy_name, max_new_tokens=3, prefix="r"):
    spec = None if policy_name is None else (
        lambda: PolicySpec.named(policy_name, BUDGET))
    return [
        Request(request_id=f"{prefix}{i}", prompt_ids=prompt,
                sampling=SamplingParams(max_new_tokens=max_new_tokens),
                policy_spec=spec() if spec else None)
        for i, prompt in enumerate(prompts)
    ]


# ---------------------------------------------------------------------------
# Prefix-cache coverage
# ---------------------------------------------------------------------------


def cached_chain(num_blocks=4, block_size=4):
    """A spill-capable cache holding one ``num_blocks`` chain, all resident;
    returns the cache and the chain's keys."""
    allocator = BlockAllocator(1, 1, 2, block_size=block_size)
    cache = PrefixCache(SwapSpace(allocator))
    tokens = list(range(num_blocks * block_size))
    blocks = [allocator.allocate() for _ in range(num_blocks)]
    cache.insert(tokens, blocks)
    for block in blocks:
        allocator.decref(block)  # the cache's reference is the only one
    return cache, chain_block_keys(tokens, block_size)


class TestPrefixCoverage:
    def test_coverage_counts_consecutive_leading_blocks_only(self):
        cache, keys = cached_chain()
        assert cache.coverage(keys) == PrefixCoverage(4, 4)
        holed = [keys[0], b"absent", keys[2], keys[3]]  # hole at block 1
        assert cache.coverage(holed) == PrefixCoverage(1, 1)

    def test_spilled_block_ends_resident_run_not_known_run(self):
        cache, keys = cached_chain()
        cache._spill(cache._nodes[keys[1]])
        assert cache.coverage(keys) == PrefixCoverage(1, 4)

    def test_missing_block_ends_both_runs(self):
        cache, keys = cached_chain()
        cache._spill(cache._nodes[keys[1]])
        # block 2 is unheld; block 3 is held again but unreachable
        assert cache.coverage([*keys[:2], b"absent", keys[3]]) == (
            PrefixCoverage(1, 2)
        )

    def test_coverage_is_per_worker(self, model):
        config = EngineConfig(pool=PoolConfig(block_size=4))
        workers = [Worker(i, model, config) for i in range(2)]
        tokens = list(range(12))
        allocator = workers[0].prefix_cache.allocator
        blocks = [allocator.allocate() for _ in range(3)]
        workers[0].prefix_cache.insert(tokens, blocks)
        keys = chain_block_keys(tokens, 4)
        assert workers[0].prefix_coverage(keys) == PrefixCoverage(3, 3)
        assert workers[1].prefix_coverage(keys) == PrefixCoverage()
        uncached = Worker(2, model, EngineConfig())
        assert uncached.prefix_coverage(keys) == PrefixCoverage()

    def test_coverage_is_a_pure_read(self):
        cache, keys = cached_chain()
        stamps = [node.last_used for node in cache._nodes.values()]
        before = dataclasses.replace(cache.stats)
        cache.coverage(keys)
        assert cache.stats == before
        assert [node.last_used for node in cache._nodes.values()] == stamps


class TestCoverageTracksEngine:
    def test_coverage_follows_insert_spill_restore_evict(self, model, tiny_config):
        worker = Worker(0, model, POOLED)
        prompt = make_prompts(tiny_config, (200,))[0]
        keys = chain_block_keys(prompt, worker.block_allocator.block_size)
        assert worker.prefix_coverage(keys) == PrefixCoverage()
        worker.run(make_requests([prompt], None, prefix="a"))
        worker.release("a0")
        cached = worker.prefix_coverage(keys).known_blocks
        assert cached > 0
        assert worker.prefix_coverage(keys) == PrefixCoverage(cached, cached)

        cache = worker.prefix_cache
        assert cache.evict(cache.num_resident) == cached == cache.num_spilled
        assert worker.prefix_coverage(keys) == PrefixCoverage(0, cached)

        # a fresh match restores the chain
        worker.run(make_requests([prompt], None, prefix="b"))
        worker.release("b0")
        assert cache.num_spilled == 0
        assert worker.prefix_coverage(keys) == PrefixCoverage(cached, cached)

        cache.clear()
        assert worker.prefix_coverage(keys) == PrefixCoverage()

    def test_hard_eviction_shortens_the_known_run(self, model, tiny_config):
        worker = Worker(0, model, EngineConfig(pool=PoolConfig(disk_blocks=0)))
        prompt = make_prompts(tiny_config, (200,))[0]
        keys = chain_block_keys(prompt, worker.block_allocator.block_size)
        worker.run(make_requests([prompt], None))
        worker.release("r0")
        cached = worker.prefix_coverage(keys).known_blocks
        assert cached > 1
        assert worker.prefix_cache.evict(1) == 1  # no disk room: drop the tail
        assert worker.prefix_coverage(keys) == PrefixCoverage(cached - 1, cached - 1)


# ---------------------------------------------------------------------------
# Router placement
# ---------------------------------------------------------------------------


class _FakeWorker:
    """A ``RoutableWorker`` with one QoS class: per-class load is the total
    load.  It holds the first ``resident`` blocks of any prompt resident and
    the first ``known`` in some tier, and records the keys it is asked
    about."""

    def __init__(self, worker_id, load=0, resident=0, known=None):
        self.worker_id = worker_id
        self.load = load
        self.resident = resident
        self.known = resident if known is None else known
        self.asked = []

    def load_at_or_above(self, priority):
        return self.load

    def prefix_coverage(self, keys):
        self.asked.append(keys)
        return PrefixCoverage(min(self.resident, len(keys)),
                              min(self.known, len(keys)))


class TestRouterPlacement:
    @pytest.mark.parametrize("policy", ["fastest", "edf_aware"])
    def test_rejects_unknown_policy(self, policy):
        with pytest.raises(ConfigurationError):
            Router(policy)

    def test_rejects_empty_fleet(self):
        with pytest.raises(ConfigurationError):
            Router("round_robin").place([1, 2], [])

    def test_round_robin_cycles(self):
        router = Router("round_robin")
        workers = [_FakeWorker(i) for i in range(3)]
        picks = [router.place([1], workers).worker_id for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_loaded_breaks_ties_toward_lowest_id(self):
        workers = [_FakeWorker(0, load=2), _FakeWorker(1, load=1),
                   _FakeWorker(2, load=1)]
        placement = Router("least_loaded").place([1], workers)
        assert placement.worker_id == 1

    def test_cache_aware_hashes_the_prompt_once_for_every_worker(self):
        prompt = list(range(4, 260))
        workers = [_FakeWorker(i) for i in range(3)]
        Router("cache_aware").place(prompt, workers, block_size=64)
        keys = chain_block_keys(prompt, 64)
        assert len(keys) == 4
        for worker in workers:
            assert worker.asked == [keys]
            assert worker.asked[0] is workers[0].asked[0]

    def test_cache_aware_prefers_longest_resident_prefix(self):
        prompt = list(range(4, 260))
        workers = [_FakeWorker(0, load=0, resident=1),
                   _FakeWorker(1, load=5, resident=3), _FakeWorker(2, load=0)]
        placement = Router("cache_aware").place(prompt, workers, block_size=64)
        assert placement.worker_id == 1  # longest match beats lighter load
        assert placement.matched_tokens == 3 * 64

    def test_cache_aware_tie_breaks_toward_least_loaded(self):
        prompt = list(range(4, 260))
        workers = [_FakeWorker(0, load=4, resident=2), _FakeWorker(1, load=0),
                   _FakeWorker(2, load=1, resident=2)]
        placement = Router("cache_aware").place(prompt, workers, block_size=64)
        assert placement.worker_id == 2

    def test_cache_aware_falls_back_to_least_loaded_on_miss(self):
        prompt = list(range(4, 260))
        workers = [_FakeWorker(0, load=3), _FakeWorker(1, load=1)]
        placement = Router("cache_aware").place(prompt, workers, block_size=64)
        assert placement.worker_id == 1
        assert placement.matched_tokens == 0
        assert placement.migrate_from is None

    def test_cache_aware_spilled_only_falls_back_without_migration(self):
        prompt = list(range(4, 260))
        workers = [_FakeWorker(0, load=5, known=3), _FakeWorker(1, load=0)]
        placement = Router("cache_aware").place(prompt, workers, block_size=64)
        assert placement.worker_id == 1
        assert placement.migrate_from is None

    def test_migrate_on_miss_targets_spilled_owner(self):
        prompt = list(range(4, 260))
        workers = [_FakeWorker(0, load=5, known=3), _FakeWorker(1, load=0)]
        placement = Router("cache_aware", migrate_on_miss=True).place(
            prompt, workers, block_size=64)
        assert placement.worker_id == 1
        assert placement.migrate_from == 0
        assert placement.migrate_tokens == 3 * 64

    def test_no_migration_when_owner_is_the_fallback_target(self):
        prompt = list(range(4, 260))
        workers = [_FakeWorker(0, load=5), _FakeWorker(1, load=0, known=2)]
        placement = Router("cache_aware", migrate_on_miss=True).place(
            prompt, workers, block_size=64)
        assert placement.worker_id == 1
        assert placement.migrate_from is None  # local restore is cheaper


# ---------------------------------------------------------------------------
# Chain export / import
# ---------------------------------------------------------------------------


class TestChainExportImport:
    def _warm_engine(self, model, prompt, request_id="w0"):
        engine = InferenceEngine(model, enable_prefix_caching=True)
        engine.run(make_requests([prompt], None, prefix=request_id))
        engine.release(f"{request_id}0")
        return engine

    def test_export_miss_returns_none(self, model, tiny_config):
        engine = self._warm_engine(model, make_prompts(tiny_config, (200,))[0])
        assert engine.prefix_cache.export_chain(list(range(4, 100))) is None

    def test_round_trip_is_bitwise(self, model, tiny_config):
        prompt = make_prompts(tiny_config, (200,))[0]
        source = self._warm_engine(model, prompt)
        exported = source.prefix_cache.export_chain(prompt)
        assert exported is not None and exported.num_blocks > 0

        target = InferenceEngine(model, enable_prefix_caching=True)
        written = target.prefix_cache.import_chain(exported)
        assert written == exported.num_blocks
        # exporting back from the target must reproduce the same bytes
        back = target.prefix_cache.export_chain(prompt)
        assert back is not None and back.num_blocks == exported.num_blocks
        for a, b in zip(exported.nodes, back.nodes):
            assert np.array_equal(a.token_ids, b.token_ids)
            assert np.array_equal(a.keys, b.keys)
            assert np.array_equal(a.values, b.values)

    def test_export_of_spilled_chain_leaves_source_intact(
        self, model, tiny_config
    ):
        prompt = make_prompts(tiny_config, (200,))[0]
        source = self._warm_engine(model, prompt)
        cache = source.prefix_cache
        cache.evict(cache.num_resident)
        assert cache.num_spilled > 0
        exported = cache.export_chain(prompt)
        assert exported is not None
        assert exported.disk_blocks == cache.num_spilled  # still parked

    def test_import_truncates_under_capacity_pressure(self, model, tiny_config):
        prompt = make_prompts(tiny_config, (200,))[0]
        source = self._warm_engine(model, prompt)
        exported = source.prefix_cache.export_chain(prompt)
        assert exported.num_blocks >= 2
        # a hookless allocator exposes the raw CapacityError path
        config = tiny_config
        from repro.serve import PrefixCache
        allocator = BlockAllocator(config.num_layers, config.num_kv_heads,
                                   config.head_dim, block_size=64,
                                   capacity_blocks=1)
        cache = PrefixCache(SwapSpace(allocator))
        written = cache.import_chain(exported)
        assert written == 1  # a valid shorter prefix, not a failure
        assert len(cache) == 1

    def test_import_under_engine_pressure_stays_consistent(
        self, model, tiny_config
    ):
        """With the engine's eviction hook wired, a too-small pool may spill
        or reclaim imported blocks mid-import; whatever survives must be a
        reachable chain that still serves byte-identical requests."""
        prompt = make_prompts(tiny_config, (200,))[0]
        source = self._warm_engine(model, prompt)
        exported = source.prefix_cache.export_chain(prompt)
        target = InferenceEngine(model, enable_prefix_caching=True,
                                 kv_pool_blocks=1)
        written = target.prefix_cache.import_chain(exported)
        assert 0 <= written <= exported.num_blocks
        # every surviving index entry is reachable from the chain root
        cache = target.prefix_cache
        for node in cache._nodes.values():
            walk = node
            while walk.parent is not None:
                assert walk.parent.key in cache._nodes
                walk = walk.parent
        # and a lookup over the imported prompt doesn't trip on stale state
        cache.match(prompt)

    def test_imported_chain_serves_prefix_hits(self, model, tiny_config):
        prompt = make_prompts(tiny_config, (200,))[0]
        source = self._warm_engine(model, prompt)
        exported = source.prefix_cache.export_chain(prompt)

        cold = InferenceEngine(model, enable_prefix_caching=True)
        warm = InferenceEngine(model, enable_prefix_caching=True)
        warm.prefix_cache.import_chain(exported)
        followup = prompt + list(range(4, 44))
        out_cold = cold.run(make_requests([followup], None, prefix="c"))["c0"]
        out_warm = warm.run(make_requests([followup], None, prefix="c"))["c0"]
        assert warm.metrics.prefix_cache_hit_tokens > 0
        assert out_warm.token_ids == out_cold.token_ids
        assert np.array_equal(out_warm.logits, out_cold.logits)


# ---------------------------------------------------------------------------
# Cluster byte-identity
# ---------------------------------------------------------------------------


class TestRawChainTransfer:
    """Migration copies parked rows as they lie and bills the modelled
    bytes of the transfer once, on the target's clock."""

    def test_export_copies_the_source_blocks_bitwise(self, model, tiny_config):
        prompt = make_prompts(tiny_config, (200,))[0]
        engine = InferenceEngine(model, enable_prefix_caching=True)
        engine.run(make_requests([prompt], None, prefix="w"))
        engine.release("w0")
        cache, alloc = engine.prefix_cache, engine.block_allocator
        exported = cache.export_chain(prompt)
        match = cache.match(prompt)
        assert exported.num_blocks == len(match.block_ids) > 0
        for node, block_id in zip(exported.nodes, match.block_ids):
            for array, rows in ((node.keys, alloc.block_keys(block_id)),
                                (node.values, alloc.block_values(block_id))):
                assert array.shape == rows.shape  # (layers, h_kv, block, d_h)
                assert array.tobytes() == rows.tobytes()
                assert not np.shares_memory(array, rows)

    def test_mixed_chain_ships_parked_rows_and_bills_the_transfer(
        self, model, tiny_config, monkeypatch
    ):
        prompt = make_prompts(tiny_config, (200,))[0]
        followup = prompt + list(range(4, 74))
        cluster = ClusterFrontend(model, num_workers=2,
                                  placement="cache_aware",
                                  migrate_on_miss=True)
        cluster.run(make_requests([prompt], None, prefix="warm"))
        cluster.release("warm0")
        owner, target = cluster.workers
        cache = owner.prefix_cache
        cache.evict(1)  # the head spills; the rest of the chain stays resident
        assert 0 < cache.num_spilled < len(cache)
        owner.submit(make_requests(
            [make_prompts(tiny_config, (150,), seed=3)[0]], None,
            max_new_tokens=48, prefix="fill")[0])

        parked = {
            key: owner.swap_space.host.block_keys(node.spill_handle.host_ids[0]).copy()
            for key, node in cache._nodes.items() if node.spilled
        }
        disk_before = owner.swap_space.disk_blocks
        shipped, restores = [], []
        import_chain, swap_in = target.prefix_cache.import_chain, SwapSpace.swap_in

        def recording_import(chain):
            shipped.append(chain)
            return import_chain(chain)

        def recording_swap_in(space, handle):
            restores.append(handle)
            return swap_in(space, handle)

        monkeypatch.setattr(target.prefix_cache, "import_chain", recording_import)
        monkeypatch.setattr(SwapSpace, "swap_in", recording_swap_in)
        clock = target.metrics.clock
        cluster.submit(make_requests([followup], None, prefix="f")[0])
        assert cluster.placements[-1].migrate_from == 0

        (chain,) = shipped
        assert 0 < chain.disk_blocks < chain.num_blocks
        keys = chain_block_keys(prompt, owner.block_allocator.block_size)
        for key, node in zip(keys, chain.nodes):
            # Spilled nodes ship copies of their parked host rows, read off
            # the owner's host store without a restore.
            assert node.from_disk == (key in parked)
            if node.from_disk:
                assert node.keys.tobytes() == parked[key].tobytes()
        assert restores == [] and owner.swap_space.disk_blocks == disk_before

        block = target.pressure.block_nbytes()
        kv_bytes = float(chain.num_blocks * block)
        disk_bytes = float(chain.disk_blocks * block) + float(chain.payload_nbytes())
        seconds = target.latency.migration_seconds(kv_bytes, disk_bytes)
        assert target.metrics.clock == clock + seconds
        metrics = cluster.metrics
        assert metrics.migration_seconds == seconds
        assert (metrics.migrated_kv_bytes, metrics.migrated_disk_bytes) == (
            kv_bytes, disk_bytes)
        assert (metrics.migrated_kv_wire_bytes, metrics.migrated_disk_wire_bytes) == (
            kv_bytes, disk_bytes)
        assert cluster.run()["f0"].metrics.cached_prefix_tokens > 0


def _reference_outputs(model, tiny_config, policy_name):
    """Single-engine outputs for the standard prompt set under one policy."""
    engine = InferenceEngine(model)
    prompts = make_prompts(tiny_config)
    return engine.run(make_requests(prompts, policy_name))


class TestClusterByteIdentity:
    _refs = {}

    def _reference(self, model, tiny_config, policy_name):
        if policy_name not in self._refs:
            self._refs[policy_name] = _reference_outputs(
                model, tiny_config, policy_name)
        return self._refs[policy_name]

    @pytest.mark.parametrize("policy_name", CLUSTER_POLICIES)
    @pytest.mark.parametrize("placement", ROUTING_POLICIES)
    @pytest.mark.parametrize("num_workers", (1, 2, 4))
    def test_placement_changes_only_the_clock(
        self, model, tiny_config, policy_name, placement, num_workers
    ):
        reference = self._reference(model, tiny_config, policy_name)
        cluster = ClusterFrontend(model, num_workers=num_workers,
                                  placement=placement)
        prompts = make_prompts(tiny_config)
        outputs = cluster.run(make_requests(prompts, policy_name))
        assert outputs.keys() == reference.keys()
        for request_id, ref in reference.items():
            out = outputs[request_id]
            assert out.token_ids == ref.token_ids
            assert np.array_equal(out.logits, ref.logits)

    def test_migrated_chain_request_is_byte_identical(self, model, tiny_config):
        prompt = make_prompts(tiny_config, (200,))[0]
        followup = prompt + list(range(4, 74))

        cluster = ClusterFrontend(model, num_workers=2,
                                  placement="cache_aware",
                                  migrate_on_miss=True)
        cluster.run(make_requests([prompt], None, prefix="warm"))
        cluster.release("warm0")
        owner = cluster.workers[0]
        owner.prefix_cache.evict(owner.prefix_cache.num_resident)
        assert owner.prefix_cache.num_spilled > 0
        # load the owner so least-loaded fallback picks the other worker
        owner.submit(make_requests(
            [make_prompts(tiny_config, (150,), seed=3)[0]], None,
            max_new_tokens=48, prefix="fill")[0])

        cluster.submit(make_requests([followup], None, prefix="f")[0])
        placement = cluster.placements[-1]
        assert placement.worker_id == 1
        assert placement.migrate_from == 0
        outputs = cluster.run()
        assert cluster.metrics.migrations == 1
        assert cluster.metrics.migrated_blocks > 0
        assert cluster.metrics.migration_seconds > 0
        assert cluster.metrics.migrated_kv_bytes > 0
        assert cluster.metrics.as_dict()["migrated_kv_bytes"] == (
            cluster.metrics.migrated_kv_bytes
        )
        # the migrated chain actually served the request on the target
        assert outputs["f0"].metrics.cached_prefix_tokens > 0

        single = InferenceEngine(model)
        ref = single.run(make_requests([followup], None, prefix="f"))["f0"]
        assert outputs["f0"].token_ids == ref.token_ids
        assert np.array_equal(outputs["f0"].logits, ref.logits)

    @pytest.mark.parametrize("placement", ROUTING_POLICIES)
    def test_fuzz_mid_run_submits_and_aborts(
        self, model, tiny_config, placement
    ):
        """Randomized interleaving: requests trickle in mid-run, a subset is
        aborted, and half carry random deadlines (spanning hopeless to
        generous); every surviving request stays byte-identical to a
        sequential single-engine run, every deadline shed was genuinely
        past its deadline (or provably unmeetable) when dropped, and no
        finished request is billed more seconds than its end-to-end
        latency."""
        rng = np.random.default_rng(42)
        lengths = rng.integers(100, 200, size=8).tolist()
        prompts = make_prompts(tiny_config, lengths, seed=21)
        policies = [None if i % 2 == 0 else "pqcache"
                    for i in range(len(prompts))]
        deadlines = [float(10.0 ** rng.uniform(-9.0, 1.0)) if i % 2 == 1
                     else None for i in range(len(prompts))]
        aborted = {"r2", "r5"}

        reference = {}
        for i, (prompt, policy_name) in enumerate(zip(prompts, policies)):
            engine = InferenceEngine(model)
            reference.update(engine.run(make_requests(
                [prompt], policy_name, max_new_tokens=4, prefix=f"r{i}--")))

        cluster = ClusterFrontend(model, num_workers=3, placement=placement)
        pending = [
            Request(request_id=f"r{i}", prompt_ids=prompt,
                    sampling=SamplingParams(max_new_tokens=4),
                    policy_spec=(None if policy_name is None
                                 else PolicySpec.named(policy_name, BUDGET)),
                    qos=RequestQoS(deadline=deadlines[i]))
            for i, (prompt, policy_name) in enumerate(zip(prompts, policies))
        ]
        finals = {}
        step = 0
        aborts_done = set()
        # two requests up front, the rest submitted/aborted mid-run
        for _ in range(2):
            cluster.submit(pending.pop(0))
        while cluster.has_unfinished or pending:
            if pending and rng.random() < 0.6:
                cluster.submit(pending.pop(0))
            for output in cluster.step():
                if output.finished:
                    finals[output.request_id] = output
            step += 1
            if step >= 3:
                for request_id in aborted - aborts_done:
                    if (request_id in cluster._assignment
                            and request_id not in finals):
                        cluster.abort(request_id)
                        aborts_done.add(request_id)

        shed = set()
        for request_id, out in finals.items():
            assert_attribution_bounded(out.metrics, request_id)
            if out.finish_reason != "deadline":
                continue
            shed.add(request_id)
            index = int(request_id[1:])
            assert deadlines[index] is not None
            worker = cluster.worker_of(request_id)
            missed = out.metrics.finish_time > out.metrics.deadline
            infeasible = (
                worker.min_ttft_lower_bound(len(prompts[index]))
                > deadlines[index]
            )
            assert missed or infeasible, (
                f"{request_id} shed before its deadline"
            )
        survivors = {rid: out for rid, out in finals.items()
                     if out.finish_reason == "length"}
        # every non-aborted, non-shed request must survive (an aborted one
        # may also finish first if its abort raced its last decode step)
        must_survive = (
            {f"r{i}" for i in range(len(prompts))} - aborts_done - shed
        )
        assert must_survive <= set(survivors)
        for request_id, out in survivors.items():
            ref = reference[f"{request_id}--0"]
            assert out.token_ids == ref.token_ids
            assert np.array_equal(out.logits, ref.logits)


# ---------------------------------------------------------------------------
# Frontend plumbing + fleet metrics
# ---------------------------------------------------------------------------


class TestClusterFrontend:
    def test_rejects_zero_workers(self, model):
        with pytest.raises(ConfigurationError):
            ClusterFrontend(model, num_workers=0)

    def test_rejects_duplicate_request_ids(self, model, tiny_config):
        cluster = ClusterFrontend(model, num_workers=2)
        request = make_requests(make_prompts(tiny_config, (120,)), None)[0]
        cluster.submit(request)
        with pytest.raises(ConfigurationError):
            cluster.submit(Request(request_id=request.request_id,
                                   prompt_ids=[4, 5, 6],
                                   sampling=SamplingParams(max_new_tokens=1)))
        cluster.run()

    def test_worker_of_unknown_request_raises(self, model):
        cluster = ClusterFrontend(model, num_workers=2)
        with pytest.raises(ConfigurationError):
            cluster.worker_of("ghost")

    def test_output_routing_and_release(self, model, tiny_config):
        cluster = ClusterFrontend(model, num_workers=2,
                                  placement="round_robin")
        requests = make_requests(make_prompts(tiny_config), None)
        finals = cluster.run(requests)
        for request in requests:
            via_lookup = cluster.final_output(request.request_id)
            assert via_lookup.token_ids == finals[request.request_id].token_ids
            cluster.release(request.request_id)

    def test_describe_shape(self, model, tiny_config):
        cluster = ClusterFrontend(model, num_workers=2)
        cluster.run(make_requests(make_prompts(tiny_config, (120,)), None))
        report = cluster.describe()
        assert report["num_workers"] == 2
        assert report["placement"] == "cache_aware"
        assert len(report["workers"]) == 2
        assert {"fleet", "migration"} <= report.keys()

    def test_standalone_worker_is_a_plain_engine(self, model, tiny_config):
        """A Worker outside any frontend is a plain, fully functional
        engine."""
        worker = Worker(7, model, POOLED)
        outputs = worker.run(make_requests(make_prompts(tiny_config, (120,)),
                                           None))
        assert worker.load == 0
        assert worker.describe()["worker_id"] == 7
        assert len(outputs) == 1

    def test_fleet_metrics_merge(self, model, tiny_config):
        cluster = ClusterFrontend(model, num_workers=2,
                                  placement="round_robin")
        cluster.run(make_requests(make_prompts(tiny_config), None))
        fleet = cluster.fleet_metrics()
        per_worker = [w.metrics for w in cluster.workers]
        assert fleet.requests_finished == sum(
            m.requests_finished for m in per_worker) == len(PROMPT_LENS)
        assert fleet.generated_tokens == sum(m.generated_tokens for m in per_worker)
        # replicas overlap in wall time: fleet clock is the max, not the sum
        assert fleet.clock == max(m.clock for m in per_worker)
        assert fleet.clock < sum(m.clock for m in per_worker)


class _FakeQoSWorker(_FakeWorker):
    """Fake worker that also reports per-class load (the real Worker API)."""

    def __init__(self, worker_id, load=0, high_load=0):
        super().__init__(worker_id, load)
        self._high = high_load

    def load_at_or_above(self, priority):
        return self._high if priority > 0 else self.load


#: the standard prompt set tagged with mixed QoS (index-aligned with
#: make_prompts/make_requests ids, so untagged references line up).
CLUSTER_QOS = (
    RequestQoS(priority=2, tenant="chat", weight=2.0),
    RequestQoS(),
    RequestQoS(priority=1, tenant="batch"),
)


def make_tagged_requests(prompts, prefix="r", max_new_tokens=3):
    return [
        Request(request_id=f"{prefix}{i}", prompt_ids=prompt,
                sampling=SamplingParams(max_new_tokens=max_new_tokens),
                qos=CLUSTER_QOS[i % len(CLUSTER_QOS)])
        for i, prompt in enumerate(prompts)
    ]


class TestClusterQoS:
    """QoS tags ride through routing and migration without touching bytes."""

    @pytest.mark.parametrize("placement", ROUTING_POLICIES)
    @pytest.mark.parametrize("num_workers", (1, 2, 4))
    def test_tagged_traffic_is_byte_identical_to_untagged(
        self, model, tiny_config, placement, num_workers
    ):
        """QoS changes ordering and the clock, never the bytes: a tagged
        cluster run equals the untagged single-engine reference for every
        placement x worker-count combination."""
        reference = _reference_outputs(model, tiny_config, None)
        cluster = ClusterFrontend(model, num_workers=num_workers,
                                  placement=placement)
        outputs = cluster.run(
            make_tagged_requests(make_prompts(tiny_config)))
        assert outputs.keys() == reference.keys()
        for request_id, ref in reference.items():
            out = outputs[request_id]
            assert out.token_ids == ref.token_ids
            assert np.array_equal(out.logits, ref.logits)

    def test_tags_survive_routing_into_worker_metrics(self, model, tiny_config):
        cluster = ClusterFrontend(model, num_workers=2,
                                  placement="round_robin")
        outputs = cluster.run(
            make_tagged_requests(make_prompts(tiny_config)))
        for i, qos in enumerate(CLUSTER_QOS):
            metrics = outputs[f"r{i}"].metrics
            assert (metrics.priority, metrics.tenant) == (qos.priority, qos.tenant)
            # the owning worker bucketed the request under its class/tenant
            worker = cluster.worker_of(f"r{i}")
            assert worker.metrics.per_class[qos.priority].requests_finished >= 1
            assert worker.metrics.per_tenant[qos.tenant].requests_finished >= 1

    def test_router_counts_routed_requests_per_class(self, model, tiny_config):
        cluster = ClusterFrontend(model, num_workers=2,
                                  placement="least_loaded")
        cluster.run(make_tagged_requests(make_prompts(tiny_config)))
        assert cluster.metrics.routed_by_class == {0: 1, 1: 1, 2: 1}
        assert cluster.metrics.as_dict()["routed_by_class"] == {0: 1, 1: 1, 2: 1}

    def test_tagged_request_migrates_byte_identical(self, model, tiny_config):
        """Chain migration with a QoS-tagged follow-up: the tag rides along
        (per-request metrics, target worker buckets) and bytes still match
        the untagged single-engine run."""
        prompt = make_prompts(tiny_config, (200,))[0]
        followup = prompt + list(range(4, 74))
        cluster = ClusterFrontend(model, num_workers=2,
                                  placement="cache_aware",
                                  migrate_on_miss=True)
        cluster.run(make_requests([prompt], None, prefix="warm"))
        cluster.release("warm0")
        owner = cluster.workers[0]
        owner.prefix_cache.evict(owner.prefix_cache.num_resident)
        # The fill must outrank the follow-up's class: per-class routing
        # ignores lower-class occupancy, so a background fill would no
        # longer repel the tagged request from the owning worker.
        owner.submit(Request(
            request_id="fill0",
            prompt_ids=make_prompts(tiny_config, (150,), seed=3)[0],
            sampling=SamplingParams(max_new_tokens=48),
            qos=RequestQoS(priority=3, tenant="chat")))

        cluster.submit(Request(
            request_id="f0", prompt_ids=followup,
            sampling=SamplingParams(max_new_tokens=3),
            qos=RequestQoS(priority=2, tenant="chat")))
        assert cluster.placements[-1].migrate_from == 0
        outputs = cluster.run()
        assert cluster.metrics.migrations == 1
        assert outputs["f0"].metrics.cached_prefix_tokens > 0
        assert (outputs["f0"].metrics.priority,
                outputs["f0"].metrics.tenant) == (2, "chat")
        target = cluster.worker_of("f0")
        assert target.metrics.per_class[2].requests_finished == 1

        ref = InferenceEngine(model).run(
            make_requests([followup], None, prefix="f"))["f0"]
        assert outputs["f0"].token_ids == ref.token_ids
        assert np.array_equal(outputs["f0"].logits, ref.logits)

    def test_worker_reports_per_class_load(self, model, tiny_config):
        worker = Worker(0, model, POOLED)
        requests = make_tagged_requests(make_prompts(tiny_config))
        for request in requests:
            worker.submit(request)
        # classes: 2, 0, 1 → cumulative counts from the top
        assert worker.load_at_or_above(2) == 1
        assert worker.load_at_or_above(1) == 2
        assert worker.load_at_or_above(0) == 3 == worker.load
        worker.run()
        assert worker.load_at_or_above(0) == 0

    def test_router_prefers_light_high_class_load(self):
        # worker 0 is busy with background work only; worker 1 is running
        # high-class work.  A tagged placement must ignore the background.
        workers = [_FakeQoSWorker(0, load=5, high_load=0),
                   _FakeQoSWorker(1, load=1, high_load=3)]
        assert Router("least_loaded").place(
            [1], workers, priority=2).worker_id == 0
        # untagged placement still balances on total load
        assert Router("least_loaded").place([1], workers).worker_id == 1

    def test_router_priority_degrades_without_worker_support(self):
        # single-class workers: the per-class signal *is* the total load
        workers = [_FakeWorker(0, load=3), _FakeWorker(1, load=1)]
        placement = Router("least_loaded").place([1], workers, priority=2)
        assert placement.worker_id == 1

    def test_fleet_metrics_merge_per_class_buckets(self, model, tiny_config):
        cluster = ClusterFrontend(model, num_workers=2,
                                  placement="round_robin")
        cluster.run(make_tagged_requests(make_prompts(tiny_config)))
        fleet = cluster.fleet_metrics()
        per_worker = [w.metrics for w in cluster.workers]
        for priority in (0, 1, 2):
            assert fleet.per_class[priority].requests_finished == sum(
                bucket.requests_finished
                for m in per_worker
                for p, bucket in m.per_class.items() if p == priority) == 1
        for tenant in ("chat", "default", "batch"):
            assert fleet.per_tenant[tenant].requests_finished == 1
        # aggregation is read-only and idempotent: a second fleet snapshot
        # reports the same numbers and worker buckets are untouched
        again = cluster.fleet_metrics()
        assert again.per_class[2].requests_finished == 1
        assert all(m.per_class[CLUSTER_QOS[0].priority].requests_finished <= 1
                   for m in per_worker if CLUSTER_QOS[0].priority in m.per_class)


class TestEngineMetricsOps:
    def test_snapshot_is_independent(self):
        metrics = EngineMetrics()
        metrics.generated_tokens = 7
        snap = metrics.snapshot()
        metrics.generated_tokens = 99
        assert snap.generated_tokens == 7

    def test_merge_sums_counters_and_maxes_clock(self):
        a = EngineMetrics()
        a.generated_tokens, a.clock, a.requests_finished = 5, 2.0, 1
        b = EngineMetrics()
        b.generated_tokens, b.clock, b.requests_finished = 3, 6.0, 2
        merged = a.merge(b)
        assert merged is a
        assert a.generated_tokens == 8
        assert a.requests_finished == 3
        assert a.clock == 6.0

    def test_reset_restores_defaults(self):
        metrics = EngineMetrics()
        metrics.generated_tokens, metrics.clock = 11, 3.5
        metrics.reset()
        assert metrics.generated_tokens == 0
        assert metrics.clock == 0.0

    @pytest.mark.parametrize("alias, twin", [
        ("swap_out_wire_bytes", "swap_out_bytes"),
        ("swap_in_wire_bytes", "swap_in_bytes"),
        ("spill_out_wire_bytes", "spill_out_bytes"),
        ("spill_in_wire_bytes", "spill_in_bytes"),
    ])
    def test_wire_aliases_read_their_logical_twins(self, alias, twin):
        """The pre-raw byte names stay readable and follow their twin
        through merge, snapshot and reset; they are never set, stored or
        reported on their own."""
        metrics = EngineMetrics(**{twin: 123})
        assert getattr(metrics, alias) == 123
        metrics.merge(EngineMetrics(**{twin: 7}))
        assert getattr(metrics, alias) == getattr(metrics.snapshot(), alias) == 130
        with pytest.raises(AttributeError):
            setattr(metrics, alias, 1)
        assert alias not in metrics.as_dict()
        metrics.reset()
        assert getattr(metrics, alias) == 0

    @pytest.mark.parametrize("alias, twin", [
        ("migrated_kv_wire_bytes", "migrated_kv_bytes"),
        ("migrated_disk_wire_bytes", "migrated_disk_bytes"),
    ])
    def test_migration_wire_aliases_read_their_logical_twins(self, alias, twin):
        metrics = ClusterMetrics(**{twin: 4096.0})
        assert getattr(metrics, alias) == 4096.0
        with pytest.raises(AttributeError):
            setattr(metrics, alias, 1.0)
        report = metrics.as_dict()
        assert alias not in report and report[twin] == 4096.0


#: the ``as_dict`` reports as they were spelled by hand (key sets frozen at
#: PR 17); a field added since is expected to appear under its own name
AS_DICT_KEYS = {
    "RequestMetrics": {
        "ttft", "tpot", "e2e_seconds", "prefill_seconds", "decode_seconds",
        "num_prompt_tokens", "num_generated_tokens", "prefill_chunks",
        "decode_steps", "mean_attended_tokens", "comm_overlappable_bytes",
        "comm_blocking_bytes", "cached_prefix_tokens", "preemptions",
        "swap_out_bytes", "swap_in_bytes", "swap_seconds", "recomputed_tokens",
        "priority", "tenant", "deadline",
    },
    "QoSClassMetrics": {
        "requests_submitted", "requests_finished", "requests_aborted",
        "requests_shed", "deadline_misses", "preemptions",
        "proactive_swap_outs", "generated_tokens", "mean_ttft", "mean_tpot",
        "ttft", "tpot",
    },
    "EngineMetrics": {
        "clock", "steps", "requests_submitted", "requests_finished",
        "requests_aborted", "prefills", "prefill_chunks", "decode_rounds",
        "generated_tokens", "requests_per_second", "tokens_per_second",
        "prefix_cache_queries", "prefix_cache_hits", "prefix_cache_hit_tokens",
        "prefix_cache_hit_rate", "prefix_token_hit_rate", "preemptions",
        "preemptions_swap", "preemptions_recompute", "requests_shed",
        "deadline_misses", "proactive_swap_outs", "per_class",
        "per_tenant", "swap_out_blocks", "swap_in_blocks", "swap_out_bytes",
        "swap_in_bytes", "spill_out_bytes", "spill_in_bytes", "swap_seconds",
        "decode_batch_rounds", "decode_batch_requests", "mean_decode_batch_size",
        "decode_batch_size_histogram", "decode_select_seconds",
        "decode_score_seconds", "decode_topk_seconds",
        "decode_assemble_seconds", "decode_gather_seconds",
        "decode_attention_seconds", "decode_maintenance_seconds",
        "pq_refreshes", "pq_refresh_seconds", "prefill_projection_seconds",
        "prefill_attention_seconds", "prefill_aggregates_seconds",
        "prefill_ffn_seconds",
    },
}


class TestAsDictReports:
    def test_key_sets_unchanged(self):
        for cls in (RequestMetrics, QoSClassMetrics, EngineMetrics):
            assert set(cls().as_dict()) == AS_DICT_KEYS[cls.__name__], cls

    def test_values_are_the_attributes(self):
        request = RequestMetrics(
            arrival_time=1.0, first_token_time=3.0, finish_time=7.0,
            decode_seconds=2.0, decode_steps=4, attended_tokens=10.0,
        )
        report = request.as_dict()
        assert (report["ttft"], report["tpot"], report["e2e_seconds"]) == (2.0, 0.5, 6.0)
        assert report["mean_attended_tokens"] == 2.5

        metrics = EngineMetrics(clock=2.0, generated_tokens=8, prefix_cache_queries=4,
                                prefix_cache_hits=1, decode_gather_seconds=0.25)
        metrics.observe_decode_batch(3)
        metrics.class_bucket(2).ttft.observe(1.5)
        metrics.class_bucket(0).requests_shed = 1
        report = metrics.as_dict()
        for name, value in report.items():
            if name not in ("per_class", "per_tenant"):
                assert value == getattr(metrics, name), name
        assert report["tokens_per_second"] == 4.0
        assert report["decode_batch_size_histogram"]["2-4"] == 1
        assert list(report["per_class"]) == [0, 2]
        assert report["per_class"][2] == metrics.per_class[2].as_dict()
        assert report["per_class"][2]["ttft"] == metrics.per_class[2].ttft.as_dict()
        assert report["per_class"][2]["mean_ttft"] == 1.5
        assert report["per_tenant"] == {}
