"""Preemption under KV-pool pressure: directed scenarios + a randomized
scheduler fuzz harness.

The fuzz harness drives 200+ seeded random schedules — mixed policies,
shared prefixes, mid-run submissions and aborts, teacher-forced requests,
chunked and monolithic prefill, pool sizes down to a few blocks, swap and
recompute preemption — and asserts after every engine step:

* **refcounts balanced**: every pool block's refcount equals exactly the
  number of live holders (request block tables, retained outputs, resident
  prefix-cache nodes) — no leaked and no double-freed block, ever;
* **tier coherence**: every block parked in the swap space belongs to either
  a swapped request's handle or a spilled prefix-cache node;
* **no deadlock**: the schedule finishes within a generous step budget
  (some request always progresses);
* **byte-identity**: every finished request's tokens *and* per-step logits
  are bitwise equal to the same request served by an uncontended
  (unbounded-pool) engine, under both preemption modes;
* **QoS order**: requests carry random priority/tenant tags; the waiting
  queue stays priority-sorted, and the engine's victim log shows no
  cross-class priority inversion (a victim never outranks its claimant) and
  the age rule holding within each class;
* **deadline discipline**: ~40% of tagged requests carry random deadlines;
  within each class the waiting queue keeps deadline-tagged items in EDF
  order ahead of the untagged FCFS tail, every ``finish_reason="deadline"``
  shed was genuinely past-deadline (or provably unmeetable) at shed time,
  and every request that *does* finish remains byte-identical to the
  deadline-free uncontended reference.
"""

from __future__ import annotations

import inspect
from collections import Counter

import numpy as np
import pytest

from repro.baselines import SelectionBudget, build_policy
from repro.core.pqcache import PQCacheConfig
from repro.errors import CapacityError
from repro.llm import ModelConfig, TransformerLM
from repro.llm.kvcache import BlockAllocator, PagedKVCache, SwapSpace
from repro.memory import HardwareSpec, LatencyModel
from repro.serve import (
    ContinuousBatchingScheduler,
    EngineMetrics,
    InferenceEngine,
    PolicySpec,
    PoolPressure,
    PrefixCache,
    Request,
    RequestQoS,
    RequestStatus,
    SamplingParams,
    SchedulerConfig,
)
from repro.serve.state import RequestState

SEEDS_PER_CASE = 25
FUZZ_CASES = 8  # 8 x 25 = 200 seeds

#: small PQ geometry so k-means on 20-token prompts stays meaningful & fast
PQ_CONFIG = PQCacheConfig(
    num_partitions=2, num_bits=2, max_kmeans_iters=4,
    gpu_cache_tokens=64, gpu_cache_block=8,
)


@pytest.fixture(scope="module")
def fuzz_model():
    config = ModelConfig(
        num_layers=2, hidden_dim=32, num_heads=4, num_kv_heads=2,
        ffn_dim=64, vocab_size=128, name="preempt-fuzz",
    )
    return TransformerLM(config, seed=7)


def _budget():
    return SelectionBudget(token_ratio=0.3, num_initial=2, num_local=8)


def _policy_spec(name):
    if name is None:
        return None
    if name == "pqcache":
        return PolicySpec.named("pqcache", _budget(), pq_config=PQ_CONFIG,
                                sketch_tokens=16)
    return PolicySpec.named(name, _budget())


def _make_engine(model, pool_blocks, mode, chunk, block_size=8,
                 proactive=None, shed_deadlines=True, batch=4):
    return InferenceEngine(
        model,
        scheduler_config=SchedulerConfig(
            max_batch_size=batch,
            max_prefill_chunk_tokens=chunk,
            preemption_mode=mode,
            proactive_swap_free_fraction=proactive,
            shed_missed_deadlines=shed_deadlines,
        ),
        enable_prefix_caching=True,
        kv_block_size=block_size,
        kv_pool_blocks=pool_blocks,
        max_retained_outputs=0,
    )


# ----------------------------------------------------------------- audits

#: engine counters kept three ways: flat, per priority class, per tenant
BUCKETED_COUNTERS = (
    "requests_submitted", "requests_finished", "requests_aborted",
    "requests_shed", "deadline_misses", "preemptions", "proactive_swap_outs",
)


def audit_engine(engine, context=""):
    """Assert block/tier bookkeeping and the counter ledger are balanced."""
    alloc = engine.block_allocator
    expected: Counter = Counter()
    handle_blocks = 0
    for state in engine._states.values():
        if state.paged is not None and not state.paged.table.released:
            for block_id in state.paged.table.block_ids:
                expected[block_id] += 1
        if state.swap_handle is not None:
            # Stored positions park bytes in the swap tiers; pinned positions
            # hold one extra reference on a GPU-resident shared block.
            handle_blocks += state.swap_handle.stored_blocks
            for pinned in state.swap_handle.pinned_ids:
                if pinned is not None:
                    expected[pinned] += 1
    for output in engine._final_outputs.values():
        kvcache = output.prefill.kvcache if output.prefill is not None else None
        if isinstance(kvcache, PagedKVCache) and not kvcache.released:
            for block_id in kvcache.table.block_ids:
                expected[block_id] += 1
    for node in engine.prefix_cache._nodes.values():
        if not node.spilled:
            expected[node.block_id] += 1
    audit_tables(engine, context)
    assert dict(expected) == alloc._refcounts, (
        f"{context}: refcount imbalance — expected {dict(expected)}, "
        f"allocator holds {alloc._refcounts}"
    )
    if alloc.capacity_blocks is not None:
        assert alloc.num_allocated <= alloc.capacity_blocks, context
    space = engine.swap_space
    parked = space.cpu_blocks + space.disk_blocks
    spilled = engine.prefix_cache.num_spilled
    assert parked == handle_blocks + spilled, (
        f"{context}: swap space holds {parked} blocks but requests park "
        f"{handle_blocks} and the prefix cache spilled {spilled}"
    )
    # QoS admission order: the waiting queue is always priority-sorted
    # (descending); within a class, deadline-tagged items run EDF (ascending
    # absolute deadline) ahead of the untagged FCFS tail.
    ranks = [
        (
            -s.priority,
            0 if s.deadline_time is not None else 1,
            s.deadline_time if s.deadline_time is not None else 0.0,
        )
        for s in engine.scheduler.waiting_items()
    ]
    assert ranks == sorted(ranks), (
        f"{context}: waiting queue out of priority/EDF order: {ranks}"
    )
    # The ledger: per-mode preemptions sum to the total, every bucketed
    # counter equals the sum over its per-class and its per-tenant buckets,
    # and every submitted request is finished, aborted, shed or still active.
    metrics = engine.metrics
    assert metrics.preemptions == (
        metrics.preemptions_swap + metrics.preemptions_recompute
    ), context
    for name in BUCKETED_COUNTERS:
        flat = getattr(metrics, name)
        for buckets in (metrics.per_class, metrics.per_tenant):
            assert flat == sum(getattr(b, name) for b in buckets.values()), (
                f"{context}: {name}={flat} disagrees with its buckets"
            )
    assert metrics.requests_submitted == (
        metrics.requests_finished + metrics.requests_aborted
        + metrics.requests_shed + len(engine._states)
    ), context
    # Deadlines are the only reason to shed.
    assert metrics.requests_shed == metrics.deadline_misses, context


def audit_tables(engine, context=""):
    """Every live, unreleased paged cache is as long in every layer, and its
    table holds exactly the blocks that length needs.

    Attention reads through the table, so a table out of step with the
    length would hand it another request's rows, or none.  Between steps no
    legitimate state breaks this: a write appends blocks for its whole span
    or, when the pool runs dry, none; a prefix attach forks exactly the
    blocks its length covers; swap-in restores the chain that was swapped
    out.  A swapped-out request's table is released and is skipped.
    """
    block_size = engine.block_allocator.block_size
    caches = [state.paged for state in engine._states.values()]
    caches += [
        output.prefill.kvcache for output in engine._final_outputs.values()
        if output.prefill is not None
    ]
    for cache in caches:
        if not isinstance(cache, PagedKVCache) or cache.released:
            continue
        lengths = [len(layer) for layer in cache.layers]
        assert len(set(lengths)) == 1, (
            f"{context}: layers of one cache disagree on length: {lengths}"
        )
        assert len(cache.table.block_ids) == -(-lengths[0] // block_size), (
            f"{context}: {len(cache.table.block_ids)} blocks for "
            f"{lengths[0]} tokens of {block_size}"
        )


def audit_victim_log(log, context=""):
    """No cross-class inversion; the age rule holds within each class."""
    for cp, cs, vp, vs in log:
        assert vp <= cp, (
            f"{context}: priority inversion — claimant class {cp} (seq {cs}) "
            f"preempted class {vp} (seq {vs})"
        )
        if vp == cp:
            assert vs > cs, (
                f"{context}: within-class age rule broken — claimant seq "
                f"{cs} preempted same-class seq {vs}"
            )


def _outputs_equal(out, ref):
    assert out.token_ids == ref.token_ids
    assert out.finish_reason == ref.finish_reason
    if ref.logits is None:
        assert out.logits is None
    else:
        assert np.array_equal(out.logits, ref.logits)


# ------------------------------------------------------------ fuzz harness


def _random_qos(rng):
    """Random priority/tenant tags; ~30% of requests stay untagged; ~40% of
    tagged requests carry a deadline drawn log-uniform over 1ns–10ms —
    straddling the simulated clock's feasible/hopeless boundary (fuzz
    schedules finish in ~1ms of simulated time, and a queued step costs
    only nanoseconds) so the seeds mix met, missed, and unmeetable
    deadlines."""
    if rng.random() < 0.3:
        return RequestQoS()
    deadline = None
    if rng.random() < 0.4:
        deadline = float(10.0 ** rng.uniform(-9.0, -2.0))
    return RequestQoS(
        priority=int(rng.integers(0, 3)),
        tenant=["default", "alpha", "beta"][int(rng.integers(0, 3))],
        weight=[1.0, 2.0][int(rng.integers(0, 2))],
        deadline=deadline,
    )


def _random_requests(model, rng):
    """3-6 requests: mixed policies, shared prefixes, forced decodes."""
    vocab = model.config.vocab_size
    shared_pool = rng.integers(4, vocab, size=48).tolist()
    requests = []
    for index in range(int(rng.integers(3, 7))):
        plen = int(rng.integers(20, 90))
        if rng.random() < 0.4:
            shared = min(int(rng.integers(8, 41)), plen - 1)
            prompt = shared_pool[:shared] + rng.integers(
                4, vocab, size=plen - shared
            ).tolist()
        else:
            prompt = rng.integers(4, vocab, size=plen).tolist()
        policy_name = [None, "pqcache", "snapkv"][int(rng.integers(0, 3))]
        forced = None
        max_new = int(rng.integers(2, 7))
        if rng.random() < 0.15:
            forced = rng.integers(4, vocab, size=int(rng.integers(2, 6))).tolist()
        requests.append(
            Request(
                prompt_ids=prompt,
                request_id=f"fuzz-{index}",
                sampling=SamplingParams(max_new_tokens=max_new,
                                        observation_window=8),
                policy_spec=_policy_spec(policy_name),
                forced_decode_ids=forced,
                qos=_random_qos(rng),
            )
        )
    return requests


def _min_pool_blocks(request, block_size):
    """Blocks the request needs resident at once (prompt + decode + COW)."""
    decoded = (
        len(request.forced_decode_ids)
        if request.forced_decode_ids is not None
        else request.sampling.max_new_tokens
    )
    tokens = len(request.prompt_ids) + decoded + 1
    return -(-tokens // block_size) + 1


def run_fuzz_seed(model, seed, stamp_clock=False):
    """One fuzz seed; ``stamp_clock`` passes the clock as ``arrival_time``."""
    rng = np.random.default_rng(seed)
    block_size = 8
    requests = _random_requests(model, rng)
    mode = "swap" if rng.random() < 0.5 else "recompute"
    chunk = [None, 24, 40][int(rng.integers(0, 3))]
    # Randomly arm proactive swap-out: another ordering-only knob that must
    # never move the bytes.
    proactive = [None, 0.5][int(rng.integers(0, 2))]
    # Random batch ceiling: small batches force real queuing, which is what
    # exercises the mid-wait deadline sweep and the EDF waiting order.
    batch = int(rng.integers(2, 5))
    floor = max(_min_pool_blocks(r, block_size) for r in requests)
    pool = floor + int(rng.integers(0, 6))
    context = (
        f"seed={seed} mode={mode} chunk={chunk} pool={pool} batch={batch} "
        f"proactive={proactive}"
    )

    # Uncontended ground truth: same engine configuration, unbounded pool.
    # Deadline shedding is OFF here — the reference serves every request to
    # completion so byte-identity can be checked for whatever the contended
    # engine finishes (deadlines steer scheduling, never bytes).
    reference = _make_engine(model, None, mode, chunk, block_size,
                             shed_deadlines=False, batch=batch)
    refs = reference.run(list(requests))

    engine = _make_engine(model, pool, mode, chunk, block_size,
                          proactive=proactive, batch=batch)
    engine.pressure.victim_log = []
    # Stagger submissions and plan a few aborts at random step indices.
    submit_at = {0: requests[:2]}
    for request in requests[2:]:
        submit_at.setdefault(int(rng.integers(0, 12)), []).append(request)
    abort_at = {}
    for request in requests:
        if rng.random() < 0.15:
            abort_at[int(rng.integers(1, 20))] = request.request_id

    finals = {}
    aborted = set()
    step_cap = 400 + 100 * len(requests)
    for step_index in range(step_cap):
        for request in submit_at.pop(step_index, []):
            engine.submit(
                request, arrival_time=engine.metrics.clock if stamp_clock else None
            )
        rid = abort_at.get(step_index)
        if rid is not None and rid in engine._states:
            engine.abort(rid)
            aborted.add(rid)
            audit_engine(engine, f"{context} abort@{step_index}")
        for output in engine.step():
            if output.finished:
                finals[output.request_id] = output
        audit_engine(engine, f"{context} step={step_index}")
        audit_victim_log(
            engine.pressure.victim_log, f"{context} step={step_index}"
        )
        if not submit_at and not engine.has_unfinished:
            break
    else:
        pytest.fail(f"{context}: engine made no progress within {step_cap} steps")

    for request in requests:
        rid = request.request_id
        if rid in aborted:
            continue
        assert rid in finals, f"{context}: request {rid} never finished"
        out = finals[rid]
        if out.finish_reason == "deadline":
            # A deadline shed must be genuine: either the clock had already
            # passed the absolute deadline when the request was dropped, or
            # admission control proved the deadline unmeetable from the
            # TTFT lower bound alone.
            assert request.qos.deadline is not None, (
                f"{context}: {rid} shed for a deadline it never had"
            )
            missed = out.metrics.finish_time > out.metrics.deadline
            infeasible = (
                engine.min_ttft_lower_bound(len(request.prompt_ids))
                > request.qos.deadline
            )
            assert missed or infeasible, (
                f"{context}: {rid} shed at clock {out.metrics.finish_time} "
                f"before its deadline {out.metrics.deadline}"
            )
            continue
        _outputs_equal(out, refs[rid])
    return engine


@pytest.mark.parametrize("case", range(FUZZ_CASES))
def test_randomized_scheduler_fuzz(fuzz_model, case):
    for seed in range(case * SEEDS_PER_CASE, (case + 1) * SEEDS_PER_CASE):
        run_fuzz_seed(fuzz_model, seed)


# -------------------------------------------------------- directed scenarios


def _long_request(rid, rng, plen, policy=None, max_new=5):
    return Request(
        prompt_ids=rng.integers(4, 128, size=plen).tolist(),
        request_id=rid,
        sampling=SamplingParams(max_new_tokens=max_new, observation_window=8),
        policy_spec=policy,
    )


def _swap_scenario_requests():
    rng = np.random.default_rng(1)
    return [
        _long_request(f"s{i}", rng, 100, _policy_spec(p))
        for i, p in enumerate([None, "pqcache", None, "snapkv"])
    ]


class TestDirectedPreemption:
    def test_swap_preemption_bytes_visible_and_identical(self, fuzz_model):
        """Half-working-set pool: everything completes, swap bytes surface."""
        requests = _swap_scenario_requests()
        refs = _make_engine(fuzz_model, None, "swap", 32).run(list(requests))
        # Working set: 4 requests x ~14 blocks; give roughly half.
        engine = _make_engine(fuzz_model, 28, "swap", 32)
        finals = engine.run(list(requests))
        for request in requests:
            _outputs_equal(finals[request.request_id], refs[request.request_id])
        metrics = engine.metrics
        assert metrics.preemptions > 0
        assert metrics.preemptions_swap > 0
        assert metrics.swap_out_bytes > 0 and metrics.swap_in_bytes > 0
        assert metrics.swap_out_blocks >= metrics.swap_in_blocks > 0
        assert metrics.swap_seconds > 0
        assert metrics.as_dict()["swap_out_bytes"] == metrics.swap_out_bytes
        audit_engine(engine, "swap directed")

    def test_swap_in_corruption_reaches_the_logits(self, fuzz_model, monkeypatch):
        """Attention reads the restored blocks themselves: a swap-in that
        restores one element wrong (layer 0, head 0, first row of the first
        stored block) changes some request's logits."""
        requests = _swap_scenario_requests()
        refs = _make_engine(fuzz_model, None, "swap", 32).run(list(requests))
        swap_in = SwapSpace.swap_in

        def corrupting_swap_in(self, handle, allocator):
            stored = [i for i, k in enumerate(handle.keys) if k is not None]
            block_ids = swap_in(self, handle, allocator)
            if stored:
                allocator.block_keys(block_ids[stored[0]])[0, 0, 0, 0] += 1.0
            return block_ids

        monkeypatch.setattr(SwapSpace, "swap_in", corrupting_swap_in)
        engine = _make_engine(fuzz_model, 28, "swap", 32)
        finals = engine.run(list(requests))
        assert engine.metrics.swap_in_blocks > 0
        assert any(
            not np.array_equal(finals[r.request_id].logits, refs[r.request_id].logits)
            for r in requests
        )

    def test_recompute_preemption_replays_identically(self, fuzz_model):
        rng = np.random.default_rng(2)
        requests = [
            _long_request(f"r{i}", rng, 100, _policy_spec(p))
            for i, p in enumerate([None, "pqcache", "snapkv", None])
        ]
        refs = _make_engine(fuzz_model, None, "recompute", 32).run(list(requests))
        engine = _make_engine(fuzz_model, 28, "recompute", 32)
        finals = engine.run(list(requests))
        for request in requests:
            _outputs_equal(finals[request.request_id], refs[request.request_id])
        metrics = engine.metrics
        assert metrics.preemptions_recompute > 0
        assert metrics.swap_out_blocks == 0  # pure recompute, no swap traffic
        per_request = [finals[r.request_id].metrics for r in requests]
        assert sum(m.recomputed_tokens for m in per_request) > 0
        audit_engine(engine, "recompute directed")

    def test_single_request_exceeding_pool_raises_cleanly(self, fuzz_model):
        rng = np.random.default_rng(3)
        engine = _make_engine(fuzz_model, 4, "swap", 32)
        engine.submit(_long_request("big", rng, 120))
        with pytest.raises(CapacityError):
            engine.run()
        # The engine is still serviceable: abort the stuck request and a
        # small one completes normally.
        engine.abort("big")
        audit_engine(engine, "post-capacity-error")
        small = _long_request("small", rng, 20, max_new=2)
        finals = engine.run([small])
        assert finals["small"].finished
        audit_engine(engine, "post-recovery")

    def test_instance_policy_falls_back_to_swap_in_recompute_mode(
        self, fuzz_model
    ):
        """A victim whose policy cannot be rebuilt is swapped, not dropped."""
        rng = np.random.default_rng(4)
        instance = build_policy("pqcache", _budget(), pq_config=PQ_CONFIG)
        young = _long_request(
            "young", rng, 90, PolicySpec.from_instance(instance)
        )
        old = _long_request("old", rng, 100)
        reference = _make_engine(fuzz_model, None, "recompute", 32)
        instance_ref = build_policy("pqcache", _budget(), pq_config=PQ_CONFIG)
        refs = reference.run([
            Request(
                prompt_ids=list(old.prompt_ids),
                request_id="old",
                sampling=old.sampling,
            ),
            Request(
                prompt_ids=list(young.prompt_ids),
                request_id="young",
                sampling=young.sampling,
                policy_spec=PolicySpec.from_instance(instance_ref),
            ),
        ])
        engine = _make_engine(fuzz_model, 16, "recompute", 32)
        finals = engine.run([old, young])
        assert engine.metrics.preemptions > 0
        assert engine.metrics.preemptions_swap > 0  # the fallback fired
        _outputs_equal(finals["young"], refs["young"])
        _outputs_equal(finals["old"], refs["old"])

    def test_abort_of_swapped_request_releases_everything(self, fuzz_model):
        rng = np.random.default_rng(5)
        old = _long_request("old", rng, 100)
        young = _long_request("young", rng, 90)
        engine = _make_engine(fuzz_model, 16, "swap", 32)
        engine.submit(old)
        engine.submit(young)
        swapped = None
        for _ in range(300):
            engine.step()
            swapped = next(
                (s for s in engine._states.values()
                 if s.swap_handle is not None), None,
            )
            if swapped is not None:
                break
            if not engine.has_unfinished:
                break
        assert swapped is not None, "pressure never forced a swap"
        engine.abort(swapped.request.request_id)
        audit_engine(engine, "post-abort-swapped")
        assert engine.swap_space.cpu_blocks + engine.swap_space.disk_blocks \
            == engine.prefix_cache.num_spilled
        engine.run()  # the survivor drains normally
        audit_engine(engine, "post-drain")

    def test_default_retention_never_wedges_a_bounded_pool(self, fuzz_model):
        """Regression: retained finished outputs must not pin the pool.

        With the default ``max_retained_outputs=None`` every finished
        output keeps its block references; once cumulative finished work
        exceeded the pool, new requests used to die with CapacityError.
        The escalation now releases retained outputs' pool references
        (oldest first) while keeping the outputs readable.
        """
        rng = np.random.default_rng(8)
        engine = InferenceEngine(
            fuzz_model,
            scheduler_config=SchedulerConfig(max_prefill_chunk_tokens=24),
            enable_prefix_caching=True,
            kv_block_size=8,
            kv_pool_blocks=10,
        )
        prompts = [rng.integers(4, 128, size=30).tolist() for _ in range(4)]
        for index, prompt in enumerate(prompts):
            finals = engine.run([Request(
                prompt_ids=prompt,
                request_id=f"keep-{index}",
                sampling=SamplingParams(max_new_tokens=4, observation_window=8),
            )])
            assert finals[f"keep-{index}"].finished
        # Every retained output is still readable after reclamation.
        for index in range(4):
            output = engine.final_output(f"keep-{index}")
            assert output.logits is not None and len(output.token_ids) > 0
            assert output.prefill.kvcache.seq_len >= 30

    def test_full_swap_tiers_fall_back_to_recompute(self, fuzz_model):
        """Regression: a swap-out the tiers cannot absorb must not crash.

        With a 1-block CPU tier and no disk tier, every chain swap-out
        fails; rebuildable victims must fall back to recompute-preemption
        and the schedule must still complete byte-identically.
        """
        rng = np.random.default_rng(9)
        requests = [_long_request(f"t{i}", rng, 90) for i in range(3)]
        refs = _make_engine(fuzz_model, None, "swap", 32).run(list(requests))
        engine = InferenceEngine(
            fuzz_model,
            scheduler_config=SchedulerConfig(
                max_prefill_chunk_tokens=32, preemption_mode="swap",
            ),
            enable_prefix_caching=True,
            kv_block_size=8,
            kv_pool_blocks=16,
            max_retained_outputs=0,
            swap_cpu_blocks=1,
            swap_disk_blocks=0,
        )
        finals = engine.run(list(requests))
        for request in requests:
            _outputs_equal(finals[request.request_id], refs[request.request_id])
        assert engine.metrics.preemptions_recompute > 0  # the fallback fired
        audit_engine(engine, "swap-tier fallback")

    def test_pinned_shared_prefixes_cannot_wedge_tiny_swap_tiers(
        self, fuzz_model
    ):
        """Regression: swapped requests' pins must yield under pressure.

        Requests sharing a long prefix swap out with most blocks *pinned*
        (shared with the prefix cache).  With next-to-no swap-tier room the
        pins can neither stay (they stuff the pool) nor materialise (no
        room) — the escalation must degrade parked swapped requests to
        recompute instead of raising CapacityError, and everything must
        still finish byte-identically.
        """
        rng = np.random.default_rng(10)
        shared = rng.integers(4, 128, size=64).tolist()
        requests = [
            Request(
                prompt_ids=shared + rng.integers(4, 128, size=40).tolist(),
                request_id=f"pin-{i}",
                sampling=SamplingParams(max_new_tokens=5, observation_window=8),
            )
            for i in range(3)
        ]
        refs = _make_engine(fuzz_model, None, "swap", 32).run(list(requests))
        engine = InferenceEngine(
            fuzz_model,
            scheduler_config=SchedulerConfig(
                max_prefill_chunk_tokens=32, preemption_mode="swap",
            ),
            enable_prefix_caching=True,
            kv_block_size=8,
            kv_pool_blocks=18,
            max_retained_outputs=0,
            swap_cpu_blocks=2,
            swap_disk_blocks=2,
        )
        finals = engine.run(list(requests))
        for request in requests:
            _outputs_equal(finals[request.request_id], refs[request.request_id])
        assert engine.metrics.preemptions > 0
        audit_engine(engine, "pinned tiny tiers")

    def test_repeated_evict_reinsert_cycles_keep_holds_bounded(self, fuzz_model):
        """Engine-level regression for the snapshot hold-ref leak."""
        rng = np.random.default_rng(6)
        prompt = rng.integers(4, 128, size=80).tolist()
        filler = [rng.integers(4, 128, size=80).tolist() for _ in range(3)]
        engine = _make_engine(fuzz_model, 16, "swap", 32)
        for cycle in range(4):
            requests = [
                Request(
                    prompt_ids=list(prompt),
                    request_id=f"warm-{cycle}",
                    sampling=SamplingParams(max_new_tokens=2,
                                            observation_window=8),
                    policy_spec=_policy_spec("pqcache"),
                ),
                Request(
                    prompt_ids=list(filler[cycle % 3]),
                    request_id=f"cold-{cycle}",
                    sampling=SamplingParams(max_new_tokens=2,
                                            observation_window=8),
                    policy_spec=_policy_spec("pqcache"),
                ),
            ]
            engine.run(requests)
            audit_engine(engine, f"cycle {cycle}")
        # Every stored snapshot's holds are bounded by the nodes that can
        # hold it — the pre-fix leak grew holds by one per evict/re-insert.
        nodes = list(engine.prefix_cache._nodes.values())
        snapshots = {
            id(s): s for node in nodes for s in node.pq_snapshots.values()
        }
        for snap in snapshots.values():
            holders = sum(
                1 for node in nodes if snap in node.pq_snapshots.values()
            )
            assert snap.hold_count == holders


# ------------------------------------------------------------ raw parking


class TestRawParking:
    """Every tier parks raw, and every transfer is counted once."""

    def test_defaults_move_raw_bytes_and_bill_no_codec_time(self, fuzz_model):
        """Swap-out / swap-in and spill / restore move whole blocks: the
        engine bills exactly the bytes the tiers stored and handed back,
        and the pre-raw wire names read the same numbers."""
        rng = np.random.default_rng(21)
        requests = [
            _long_request(f"c{i}", rng, 100, _policy_spec(p))
            for i, p in enumerate([None, "pqcache", None, "snapkv"])
        ]
        engine = _make_engine(fuzz_model, 28, "swap", 32)
        finals = engine.run(list(requests))
        # The first prompt again: its chain was spilled under the pressure
        # above, so the lookup restores it from the disk tier.
        again = Request(prompt_ids=list(requests[0].prompt_ids),
                        request_id="again", sampling=requests[0].sampling)
        finals.update(engine.run([again]))
        assert all(f.finished for f in finals.values())
        audit_engine(engine, "defaults")
        metrics, block = engine.metrics, engine.pressure.block_nbytes()
        tiers, cache = engine.swap_space.stats, engine.prefix_cache.stats
        assert metrics.swap_out_bytes > 0 and metrics.swap_in_bytes > 0
        assert cache.spilled_blocks > 0 and cache.restored_blocks > 0
        assert metrics.swap_out_bytes == metrics.swap_out_blocks * block
        assert metrics.swap_in_bytes == metrics.swap_in_blocks * block
        assert metrics.spill_out_bytes == (
            cache.spilled_blocks * block + cache.spilled_payload_bytes
        )
        assert metrics.spill_in_bytes == (
            cache.restored_blocks * block + cache.restored_payload_bytes
        )
        assert tiers.swapped_out_logical_bytes == (
            metrics.swap_out_bytes + cache.spilled_blocks * block
        )
        assert tiers.swapped_in_logical_bytes == (
            metrics.swap_in_bytes + cache.restored_blocks * block
        )
        assert (
            metrics.swap_out_wire_bytes, metrics.swap_in_wire_bytes,
            metrics.spill_out_wire_bytes, metrics.spill_in_wire_bytes,
        ) == (
            metrics.swap_out_bytes, metrics.swap_in_bytes,
            metrics.spill_out_bytes, metrics.spill_in_bytes,
        )

    @pytest.mark.parametrize("mode", ["swap", "recompute"])
    def test_spill_tier_keeps_engine_coherent_and_exact(self, fuzz_model, mode):
        """A pool tight enough to spill cold chains: audits hold, every
        request finishes byte-identical to an uncontended engine, and the
        spill traffic is billed at the blocks' modelled size."""
        rng = np.random.default_rng(23)
        requests = [
            _long_request(f"c{i}", rng, 100, _policy_spec(p))
            for i, p in enumerate([None, "pqcache", None, "snapkv"])
        ]
        refs = _make_engine(fuzz_model, None, mode, 32).run(list(requests))
        engine = _make_engine(fuzz_model, 24, mode, 32)
        finals = engine.run(list(requests))
        audit_engine(engine, f"spill tier {mode}")
        for request in requests:
            _outputs_equal(finals[request.request_id], refs[request.request_id])
        metrics, cache = engine.metrics, engine.prefix_cache.stats
        block = engine.pressure.block_nbytes()
        assert cache.spilled_blocks > 0
        assert metrics.spill_out_bytes == (
            cache.spilled_blocks * block + cache.spilled_payload_bytes
        )
        assert metrics.spill_in_bytes == (
            cache.restored_blocks * block + cache.restored_payload_bytes
        )


# ------------------------------------------------- the component, standalone


class _Parts:
    """A ``PoolPressure`` over real parts and *no engine*: a scheduler, a
    latency model, a metrics object, the three tiers and two plain dicts."""

    def __init__(self, config, pool_blocks, swap_space, batch=4, proactive=None):
        self.config = config
        self.allocator = BlockAllocator(
            config.num_layers, config.num_kv_heads, config.head_dim,
            block_size=4, capacity_blocks=pool_blocks,
            dtype_bytes=config.dtype_bytes,
        )
        self.swap_space = swap_space
        self.prefix_cache = PrefixCache(self.allocator, spill_store=swap_space)
        self.allocator.eviction_hook = self.prefix_cache.evict
        self.scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=batch, max_prefills_per_step=batch,
                            proactive_swap_free_fraction=proactive)
        )
        self.latency = LatencyModel(HardwareSpec.paper_testbed(), config)
        self.metrics = EngineMetrics()
        self.states = {}
        self.pressure = PoolPressure(
            self.scheduler, self.latency, self.metrics, self.allocator,
            swap_space, self.prefix_cache, self.states, {},
        )
        self.rng = np.random.default_rng(40)

    def grow(self, paged, num_tokens):
        shape = (self.config.num_kv_heads, num_tokens, self.config.head_dim)
        for layer in range(self.config.num_layers):
            kv = self.rng.normal(size=shape)
            paged[layer].append(kv, kv)

    def running(self, rid, seq, num_tokens, priority=0):
        """A RUNNING request holding ``num_tokens`` of KV in the pool."""
        state = RequestState(
            Request(prompt_ids=[4] * num_tokens, request_id=rid,
                    qos=RequestQoS(priority=priority)),
            arrival_time=0.0, seq=seq,
        )
        state.paged = PagedKVCache(self.allocator)
        self.grow(state.paged, num_tokens)
        self.states[rid] = state
        self.scheduler.submit(state)
        self.scheduler.schedule()
        return state


def test_pool_pressure_ladder_runs_without_an_engine(fuzz_model):
    """The whole ladder — reserve, evict/spill, preempt, park, and
    CapacityError for the top-ranked claimant only — on a component that
    was never given an engine."""
    parts = _Parts(fuzz_model.config, pool_blocks=6, swap_space=SwapSpace())
    pressure, metrics, scheduler = parts.pressure, parts.metrics, parts.scheduler
    assert "engine" not in inspect.signature(PoolPressure).parameters
    assert not any(
        isinstance(part, InferenceEngine) for part in vars(pressure).values()
    )
    pressure.victim_log = []
    old, young = parts.running("old", 0, 8), parts.running("young", 1, 8)

    # reserve: the free list covers it — nothing moves
    assert pressure.ensure_blocks(old, pressure.append_blocks_needed(old, 8))
    assert metrics.clock == 0.0 and metrics.preemptions == 0

    # evict: a cold cached chain fills the pool; reserving spills it to the
    # disk tier, and the spill traffic is settled on the clock
    warm = PagedKVCache(parts.allocator)
    parts.grow(warm, 8)
    parts.prefix_cache.insert(list(range(10, 18)), warm.table.block_ids)
    warm.release()
    assert parts.allocator.num_available == 0
    assert pressure.ensure_blocks(old, 2)
    assert parts.prefix_cache.stats.spilled_blocks == 2
    assert metrics.preemptions == 0
    assert metrics.spill_out_bytes == 2 * pressure.block_nbytes()
    assert metrics.clock == metrics.swap_seconds > 0.0
    parts.grow(old.paged, 8)

    # preempt: nothing left to evict, so the younger request is swapped out
    assert pressure.ensure_blocks(old, 2)
    assert young.status is RequestStatus.SWAPPED
    assert scheduler.waiting_items() == (young,)
    assert pressure.victim_log == [(0, 0, 0, 1)]
    assert metrics.preemptions == metrics.preemptions_swap == 1
    assert metrics.per_class[0].preemptions == 1
    assert metrics.swap_out_blocks == 2
    assert young.metrics.swap_out_bytes == 2 * pressure.block_nbytes()
    assert 0.0 < young.metrics.swap_seconds < metrics.swap_seconds
    parts.grow(old.paged, 8)

    # park: the re-admitted victim cannot take blocks from the older request
    assert scheduler.schedule().admitted == [young]
    assert not pressure.resume_swapped(young)
    assert young.status is RequestStatus.SWAPPED
    assert scheduler.waiting_items() == (young,)

    # top-ranked claimant: the parked chain degrades to recompute (the last
    # rung), and only then is the demand genuinely infeasible
    with pytest.raises(CapacityError):
        pressure.ensure_blocks(old, 1)
    assert young.status is RequestStatus.PREEMPTED and young.swap_handle is None
    assert metrics.preemptions_recompute == 1 and metrics.preemptions == 2
    assert parts.swap_space.cpu_blocks == 0


def test_failed_swap_out_still_bills_the_demotions_that_landed(fuzz_model):
    """A swap-out the tiers cannot absorb leaves the victim on the GPU, but
    the CPU→disk demotions it forced before failing did move bytes: exactly
    their disk write is on the clock, and nothing else is counted."""
    parts = _Parts(
        fuzz_model.config, pool_blocks=8,
        swap_space=SwapSpace(cpu_capacity_blocks=3, disk_capacity_blocks=1),
    )
    pressure, metrics, stats = parts.pressure, parts.metrics, parts.swap_space.stats
    one, two, three = (
        parts.running(f"r{n}", n, 4 * n) for n in (1, 2, 3)
    )
    assert pressure.preempt_victim(one) and pressure.preempt_victim(two)
    assert parts.swap_space.cpu_blocks == 3 and stats.demoted == 0
    before = metrics.snapshot()

    # three blocks need the whole CPU tier: ``one`` demotes to disk (room
    # for exactly one block), ``two`` cannot follow, the swap-out aborts —
    # and ``three``, rebuildable, is recompute-preempted instead
    assert pressure.preempt_victim(three)
    assert three.status is RequestStatus.PREEMPTED and three.swap_handle is None
    assert stats.demoted == 1 and one.swap_handle.tier == "disk"
    seconds = parts.latency.swap_out_seconds(0.0, float(stats.demoted_logical_bytes))
    assert seconds > 0.0
    assert metrics.clock == before.clock + seconds
    assert metrics.swap_seconds == before.swap_seconds + seconds
    assert metrics.swap_out_blocks == before.swap_out_blocks == 3
    assert metrics.swap_out_bytes == before.swap_out_bytes
    assert (metrics.preemptions_swap, metrics.preemptions_recompute) == (2, 1)
    assert three.metrics.swap_seconds == 0.0
