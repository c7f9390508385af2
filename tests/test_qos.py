"""Directed multi-tenant QoS property tests.

Companions to the randomized fuzz in ``test_preemption.py``:

* **liveness** — the highest class's oldest request always completes under
  2x oversubscription, and priority buys latency (class TTFT ordering);
* **starvation bound** — without deadlines, every submitted request of the
  lowest class still finishes (priority reorders, it never starves);
* **weighted fairness** — the chunked-prefill budget splits across tenants
  in proportion to their declared weights;
* **victim order** — pool pressure takes the lowest running class first and
  within it the most recently admitted request, reactively and proactively;
* **shedding** — only a missed or unmeetable deadline sheds: the waiting
  queue is unbounded, a prompt larger than the pool raises
  ``CapacityError``, and a shed leaves zero pool/swap references behind;
* **metrics plumbing** — per-class/per-tenant buckets survive
  ``snapshot()/merge()/reset()`` and fleet aggregation (the regression for
  dict-valued EngineMetrics fields).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.llm.kvcache import SwapSpace
from repro.serve import (
    ContinuousBatchingScheduler,
    EngineMetrics,
    InferenceEngine,
    QoSClassMetrics,
    Request,
    RequestQoS,
    RequestStatus,
    SamplingParams,
    SchedulerConfig,
)
from repro.serve.state import RequestState
from test_preemption import (
    _make_engine,
    _outputs_equal,
    _Parts,
    audit_engine,
    fuzz_model,
)

assert fuzz_model is not None  # re-exported fixture (quiet the linter)


def _request(rid, rng, plen=60, priority=0, tenant="default", weight=1.0,
             max_new=4, deadline=None):
    return Request(
        prompt_ids=rng.integers(4, 128, size=plen).tolist(),
        request_id=rid,
        sampling=SamplingParams(max_new_tokens=max_new, observation_window=8),
        qos=RequestQoS(priority=priority, tenant=tenant, weight=weight,
                       deadline=deadline),
    )


def _qos_engine(model, pool_blocks, **scheduler_kwargs):
    scheduler_kwargs.setdefault("max_batch_size", 4)
    scheduler_kwargs.setdefault("max_prefill_chunk_tokens", 32)
    return InferenceEngine(
        model,
        scheduler_config=SchedulerConfig(**scheduler_kwargs),
        enable_prefix_caching=True,
        kv_block_size=8,
        kv_pool_blocks=pool_blocks,
        max_retained_outputs=0,
    )


# ---------------------------------------------------------------- spec


class TestRequestQoS:
    def test_defaults_are_single_best_effort_class(self):
        qos = RequestQoS()
        assert (qos.priority, qos.tenant, qos.weight) == (0, "default", 1.0)
        assert Request(prompt_ids=[1, 2]).qos == qos

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RequestQoS(tenant="")
        with pytest.raises(ConfigurationError):
            RequestQoS(weight=0.0)
        with pytest.raises(ConfigurationError):
            RequestQoS(weight=-1.0)

    def test_scheduler_config_validation(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(proactive_swap_free_fraction=0.0)
        with pytest.raises(ConfigurationError):
            SchedulerConfig(proactive_swap_free_fraction=1.5)


# ----------------------------------------------------- scheduler ordering


class _Item:
    """Bare ``Schedulable`` item (the protocol RequestState implements)."""

    deadline_time = None

    def __init__(self, name, remaining=0, priority=0, tenant="default",
                 weight=1.0, seq=0):
        self.name = name
        self.remaining_prefill_tokens = remaining
        self.priority = priority
        self.tenant = tenant
        self.weight = weight
        self.seq = seq

    def __repr__(self):
        return f"Item({self.name})"


class TestSchedulerOrdering:
    def test_admission_is_priority_then_fcfs(self):
        sched = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=8, max_prefills_per_step=8)
        )
        items = [
            _Item("lo-0", priority=0, seq=0),
            _Item("hi-0", priority=2, seq=1),
            _Item("mid", priority=1, seq=2),
            _Item("hi-1", priority=2, seq=3),
        ]
        for item in items:
            sched.submit(item)
        admitted = sched.schedule().admitted
        assert [item.name for item in admitted] == ["hi-0", "hi-1", "mid", "lo-0"]

    def test_untagged_queue_stays_fcfs(self):
        sched = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=8, max_prefills_per_step=8)
        )
        items = [_Item(f"r{i}", seq=i) for i in range(4)]
        for item in items:
            sched.submit(item)
        assert [i.name for i in sched.schedule().admitted] == \
            ["r0", "r1", "r2", "r3"]

    def test_preempt_requeues_at_front_of_class_only(self):
        sched = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=8, max_prefills_per_step=8)
        )
        victim = _Item("victim", priority=1, seq=0)
        sched.submit(victim)
        sched.schedule()  # victim is running
        sched.submit(_Item("hi", priority=2, seq=1))
        sched.submit(_Item("peer", priority=1, seq=2))
        sched.preempt(victim)
        # Above its same-class peer, but never above the higher class.
        assert [i.name for i in sched.waiting_items()] == \
            ["hi", "victim", "peer"]

    def test_victims_come_from_the_lowest_class_first(self):
        sched = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=8, max_prefills_per_step=8)
        )
        items = [
            _Item("lo-old", priority=0, seq=0),
            _Item("hi", priority=2, seq=1),
            _Item("lo-young", priority=0, seq=2),
            _Item("mid", priority=1, seq=3),
        ]
        for item in items:
            sched.submit(item)
        sched.schedule()
        # Lowest class first, and within it the most recently admitted.
        assert sched.pick_victim().name == "lo-young"

    @pytest.mark.parametrize("seed", range(10))
    def test_pick_victim_matches_the_lifo_oracle(self, seed):
        """Random submit/schedule/preempt/finish sequences against an oracle
        that tracks admission order itself: the victim is from the lowest
        running class, within it the latest admitted, never excluded."""
        rng = np.random.default_rng(seed)
        sched = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=int(rng.integers(2, 7)),
                            max_prefills_per_step=int(rng.integers(1, 4)))
        )
        admitted = []  # running items, earliest admission first
        for seq in range(80):
            draw = rng.random()
            if draw < 0.35:
                sched.submit(_Item(f"r{seq}", priority=int(rng.integers(0, 3)),
                                   seq=seq))
            elif draw < 0.65:
                admitted.extend(sched.schedule().admitted)
            elif admitted:
                item = admitted.pop(int(rng.integers(len(admitted))))
                if draw < 0.8:
                    sched.preempt(item)
                else:
                    sched.finish(item)
            assert list(sched.running_items()) == admitted
            excluded = [item for item in admitted if rng.random() < 0.3]
            eligible = [item for item in admitted if item not in excluded]
            expected = None
            if eligible:
                lowest = min(item.priority for item in eligible)
                expected = [item for item in eligible
                            if item.priority == lowest][-1]
            assert sched.pick_victim(excluded) is expected

    @pytest.mark.parametrize("seed", range(6))
    def test_saturated_tenants_split_by_declared_weight(self, seed):
        """Every tenant wants more than the whole budget, so nothing rolls
        over: the budget is spent, and each tenant's grant is its declared
        weight's share of it.  Each tenant served before the last rounds its
        share up by under one token, so no grant is off by a token per
        tenant."""
        rng = np.random.default_rng(seed)
        budget = int(rng.integers(40, 200))
        weights = {f"t{i}": float(rng.integers(1, 5))
                   for i in range(int(rng.integers(2, 5)))}
        sched = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=16, max_prefills_per_step=16,
                            max_prefill_chunk_tokens=budget)
        )
        seq = 0
        for tenant, weight in weights.items():
            for _ in range(int(rng.integers(1, 4))):
                sched.submit(_Item(f"{tenant}-{seq}", remaining=budget + 1,
                                   tenant=tenant, weight=weight, seq=seq))
                seq += 1
        grants = dict.fromkeys(weights, 0)
        for item, tokens in sched.schedule().prefill_chunks:
            grants[item.tenant] += tokens
        assert sum(grants.values()) == budget
        total = sum(weights.values())
        for tenant, weight in weights.items():
            assert abs(grants[tenant] - budget * weight / total) < len(weights), grants

    def test_weighted_fair_split_matches_tenant_weights(self):
        sched = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=8, max_prefills_per_step=8,
                            max_prefill_chunk_tokens=90)
        )
        items = [
            _Item("a0", remaining=100, tenant="alpha", weight=2.0, seq=0),
            _Item("a1", remaining=100, tenant="alpha", weight=2.0, seq=1),
            _Item("b0", remaining=100, tenant="beta", weight=1.0, seq=2),
        ]
        for item in items:
            sched.submit(item)
        decision = sched.schedule()
        grants = {item.name: n for item, n in decision.prefill_chunks}
        # 90 tokens at 2:1 → alpha 60 (max-min 30/30 inside), beta 30.
        assert grants["a0"] + grants["a1"] == 60
        assert grants["b0"] == 30

    def test_single_tenant_split_reduces_to_plain_max_min(self):
        sched = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=8, max_prefills_per_step=8,
                            max_prefill_chunk_tokens=40)
        )
        items = [
            _Item("short", remaining=10, seq=0),
            _Item("long", remaining=100, seq=1),
        ]
        for item in items:
            sched.submit(item)
        grants = {item.name: n
                  for item, n in sched.schedule().prefill_chunks}
        # Pre-QoS water-filling: short served fully, leftover to long.
        assert grants == {"short": 10, "long": 30}

    def test_underusing_tenant_rolls_budget_over(self):
        sched = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=8, max_prefills_per_step=8,
                            max_prefill_chunk_tokens=80)
        )
        items = [
            _Item("tiny", remaining=8, tenant="alpha", weight=1.0, seq=0),
            _Item("big", remaining=200, tenant="beta", weight=1.0, seq=1),
        ]
        for item in items:
            sched.submit(item)
        grants = {item.name: n
                  for item, n in sched.schedule().prefill_chunks}
        assert grants["tiny"] == 8
        assert grants["big"] == 72  # alpha's unused share rolled over


# ----------------------------------------------------- engine properties


class TestQoSLiveness:
    def test_top_class_oldest_finishes_under_2x_oversubscription(
        self, fuzz_model
    ):
        rng = np.random.default_rng(30)
        requests = [
            _request("bg-0", rng, plen=80, priority=0, tenant="batch"),
            _request("bg-1", rng, plen=80, priority=0, tenant="batch"),
            _request("fg-0", rng, plen=80, priority=2, tenant="chat"),
            _request("bg-2", rng, plen=80, priority=0, tenant="batch"),
            _request("fg-1", rng, plen=80, priority=2, tenant="chat"),
            _request("bg-3", rng, plen=80, priority=0, tenant="batch"),
        ]
        refs = _make_engine(fuzz_model, None, "swap", 32).run(
            [Request(prompt_ids=list(r.prompt_ids), request_id=r.request_id,
                     sampling=r.sampling, qos=r.qos) for r in requests]
        )
        # Working set ≈ 6 requests x 11 blocks; give roughly half.
        engine = _qos_engine(fuzz_model, 34)
        engine.pressure.victim_log = []
        finals = engine.run(list(requests))
        # Liveness: everything finishes (no shed, no CapacityError) and the
        # bytes never moved.
        for request in requests:
            assert finals[request.request_id].finish_reason in ("length", "stop")
            _outputs_equal(finals[request.request_id], refs[request.request_id])
        audit_engine(engine, "qos liveness")
        # Priority bought latency: the top class's mean TTFT beats the
        # background class's, and the oldest top-class request was never a
        # victim of a lower class.
        per_class = engine.metrics.per_class
        assert per_class[2].mean_ttft < per_class[0].mean_ttft
        for _, _, vp, vs in engine.pressure.victim_log:
            assert not (vp == 2 and vs == 2)  # fg-0 (seq 2) never victimised
        assert per_class[2].requests_finished == 2
        assert per_class[0].requests_finished == 4

    def test_lowest_class_never_starves_with_shedding_off(self, fuzz_model):
        rng = np.random.default_rng(31)
        low = _request("low", rng, plen=60, priority=0, tenant="batch")
        highs = [
            _request(f"high-{i}", rng, plen=60, priority=3, tenant="chat")
            for i in range(5)
        ]
        engine = _qos_engine(fuzz_model, 30)
        engine.submit(low)
        for high in highs:
            engine.submit(high)
        finals = engine.run()
        # The burst of higher-class work reorders the low request but — it
        # carries no deadline — can never shed or starve it.
        assert finals["low"].finish_reason in ("length", "stop")
        assert engine.metrics.requests_shed == 0
        assert engine.metrics.per_class[0].requests_finished == 1


class TestShedding:
    """Only a missed or unmeetable deadline sheds a request."""

    @pytest.mark.parametrize("path", ["run", "stream", "held"])
    @pytest.mark.parametrize("mode", ["swap", "recompute"])
    def test_oversized_prompt_raises_and_engine_recovers(
        self, fuzz_model, mode, path
    ):
        """A prompt larger than the bounded pool is accepted at submit and
        raises ``CapacityError`` when it is prefilled — after a held arrival
        too — and is never shed; aborting it leaves the engine serviceable."""
        rng = np.random.default_rng(34)
        # 4-block pool x 8-token blocks = 32 tokens; 120 can never fit.
        engine = _qos_engine(fuzz_model, 4, preemption_mode=mode)
        engine.submit(_request("big", rng, plen=120),
                      arrival_time=0.3 if path == "held" else None)
        with pytest.raises(CapacityError):
            if path == "stream":
                list(engine.stream())
            else:
                engine.run()
        assert engine.metrics.requests_shed == 0
        engine.abort("big")
        audit_engine(engine, f"{mode}/{path} post-capacity-error")
        finals = engine.run([_request("small", rng, plen=20, max_new=2)])
        assert finals["small"].finish_reason == "length"
        audit_engine(engine, f"{mode}/{path} post-recovery")

    @pytest.mark.parametrize("mode", ["swap", "recompute"])
    def test_waiting_queue_is_unbounded(self, fuzz_model, mode):
        """Eight requests queue behind one batch slot on a tight pool: none
        is shed, and every one finishes byte-identical to an uncontended
        engine."""
        rng = np.random.default_rng(35)
        requests = [_request(f"r{i}", rng, plen=40, priority=i % 3)
                    for i in range(8)]
        refs = _make_engine(fuzz_model, None, mode, 32).run(
            [Request(prompt_ids=list(r.prompt_ids), request_id=r.request_id,
                     sampling=r.sampling, qos=r.qos) for r in requests]
        )
        engine = _qos_engine(fuzz_model, 12, max_batch_size=1,
                             max_prefills_per_step=1, preemption_mode=mode)
        for request in requests:
            engine.submit(request)
        assert engine.num_waiting == len(requests)
        finals = engine.run()
        for request in requests:
            _outputs_equal(finals[request.request_id], refs[request.request_id])
        assert engine.metrics.requests_shed == 0
        audit_engine(engine, f"{mode} unbounded queue")

    @staticmethod
    def _doomed_behind_a_blocker(model, scenario):
        """One batch slot held by a class-3 blocker, and a class-1 request
        whose deadline fails: provably unmeetable at submit
        (``admission``) or at its held arrival (``held``), or passed while
        it waits (``mid_wait``)."""
        rng = np.random.default_rng(36)
        engine = _qos_engine(model, 30, max_batch_size=1,
                             max_prefills_per_step=1)
        engine.submit(_request("blocker", rng, plen=80, priority=3,
                               max_new=6))
        bound = engine.min_ttft_lower_bound(60)
        deadline = 4.0 * bound if scenario == "mid_wait" else bound / 2
        engine.submit(
            _request("doomed", rng, priority=1, tenant="chat",
                     deadline=deadline),
            arrival_time=bound if scenario == "held" else None,
        )
        return engine

    @pytest.mark.parametrize("scenario", ["admission", "held", "mid_wait"])
    def test_deadline_shed_releases_everything(self, fuzz_model, scenario):
        engine = self._doomed_behind_a_blocker(fuzz_model, scenario)
        finals = {}
        while engine.has_unfinished:
            for output in engine.step():
                if output.finished:
                    finals[output.request_id] = output
            audit_engine(engine, f"{scenario} step")
        assert finals["blocker"].finish_reason == "length"
        doomed = finals["doomed"]
        assert doomed.finish_reason == "deadline" and doomed.token_ids == []
        assert "doomed" not in engine._states
        metrics = engine.metrics
        assert metrics.requests_shed == metrics.deadline_misses == 1
        assert metrics.per_class[1].requests_shed == 1
        assert metrics.per_tenant["chat"].requests_shed == 1

    @pytest.mark.parametrize("scenario", ["admission", "held", "mid_wait"])
    def test_deadline_shed_flows_through_stream(self, fuzz_model, scenario):
        engine = self._doomed_behind_a_blocker(fuzz_model, scenario)
        finished = [(output.request_id, output.finish_reason)
                    for output in engine.stream() if output.finished]
        assert sorted(finished) == [("blocker", "length"),
                                    ("doomed", "deadline")]

    @pytest.mark.parametrize("seed", range(6))
    def test_held_arrivals_shed_only_for_deadlines(self, fuzz_model, seed):
        """Random future arrivals, about half with deadlines, on a one- or
        two-slot engine: after every step the books balance, and at the end
        every shed request carried a deadline it had missed or could never
        meet, got no tokens, and everything else completed."""
        rng = np.random.default_rng(200 + seed)
        engine = _qos_engine(
            fuzz_model, 12, max_batch_size=int(rng.integers(1, 3)),
            preemption_mode=["swap", "recompute"][int(rng.integers(0, 2))],
        )
        # A run lasts about 10^6 one-token prefills of simulated time, so
        # deadlines of 10^3-10^6 of them mix met and missed ones.
        token = engine.min_ttft_lower_bound(1)
        requests = []
        for index in range(6):
            deadline = None
            if rng.random() < 0.5:
                deadline = float(token * 10.0 ** rng.uniform(3.0, 6.0))
            request = _request(
                f"r{index}", rng, plen=int(rng.integers(20, 70)),
                priority=int(rng.integers(0, 3)),
                tenant=["alpha", "beta"][int(rng.integers(0, 2))],
                deadline=deadline,
            )
            engine.submit(request,
                          arrival_time=float(rng.uniform(0.0, 5e5 * token)))
            requests.append(request)
        finals = {}
        for step_index in range(500):
            for output in engine.step():
                if output.finished:
                    finals[output.request_id] = output
            audit_engine(engine, f"seed={seed} step={step_index}")
            if not engine.has_unfinished:
                break
        else:
            pytest.fail(f"seed={seed}: no progress within 500 steps")
        shed = 0
        for request in requests:
            output = finals[request.request_id]
            if output.finish_reason != "deadline":
                assert output.finish_reason == "length"
                continue
            shed += 1
            assert request.qos.deadline is not None and output.token_ids == []
            missed = output.metrics.finish_time > output.metrics.deadline
            unmeetable = (engine.min_ttft_lower_bound(len(request.prompt_ids))
                          > request.qos.deadline)
            assert missed or unmeetable
        assert engine.metrics.requests_shed == shed


class TestProactiveSwap:
    @pytest.mark.parametrize("threshold, swapped", [
        (None, []),
        (0.25, []),
        (0.5, ["young"]),
        (0.75, ["young", "old"]),
        (1.0, ["young", "old", "mid"]),
    ])
    def test_threshold_comes_from_the_scheduler_config(
        self, fuzz_model, threshold, swapped
    ):
        """Two of eight blocks free and class-2 work waiting: each swap-out
        frees two blocks, taking the lowest class first and the youngest
        within it, until the configured free fraction is met."""
        parts = _Parts(fuzz_model.config, pool_blocks=8,
                       swap_space=SwapSpace(), proactive=threshold)
        running = {
            "old": parts.running("old", 0, 8),
            "young": parts.running("young", 1, 8),
            "mid": parts.running("mid", 2, 8, priority=1),
        }
        parts.scheduler.submit(RequestState(
            Request(prompt_ids=[4] * 8, request_id="top",
                    qos=RequestQoS(priority=2)),
            arrival_time=0.0, seq=3,
        ))
        assert parts.allocator.num_available == 2
        assert parts.pressure.proactive_swap_out() == len(swapped)
        assert sorted(rid for rid, state in running.items()
                      if state.status is RequestStatus.SWAPPED) == sorted(swapped)
        assert parts.metrics.proactive_swap_outs == len(swapped)
        assert parts.allocator.num_available == 2 + 2 * len(swapped)

    def test_pool_pressure_swaps_low_priority_for_waiting_high(
        self, fuzz_model
    ):
        rng = np.random.default_rng(36)
        low = _request("low", rng, plen=80, priority=0, max_new=6)
        high = _request("high", rng, plen=80, priority=2, max_new=6)
        refs = _make_engine(fuzz_model, None, "swap", 32).run(
            [Request(prompt_ids=list(r.prompt_ids), request_id=r.request_id,
                     sampling=r.sampling, qos=r.qos) for r in (low, high)]
        )
        engine = _qos_engine(fuzz_model, 24,
                             proactive_swap_free_fraction=0.9)
        engine.submit(low)
        engine.step()  # low starts prefilling, pool tightens
        engine.submit(high)
        finals = {}
        for _ in range(300):
            for output in engine.step():
                if output.finished:
                    finals[output.request_id] = output
            if not engine.has_unfinished:
                break
        assert engine.metrics.proactive_swap_outs > 0
        assert engine.metrics.per_class[0].proactive_swap_outs > 0
        _outputs_equal(finals["low"], refs["low"])
        _outputs_equal(finals["high"], refs["high"])
        audit_engine(engine, "proactive swap")

    def test_no_proactive_swap_without_higher_priority_waiting(
        self, fuzz_model
    ):
        rng = np.random.default_rng(37)
        engine = _qos_engine(fuzz_model, 24,
                             proactive_swap_free_fraction=0.9)
        finals = engine.run([
            _request("p0", rng, plen=80, priority=1),
            _request("p1", rng, plen=80, priority=1),
        ])
        # Same class everywhere: proactive swap must never fire (the
        # reactive ladder may still preempt under genuine pressure).
        assert engine.metrics.proactive_swap_outs == 0
        assert all(f.finish_reason in ("length", "stop")
                   for f in finals.values())


# -------------------------------------------------------------- metrics


class TestQoSMetrics:
    def _bucketed(self):
        metrics = EngineMetrics(clock=2.0, requests_shed=1)
        bucket = metrics.class_bucket(1)
        bucket.requests_submitted = 3
        bucket.requests_finished = 2
        bucket.ttft.observe(1.5)
        bucket.ttft.observe(2.5)
        metrics.tenant_bucket("chat").requests_submitted = 3
        return metrics

    def test_snapshot_isolates_buckets(self):
        metrics = self._bucketed()
        snap = metrics.snapshot()
        metrics.class_bucket(1).requests_finished += 5
        metrics.class_bucket(7).requests_submitted += 1
        assert snap.per_class[1].requests_finished == 2
        assert 7 not in snap.per_class

    def test_merge_sums_buckets_per_key(self):
        a, b = self._bucketed(), self._bucketed()
        b.clock = 5.0
        b.class_bucket(2).requests_submitted = 4
        a.merge(b.snapshot())
        assert a.clock == 5.0  # clocks max
        assert a.requests_shed == 2  # counters sum
        assert a.per_class[1].requests_submitted == 6
        assert a.per_class[1].mean_ttft == pytest.approx(2.0)
        assert a.per_class[1].ttft.count == 4  # digests merge exactly
        assert a.per_class[2].requests_submitted == 4
        assert a.per_tenant["chat"].requests_submitted == 6
        # Merging does not alias: mutating the source leaves the sink alone.
        b.class_bucket(2).requests_submitted = 100
        assert a.per_class[2].requests_submitted == 4

    def test_reset_restores_default_factory_fields(self):
        metrics = self._bucketed()
        metrics.reset()
        assert metrics.per_class == {} and metrics.per_tenant == {}
        assert metrics.requests_shed == 0 and metrics.clock == 0.0
        # Regression: reset used to write dataclasses.MISSING into
        # default_factory fields; a fresh bucket must work afterwards.
        metrics.class_bucket(0).requests_submitted += 1
        assert metrics.per_class[0].requests_submitted == 1

    def test_qos_class_metrics_roundtrip(self):
        bucket = QoSClassMetrics(requests_finished=2)
        for ttft, tpot in ((1.0, 0.4), (2.0, 0.6)):
            bucket.ttft.observe(ttft)
            bucket.tpot.observe(tpot)
        assert bucket.mean_ttft == pytest.approx(1.5)
        assert bucket.mean_tpot == pytest.approx(0.5)
        assert QoSClassMetrics().mean_ttft is None
        merged = bucket.snapshot().merge(bucket)
        assert merged.requests_finished == 4
        assert merged.ttft.count == 4
        assert bucket.requests_finished == 2  # snapshot detached
        assert bucket.ttft.count == 2  # digest snapshot detached too
        report = bucket.as_dict()
        assert report["requests_finished"] == 2
        assert report["mean_ttft"] == pytest.approx(1.5)
        assert report["ttft"]["p99"] == pytest.approx(2.0, rel=0.03)

    def test_request_metrics_backward_compatible_defaults(self):
        metrics = Request(prompt_ids=[1]).qos  # untouched default spec
        assert (metrics.priority, metrics.tenant) == (0, "default")
        from repro.serve import RequestMetrics

        legacy = RequestMetrics(arrival_time=1.0, num_prompt_tokens=4)
        assert legacy.priority == 0 and legacy.tenant == "default"
        report = legacy.as_dict()
        assert report["priority"] == 0 and report["tenant"] == "default"

    def test_engine_as_dict_carries_qos_sections(self, fuzz_model):
        rng = np.random.default_rng(38)
        engine = _qos_engine(fuzz_model, None)
        engine.run([_request("r", rng, priority=1, tenant="chat")])
        report = engine.metrics.as_dict()
        assert report["per_class"][1]["requests_finished"] == 1
        assert report["per_tenant"]["chat"]["requests_finished"] == 1
        assert report["requests_shed"] == 0
