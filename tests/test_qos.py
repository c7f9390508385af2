"""Directed multi-tenant QoS property tests.

Companions to the randomized fuzz in ``test_preemption.py``:

* **liveness** — the highest class's oldest request always completes under
  2x oversubscription, and priority buys latency (class TTFT ordering);
* **starvation bound** — with shedding off, every submitted request of the
  lowest class still finishes (priority reorders, it never starves);
* **weighted fairness** — the chunked-prefill budget splits across tenants
  in proportion to their declared weights;
* **shedding** — ``max_waiting`` / ``shed_infeasible`` refuse work with
  ``finish_reason="shed"`` and leave zero pool/swap references behind;
* **metrics plumbing** — per-class/per-tenant buckets survive
  ``snapshot()/merge()/reset()`` and fleet aggregation (the regression for
  dict-valued EngineMetrics fields).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.serve import (
    ContinuousBatchingScheduler,
    EngineMetrics,
    InferenceEngine,
    QoSClassMetrics,
    Request,
    RequestQoS,
    SamplingParams,
    SchedulerConfig,
)
from test_preemption import _make_engine, _outputs_equal, audit_engine, fuzz_model

assert fuzz_model is not None  # re-exported fixture (quiet the linter)


def _request(rid, rng, plen=60, priority=0, tenant="default", weight=1.0,
             max_new=4):
    return Request(
        prompt_ids=rng.integers(4, 128, size=plen).tolist(),
        request_id=rid,
        sampling=SamplingParams(max_new_tokens=max_new, observation_window=8),
        qos=RequestQoS(priority=priority, tenant=tenant, weight=weight),
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
            SchedulerConfig(max_waiting=0)
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
        for policy, expected in (("lifo", "lo-young"), ("fifo", "lo-old")):
            sched = ContinuousBatchingScheduler(
                SchedulerConfig(max_batch_size=8, max_prefills_per_step=8,
                                victim_policy=policy)
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
            assert sched.pick_victim().name == expected

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
        # The burst of higher-class work reorders the low request but — with
        # admission control off — can never shed or starve it.
        assert finals["low"].finish_reason in ("length", "stop")
        assert engine.metrics.requests_shed == 0
        assert engine.metrics.per_class[0].requests_finished == 1


class TestShedding:
    def test_max_waiting_sheds_lowest_ranked(self, fuzz_model):
        rng = np.random.default_rng(32)
        engine = _qos_engine(fuzz_model, 30, max_batch_size=1,
                             max_prefills_per_step=1, max_waiting=1)
        engine.submit(_request("a", rng, priority=1))
        engine.step()  # "a" takes the only batch slot
        engine.submit(_request("b", rng, priority=0))   # waits
        engine.submit(_request("c", rng, priority=2))   # overflows the queue
        finals = engine.run()
        # The running request is untouchable by admission control; "b"
        # (lowest waiting class) was shed when "c" overflowed the 1-deep
        # waiting queue, even though "b" arrived first.
        assert finals["b"].finish_reason == "shed"
        assert finals["b"].token_ids == []
        assert finals["a"].finish_reason in ("length", "stop")
        assert finals["c"].finish_reason in ("length", "stop")
        assert engine.metrics.requests_shed == 1
        assert engine.metrics.per_class[0].requests_shed == 1
        assert engine.metrics.per_tenant["default"].requests_shed == 1
        audit_engine(engine, "overflow shed")

    def test_shed_frees_all_references(self, fuzz_model):
        rng = np.random.default_rng(33)
        engine = _qos_engine(fuzz_model, 30, max_batch_size=1,
                             max_prefills_per_step=1, max_waiting=1)
        engine.submit(_request("r0", rng, priority=1))
        engine.submit(_request("r1", rng, priority=0))
        engine.submit(_request("r2", rng, priority=0))
        # Both overflow submits shed immediately (r0 stays, each new p0
        # arrival is the lowest-ranked waiting item); the books must balance
        # before any step runs and after the drain.
        assert engine.metrics.requests_shed == 2
        audit_engine(engine, "post-shed, pre-run")
        finals = engine.run()
        shed_ids = {rid for rid, out in finals.items()
                    if out.finish_reason == "shed"}
        assert shed_ids == {"r1", "r2"}
        assert finals["r0"].finish_reason in ("length", "stop")
        audit_engine(engine, "post-shed, drained")

    def test_shed_infeasible_replaces_capacity_error(self, fuzz_model):
        rng = np.random.default_rng(34)
        # 4-block pool x 8-token blocks = 32 tokens; a 120-token prompt is
        # provably infeasible.
        engine = _qos_engine(fuzz_model, 4, shed_infeasible=True)
        engine.submit(_request("big", rng, plen=120))
        finals = engine.run()
        assert finals["big"].finish_reason == "shed"
        assert engine.metrics.requests_shed == 1
        # Without the opt-in the same demand still raises (pre-QoS contract).
        strict = _qos_engine(fuzz_model, 4)
        strict.submit(_request("big", rng, plen=120))
        with pytest.raises(CapacityError):
            strict.run()

    def test_shed_output_flows_through_stream(self, fuzz_model):
        rng = np.random.default_rng(35)
        engine = _qos_engine(fuzz_model, 4, shed_infeasible=True)
        engine.submit(_request("big", rng, plen=120))
        outputs = list(engine.stream())
        assert [o.finish_reason for o in outputs if o.finished] == ["shed"]


class TestProactiveSwap:
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
