"""Deadline-aware EDF scheduling, deadline shedding and quantile digests.

Directed companions to the randomized coverage in ``test_preemption.py``
(per-step EDF waiting-order oracle, genuine-miss shed audit) and
``test_cluster.py`` (cluster deadline fuzz):

* :class:`~repro.serve.RequestQoS` deadline validation and resolution
  against the simulated clock;
* EDF ordering inside the scheduler's waiting queue — within a priority
  class, deadline-tagged items in earliest-deadline order ahead of the
  untagged FCFS tail, preemption victims re-entering at the front of their
  rank;
* deadline-miss shedding, at admission (provably unmeetable) and mid-wait
  (clock passed the deadline), with ``finish_reason="deadline"`` and the
  miss counters;
* :class:`~repro.serve.QuantileDigest` accuracy/merge/snapshot/bound
  semantics.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    PoolConfig,
    QuantileDigest,
    Request,
    RequestQoS,
    SamplingParams,
    SchedulerConfig,
)
from repro.serve.scheduler import ContinuousBatchingScheduler


def make_request(rid, prompt, deadline=None, priority=0, tenant="default",
                 weight=1.0, max_new=3):
    return Request(
        request_id=rid,
        prompt_ids=list(prompt),
        sampling=SamplingParams(max_new_tokens=max_new),
        qos=RequestQoS(priority=priority, tenant=tenant, weight=weight,
                       deadline=deadline),
    )


def make_prompt(rng, n=60, vocab=256):
    return rng.integers(4, vocab, size=n).tolist()


# ---------------------------------------------------------------------------
# RequestQoS deadline field
# ---------------------------------------------------------------------------


class TestDeadlineQoS:
    def test_deadline_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            RequestQoS(deadline=0.0)
        with pytest.raises(ConfigurationError):
            RequestQoS(deadline=-1.0)
        assert RequestQoS(deadline=None).deadline is None
        assert RequestQoS(deadline=0.5).deadline == 0.5

    def test_deadline_resolves_against_submit_clock(self, model, rng):
        """The relative deadline is anchored at the *simulated* submit
        instant, not at zero."""
        engine = InferenceEngine(model)
        engine.metrics.clock = 5.0
        rid = engine.submit(make_request("d0", make_prompt(rng), deadline=2.0))
        state = engine._states[rid]
        assert state.deadline_time == pytest.approx(7.0)
        assert state.metrics.deadline == pytest.approx(7.0)
        engine.run()

    def test_untagged_request_has_no_deadline_time(self, model, rng):
        engine = InferenceEngine(model)
        rid = engine.submit(make_request("d1", make_prompt(rng)))
        state = engine._states[rid]
        assert state.deadline_time is None
        assert state.metrics.deadline is None
        engine.run()


# ---------------------------------------------------------------------------
# Scheduler-level EDF ordering (duck-typed items)
# ---------------------------------------------------------------------------


class _Item(SimpleNamespace):
    """Minimal scheduler item: the duck-typed QoS protocol attributes."""

    def __init__(self, name, priority=0, seq=0, deadline_time=None):
        super().__init__(name=name, priority=priority, seq=seq,
                         deadline_time=deadline_time)

    def __repr__(self):
        return self.name


def _waiting_names(scheduler):
    return [item.name for item in scheduler.waiting_items()]


class TestEDFOrdering:
    def test_deadlines_order_within_class_ahead_of_fcfs_tail(self):
        scheduler = ContinuousBatchingScheduler()
        scheduler.submit(_Item("plain-a", seq=0))
        scheduler.submit(_Item("late", seq=1, deadline_time=9.0))
        scheduler.submit(_Item("plain-b", seq=2))
        scheduler.submit(_Item("early", seq=3, deadline_time=2.0))
        assert _waiting_names(scheduler) == [
            "early", "late", "plain-a", "plain-b"
        ]

    def test_priority_classes_never_mix(self):
        """EDF is strictly *within* a class — a tight deadline never lifts a
        request over a higher class."""
        scheduler = ContinuousBatchingScheduler()
        scheduler.submit(_Item("hi-plain", priority=2, seq=0))
        scheduler.submit(_Item("lo-urgent", priority=0, seq=1,
                               deadline_time=0.001))
        scheduler.submit(_Item("hi-late", priority=2, seq=2,
                               deadline_time=50.0))
        assert _waiting_names(scheduler) == [
            "hi-late", "hi-plain", "lo-urgent"
        ]

    def test_no_deadlines_degenerates_to_per_class_fcfs(self):
        scheduler = ContinuousBatchingScheduler()
        for seq, (name, priority) in enumerate(
            [("b0", 0), ("a0", 1), ("b1", 0), ("a1", 1)]
        ):
            scheduler.submit(_Item(name, priority=priority, seq=seq))
        assert _waiting_names(scheduler) == ["a0", "a1", "b0", "b1"]

    def test_untagged_victim_reenters_ahead_of_fcfs_tail_only(self):
        """A preempted deadline-less victim resumes before newer untagged
        arrivals of its class but still behind its class's EDF head."""
        scheduler = ContinuousBatchingScheduler()
        victim = _Item("victim", seq=0)
        scheduler.submit(victim)
        decision = scheduler.schedule()
        assert victim in decision.admitted
        scheduler.submit(_Item("urgent", seq=1, deadline_time=1.0))
        scheduler.submit(_Item("newer", seq=2))
        scheduler.preempt(victim)
        assert _waiting_names(scheduler) == ["urgent", "victim", "newer"]

    def test_tagged_victim_reenters_at_its_edf_rank(self):
        """A preempted deadline-tagged victim re-enters in EDF position —
        ahead of equal-deadline peers, behind strictly earlier ones."""
        scheduler = ContinuousBatchingScheduler()
        victim = _Item("victim", seq=0, deadline_time=5.0)
        scheduler.submit(victim)
        scheduler.schedule()
        scheduler.submit(_Item("earlier", seq=1, deadline_time=2.0))
        scheduler.submit(_Item("peer", seq=2, deadline_time=5.0))
        scheduler.submit(_Item("later", seq=3, deadline_time=8.0))
        scheduler.preempt(victim)
        assert _waiting_names(scheduler) == [
            "earlier", "victim", "peer", "later"
        ]


# ---------------------------------------------------------------------------
# Deadline shedding
# ---------------------------------------------------------------------------


class TestDeadlineShedding:
    def test_mid_wait_miss_is_shed_with_counters(self, model, rng):
        """A request still waiting when the clock passes its deadline
        finishes with ``finish_reason="deadline"`` and bumps the miss
        counters at every level."""
        engine = InferenceEngine(
            model,
            scheduler_config=SchedulerConfig(max_batch_size=1),
            enable_prefix_caching=True,
        )
        # above the (one-token, prefix-cached) admission bound so it passes
        # the gate, far below the blocker's makespan so it expires mid-wait;
        # the blocker outranks it so the tagged request genuinely waits
        deadline = 4.0 * engine.min_ttft_lower_bound(60)
        blocker = make_request("blocker", make_prompt(rng, 120), max_new=8,
                               priority=3)
        doomed = make_request("doomed", make_prompt(rng, 60),
                              deadline=deadline, priority=1, tenant="chat")
        engine.submit(blocker)
        engine.submit(doomed)
        finals = engine.run()
        assert finals["blocker"].finish_reason == "length"
        out = finals["doomed"]
        assert out.finish_reason == "deadline"
        assert out.finished and out.token_ids == []
        assert out.metrics.finish_time > out.metrics.deadline
        assert engine.metrics.deadline_misses == 1
        assert engine.metrics.requests_shed == 1
        assert engine.metrics.per_class[1].deadline_misses == 1
        assert engine.metrics.per_tenant["chat"].deadline_misses == 1
        assert engine.metrics.as_dict()["deadline_misses"] == 1

    def test_requeued_preemption_victim_is_never_shed(self, model, rng):
        """The mid-wait sweep sheds only never-admitted requests: a
        preemption victim back in the waiting queue past its deadline
        already holds generated tokens, so it resumes and completes."""
        engine = InferenceEngine(
            model,
            EngineConfig(SchedulerConfig(max_batch_size=1),
                         pool=PoolConfig(block_size=16, blocks=12)),
        )
        deadline = 4.0 * engine.min_ttft_lower_bound(100)
        engine.submit(make_request("victim", make_prompt(rng, 100),
                                   deadline=deadline, max_new=6))
        state = engine._states["victim"]
        while not state.generated:
            engine.step()
        assert engine.pressure.preempt_victim(state)
        assert state in engine.scheduler.waiting_items()
        assert engine.metrics.clock > state.deadline_time
        finals = engine.run()
        assert finals["victim"].finish_reason == "length"
        assert engine.metrics.requests_shed == 0

    def test_admission_shed_when_provably_unmeetable(self, model, rng):
        """A deadline below the TTFT lower bound (the one-token prefill a
        full prefix hit would leave) is shed at submit, before any other
        request even runs."""
        engine = InferenceEngine(model)
        prompt = make_prompt(rng, 200)
        bound = engine.min_ttft_lower_bound(len(prompt))
        assert bound > 0.0
        engine.submit(make_request("hopeless", prompt, deadline=bound / 2))
        assert "hopeless" not in engine._states  # refused at the gate
        finals = engine.run()
        assert finals["hopeless"].finish_reason == "deadline"
        assert engine.metrics.deadline_misses == 1

    def test_prefix_caching_weakens_bound_to_one_token(self, model):
        """Every engine's prefix cache could serve all but one token of a
        full-prefix hit, so the admission bound never assumes cold prefill:
        it is one token's prefill compute, whatever the prompt length."""
        for engine in (InferenceEngine(model, enable_prefix_caching=True),
                       InferenceEngine(model)):
            one_token = (engine.latency.layer_prefill_compute_seconds(1)
                         * model.config.num_layers)
            assert engine.min_ttft_lower_bound(200) == one_token
            assert engine.min_ttft_lower_bound(999) == one_token

    def test_meetable_deadline_is_not_shed_at_admission(self, model, rng):
        engine = InferenceEngine(model)
        prompt = make_prompt(rng, 60)
        engine.submit(make_request("fine", prompt, deadline=10.0))
        finals = engine.run()
        assert finals["fine"].finish_reason == "length"
        assert engine.metrics.deadline_misses == 0

    def test_shedding_disabled_keeps_edf_but_completes(self, model, rng):
        """``shed_missed_deadlines=False``: deadlines still steer ordering,
        but every request runs to completion (the A/B comparison mode)."""
        engine = InferenceEngine(
            model,
            scheduler_config=SchedulerConfig(
                max_batch_size=1, shed_missed_deadlines=False,
            ),
        )
        engine.submit(make_request("blocker", make_prompt(rng, 120),
                                   max_new=8))
        engine.submit(make_request("plain", make_prompt(rng, 40)))
        engine.submit(make_request("urgent", make_prompt(rng, 40),
                                   deadline=1e-12))
        # EDF still orders the hopeless-deadline request ahead of the
        # untagged FCFS tail...
        names = [s.request.request_id
                 for s in engine.scheduler.waiting_items()]
        assert names == ["urgent", "blocker", "plain"]
        # ...but nothing is shed
        finals = engine.run()
        assert all(out.finish_reason == "length" for out in finals.values())
        assert engine.metrics.deadline_misses == 0

    def test_deadline_steering_never_changes_bytes(self, model, rng):
        """The invariant, directed: same requests with and without
        deadlines produce byte-identical tokens and logits for everything
        that completes."""
        prompts = [make_prompt(rng, 60 + 20 * i) for i in range(3)]
        plain = [make_request(f"r{i}", p) for i, p in enumerate(prompts)]
        tagged = [
            make_request(f"r{i}", p, deadline=10.0 - 3 * i)
            for i, p in enumerate(prompts)
        ]
        config = SchedulerConfig(max_batch_size=2,
                                 max_prefill_chunk_tokens=32)
        refs = InferenceEngine(model, scheduler_config=config).run(plain)
        outs = InferenceEngine(model, scheduler_config=config).run(tagged)
        for rid, ref in refs.items():
            assert outs[rid].token_ids == ref.token_ids
            assert np.array_equal(outs[rid].logits, ref.logits)


# ---------------------------------------------------------------------------
# Idempotent abort (satellite 2) — shed/abort race
# ---------------------------------------------------------------------------


class TestAbortShedRace:
    def test_abort_after_deadline_shed_is_noop(self, model, rng):
        """An abort that loses the race against a deadline shed returns the
        shed final instead of raising — the caller cannot know the request
        was dropped a step earlier."""
        engine = InferenceEngine(
            model,
            scheduler_config=SchedulerConfig(max_batch_size=1),
        )
        engine.submit(make_request("blocker", make_prompt(rng, 120),
                                   max_new=8))
        engine.submit(make_request("doomed", make_prompt(rng, 60),
                                   deadline=1e-12))
        finals = engine.run()
        assert finals["doomed"].finish_reason == "deadline"
        out = engine.abort("doomed")
        assert out is not None and out.finish_reason == "deadline"
        assert engine.metrics.requests_aborted == 0
        # and still raises for ids that were never submitted at all
        with pytest.raises(ConfigurationError):
            engine.abort("ghost")


# ---------------------------------------------------------------------------
# QuantileDigest
# ---------------------------------------------------------------------------


class TestQuantileDigest:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QuantileDigest(relative_error=0.0)
        with pytest.raises(ConfigurationError):
            QuantileDigest(relative_error=1.0)
        with pytest.raises(ConfigurationError):
            QuantileDigest(max_buckets=1)
        with pytest.raises(ConfigurationError):
            QuantileDigest().quantile(1.5)

    def test_empty_digest_reports_none(self):
        digest = QuantileDigest()
        assert digest.count == 0
        assert digest.mean is None
        assert digest.quantile(0.5) is None
        assert digest.as_dict()["p99"] is None
        digest.observe(None)  # optional metrics fold None away
        assert digest.count == 0

    def test_quantiles_match_numpy_within_relative_error(self):
        """The digest's contract: every quantile within ``relative_error``
        of ``numpy.percentile(..., method="nearest")`` on the raw stream."""
        rng = np.random.default_rng(11)
        samples = rng.lognormal(mean=-6.0, sigma=1.5, size=5000)
        digest = QuantileDigest(relative_error=0.01)
        for value in samples:
            digest.observe(float(value))
        for p in (1, 10, 25, 50, 75, 90, 99, 99.9):
            exact = float(np.percentile(samples, p, method="nearest"))
            approx = digest.percentile(p)
            assert approx == pytest.approx(exact, rel=0.011), f"p{p}"
        assert digest.mean == pytest.approx(float(samples.mean()))

    def test_merge_equals_concatenated_stream(self):
        rng = np.random.default_rng(12)
        a_samples = rng.exponential(0.01, size=400)
        b_samples = rng.exponential(0.5, size=600)
        a, b, both = QuantileDigest(), QuantileDigest(), QuantileDigest()
        for value in a_samples:
            a.observe(float(value))
            both.observe(float(value))
        for value in b_samples:
            b.observe(float(value))
            both.observe(float(value))
        merged = a.merge(b)
        assert merged is a
        assert a._counts == both._counts
        assert a.count == both.count == 1000
        assert a.quantile(0.9) == both.quantile(0.9)
        # identical streams ⇒ value-equal digests (what the fused-vs-looped
        # engine-metrics identity comparison relies on)
        assert a == both
        both.observe(1.0)
        assert a != both

    def test_merge_rejects_mismatched_error(self):
        with pytest.raises(ConfigurationError):
            QuantileDigest(relative_error=0.01).merge(
                QuantileDigest(relative_error=0.05)
            )

    def test_snapshot_detaches_and_reset_zeroes(self):
        digest = QuantileDigest()
        digest.observe(1.0)
        snap = digest.snapshot()
        digest.observe(100.0)
        assert snap.count == 1 and digest.count == 2
        assert snap.quantile(1.0) == pytest.approx(1.0, rel=0.011)
        digest.reset()
        assert digest.count == 0 and digest.quantile(0.5) is None

    def test_memory_bound_collapses_low_buckets(self):
        rng = np.random.default_rng(13)
        samples = 10.0 ** rng.uniform(-9, 2, size=2000)
        # the hard bound holds even under absurd pressure (8 buckets over
        # 11 decades): only the max clamp is still trustworthy there
        tiny = QuantileDigest(relative_error=0.01, max_buckets=8)
        for value in samples:
            tiny.observe(float(value))
        assert len(tiny._counts) <= 8
        assert tiny.quantile(1.0) == pytest.approx(
            float(samples.max()), rel=0.011)
        # with headroom above the upper tail, collapse degrades only the
        # low quantiles — the SLO-bearing p99 keeps its error bound
        digest = QuantileDigest(relative_error=0.01, max_buckets=256)
        for value in samples:
            digest.observe(float(value))
        assert len(digest._counts) <= 256
        exact = float(np.percentile(samples, 99, method="nearest"))
        assert digest.percentile(99) == pytest.approx(exact, rel=0.011)

    def test_zero_and_subfloor_values_land_in_zero_bucket(self):
        digest = QuantileDigest()
        digest.observe(0.0)
        digest.observe(1e-15)
        digest.observe(5.0)
        assert digest.count == 3
        assert digest.quantile(0.0) == 0.0
        assert digest.quantile(1.0) == pytest.approx(5.0, rel=0.011)
