"""Arrival time owned by the engine, and the library replay driver.

* ``InferenceEngine.submit(request, arrival_time=)``: a past time is stamped
  as given, a future one is held outside the scheduler until a step's clock
  reaches it, and a step with nothing runnable idles to the next arrival;
  every outcome of a held request (abort, drain, admission control, deadline
  shedding, duplicate ids, bad times) is defined;
* equivalence with the hand-clock loop it replaced
  (:mod:`replay_oracle`), and of ``submit(r)`` with
  ``submit(r, arrival_time=clock)`` on preemption-fuzz seeds;
* :func:`repro.serve.replay` over open-loop and chained traces, and its
  determinism.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest

from replay_oracle import replay_by_hand
from repro.errors import ConfigurationError
from repro.serve import (
    InferenceEngine,
    Request,
    RequestQoS,
    SamplingParams,
    SchedulerConfig,
    replay,
)
from repro.workloads import (
    ArrivalEvent,
    bursty_arrivals,
    merge_arrivals,
    poisson_arrivals,
    tag_arrivals,
)
from test_preemption import fuzz_model, run_fuzz_seed


def make_request(rid, rng, plen=64, max_new=3, vocab=128, **qos):
    return Request(
        request_id=rid,
        prompt_ids=rng.integers(4, vocab, size=plen).tolist(),
        sampling=SamplingParams(max_new_tokens=max_new),
        qos=RequestQoS(**qos),
    )


def simulated(metrics) -> dict:
    """``EngineMetrics.as_dict()`` without the host wall-clock stage timers."""
    return {name: value for name, value in metrics.as_dict().items()
            if not (name.startswith(("decode_", "prefill_"))
                    and name.endswith("_seconds"))}


def request_fields(metrics, skip=("arrival_time",)) -> dict:
    """Every raw ``RequestMetrics`` field but ``skip``."""
    return {spec.name: getattr(metrics, spec.name)
            for spec in fields(metrics) if spec.name not in skip}


# ---------------------------------------------------------------------------
# submit(…, arrival_time=)
# ---------------------------------------------------------------------------


class TestHeldArrivals:
    def test_future_arrival_is_held_then_the_idle_engine_jumps_to_it(self, model, rng):
        engine = InferenceEngine(model)
        request = make_request("r", rng, vocab=512)
        engine.submit(request, arrival_time=0.5)
        assert engine.num_waiting == 0
        assert engine.has_unfinished
        assert engine.metrics.clock == 0.0

        reference = InferenceEngine(model).run([request])["r"].metrics
        metrics = engine.run()["r"].metrics
        assert metrics.arrival_time == 0.5
        assert metrics.prefill_start == 0.5
        assert metrics.ttft == pytest.approx(reference.ttft, rel=1e-9)
        assert engine.metrics.clock == pytest.approx(0.5 + reference.finish_time)

    def test_past_arrival_is_stamped_as_given(self, model, rng):
        engine = InferenceEngine(model)
        engine.run([make_request("blocker", rng, vocab=512)])
        busy_until = engine.metrics.clock
        engine.submit(make_request("late", rng, vocab=512), arrival_time=0.0)
        assert engine.num_waiting == 1  # entered the scheduler at once
        metrics = engine.run()["late"].metrics
        assert metrics.arrival_time == 0.0
        assert metrics.prefill_start == busy_until
        assert metrics.ttft == metrics.first_token_time > busy_until

    def test_release_order_is_time_then_submission(self, model, rng):
        engine = InferenceEngine(
            model, scheduler_config=SchedulerConfig(max_batch_size=1)
        )
        for rid, time in (("c", 0.3), ("a", 0.1), ("b", 0.1)):
            engine.submit(make_request(rid, rng, vocab=512), arrival_time=time)
        finals = engine.run()
        order = sorted(finals, key=lambda rid: finals[rid].metrics.first_token_time)
        assert order == ["a", "b", "c"]
        assert finals["a"].metrics.prefill_start == 0.1
        assert finals["c"].metrics.prefill_start == 0.3

    def test_a_busy_engine_does_not_jump(self, model, rng):
        engine = InferenceEngine(model)
        engine.submit(make_request("now", rng, vocab=512))
        engine.submit(make_request("later", rng, vocab=512), arrival_time=100.0)
        engine.step()
        assert 0.0 < engine.metrics.clock < 100.0
        finals = engine.run()
        assert finals["now"].metrics.finish_time < 100.0
        assert finals["later"].metrics.prefill_start == 100.0

    def test_abort_of_held_request_never_admits_it(self, model, rng):
        engine = InferenceEngine(model)
        engine.submit(make_request("held", rng, vocab=512), arrival_time=1.0)
        output = engine.abort("held")
        assert output.finished and output.finish_reason == "aborted"
        assert output.token_ids == []
        assert output.metrics.prefill_start is None
        assert engine.metrics.requests_submitted == 1
        assert engine.metrics.requests_aborted == 1
        assert not engine.has_unfinished
        assert engine.step() == []
        assert engine.metrics.clock == 0.0  # nothing left to idle towards
        assert engine.metrics.prefills == 0
        assert engine.abort("held") is output  # idempotent

    def test_abort_of_one_held_request_keeps_the_others(self, model, rng):
        engine = InferenceEngine(model)
        for rid, time in (("a", 0.2), ("b", 0.1), ("c", 0.3)):
            engine.submit(make_request(rid, rng, vocab=512), arrival_time=time)
        engine.abort("b")
        finals = engine.run()
        assert sorted(finals) == ["a", "c"]
        assert finals["a"].metrics.prefill_start == 0.2
        assert engine.metrics.requests_aborted == 1

    def test_run_and_stream_drain_held_arrivals(self, model, rng):
        request = make_request("r", rng, vocab=512, max_new=2)
        engine = InferenceEngine(model)
        engine.submit(request, arrival_time=0.25)
        streamed = list(engine.stream())
        assert streamed[-1].finished and streamed[-1].request_id == "r"
        assert sum(len(o.new_token_ids) for o in streamed) == 2
        assert not engine.has_unfinished

        engine = InferenceEngine(model)
        engine.submit(request, arrival_time=0.25)
        assert engine.run()["r"].token_ids == streamed[-1].token_ids

    def test_num_waiting_excludes_held(self, model, rng):
        engine = InferenceEngine(model)
        engine.submit(make_request("now", rng, vocab=512))
        engine.submit(make_request("held", rng, vocab=512), arrival_time=9.0)
        assert engine.num_waiting == 1
        assert engine.has_unfinished

    def test_max_waiting_acts_at_release(self, model, rng):
        engine = InferenceEngine(
            model,
            scheduler_config=SchedulerConfig(max_batch_size=1, max_waiting=1),
        )
        for rid in ("a", "b", "c"):
            engine.submit(make_request(rid, rng, vocab=512), arrival_time=0.2)
        assert engine.metrics.requests_shed == 0
        finals = engine.run()
        assert finals["a"].finish_reason == "length"
        for rid in ("b", "c"):  # the newest waiting request overflows
            assert finals[rid].finish_reason == "shed"
            assert finals[rid].metrics.finish_time == 0.2
        assert engine.metrics.requests_shed == 2

    def test_shed_infeasible_acts_at_release(self, model, rng):
        engine = InferenceEngine(
            model,
            scheduler_config=SchedulerConfig(shed_infeasible=True),
            enable_prefix_caching=True, kv_block_size=16, kv_pool_blocks=4,
        )
        engine.submit(make_request("big", rng, plen=100, vocab=512), arrival_time=0.3)
        assert engine.metrics.requests_shed == 0
        assert engine.has_unfinished
        output = engine.run()["big"]
        assert output.finish_reason == "shed"
        assert output.metrics.finish_time == 0.3

    def test_deadline_counts_from_the_arrival_time(self, model, rng):
        engine = InferenceEngine(model)
        engine.submit(make_request("r", rng, vocab=512, deadline=0.1), arrival_time=0.25)
        output = engine.run()["r"]
        assert output.metrics.deadline == 0.25 + 0.1
        assert output.finish_reason == "length"

    def test_past_deadline_is_shed_at_release(self, model, rng):
        engine = InferenceEngine(model)
        engine.run([make_request("blocker", rng, vocab=512)])
        busy_until = engine.metrics.clock
        engine.submit(
            make_request("stale", rng, vocab=512, deadline=busy_until / 2),
            arrival_time=0.0,
        )
        output = engine.run()["stale"]
        assert output.finish_reason == "deadline"
        assert output.metrics.deadline == busy_until / 2
        assert output.metrics.finish_time == busy_until
        assert engine.metrics.deadline_misses == 1

    def test_unmeetable_deadline_is_shed_at_release_not_submit(self, model, rng):
        engine = InferenceEngine(model)
        engine.submit(make_request("hopeless", rng, vocab=512, deadline=1e-12),
                      arrival_time=0.4)
        assert engine.metrics.requests_shed == 0
        output = engine.run()["hopeless"]
        assert output.finish_reason == "deadline"
        assert output.metrics.finish_time == 0.4

    def test_duplicate_id_rejected_while_held(self, model, rng):
        engine = InferenceEngine(model)
        engine.submit(make_request("dup", rng, vocab=512), arrival_time=1.0)
        with pytest.raises(ConfigurationError, match="duplicate"):
            engine.submit(make_request("dup", rng, vocab=512))
        with pytest.raises(ConfigurationError, match="duplicate"):
            engine.submit(make_request("dup", rng, vocab=512), arrival_time=2.0)
        assert engine.metrics.requests_submitted == 1

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf, -1e-9])
    def test_bad_arrival_time_rejected(self, model, rng, time):
        engine = InferenceEngine(model)
        with pytest.raises(ConfigurationError, match="arrival_time"):
            engine.submit(make_request("r", rng, vocab=512), arrival_time=time)
        assert engine.metrics.requests_submitted == 0
        assert not engine.has_unfinished
        engine.submit(make_request("r", rng, vocab=512), arrival_time=0.0)


# ---------------------------------------------------------------------------
# Equivalence with the loop it replaced
# ---------------------------------------------------------------------------


def qos_engine(model, max_waiting=6) -> InferenceEngine:
    """Two tenants on a pool that holds about half of a burst."""
    return InferenceEngine(
        model,
        scheduler_config=SchedulerConfig(
            max_batch_size=3, max_prefill_chunk_tokens=64,
            proactive_swap_free_fraction=1.0, max_waiting=max_waiting,
        ),
        enable_prefix_caching=True, kv_block_size=8, kv_pool_blocks=16,
        max_retained_outputs=0,
    )


def qos_trace() -> list:
    chat = tag_arrivals(poisson_arrivals(6, rate=1500.0, seed=5), "chat", 2)
    batch = tag_arrivals(
        bursty_arrivals(2, 6, burst_rate=300.0, within_burst_rate=1e6, seed=7),
        "batch", 0,
    )
    return merge_arrivals(chat, batch)


def qos_requests(events) -> list:
    rng = np.random.default_rng(11)
    requests = []
    for index, event in enumerate(events):
        chat = event.tenant == "chat"
        requests.append(Request(
            request_id=f"{event.tenant}-{index}",
            prompt_ids=rng.integers(4, 128, size=64 if chat else 40).tolist(),
            sampling=SamplingParams(max_new_tokens=6 if chat else 8),
            qos=RequestQoS(priority=event.priority, tenant=event.tenant,
                           weight=4.0 if chat else 1.0),
        ))
    return requests


class TestOracleEquivalence:
    def test_held_arrivals_make_the_hand_clock_loops_decisions(self, fuzz_model):
        events = qos_trace()
        oracle = qos_engine(fuzz_model)
        expected = replay_by_hand(oracle, events, qos_requests(events))

        engine = qos_engine(fuzz_model)
        for event, request in zip(events, qos_requests(events)):
            engine.submit(request, arrival_time=event.time)
        finals = engine.run()

        assert sorted(finals) == sorted(expected) and len(finals) == len(events)
        for event, request in zip(events, qos_requests(events)):
            got, want = finals[request.request_id], expected[request.request_id]
            assert got.token_ids == want.token_ids
            assert got.finish_reason == want.finish_reason
            # every raw field, first_token_time and finish_time among them
            assert request_fields(got.metrics) == request_fields(want.metrics)
            assert got.metrics.arrival_time == event.time
            assert want.metrics.arrival_time >= event.time  # the release clock
        queued = [r.request_id for e, r in zip(events, qos_requests(events))
                  if expected[r.request_id].metrics.arrival_time > e.time]
        assert queued, "no arrival waited; the trace is not under load"
        for name in ("preemptions_swap", "preemptions_recompute",
                     "proactive_swap_outs", "requests_shed", "steps", "clock"):
            assert getattr(engine.metrics, name) == getattr(oracle.metrics, name), name
        assert oracle.metrics.preemptions > 0 and oracle.metrics.requests_shed > 0

    @pytest.mark.parametrize("seed", [0, 3, 5, 11])
    def test_clock_as_arrival_time_is_the_none_path(self, fuzz_model, seed):
        implicit = run_fuzz_seed(fuzz_model, seed)
        explicit = run_fuzz_seed(fuzz_model, seed, stamp_clock=True)
        assert simulated(explicit.metrics) == simulated(implicit.metrics)


# ---------------------------------------------------------------------------
# repro.serve.replay
# ---------------------------------------------------------------------------


def chat_trace(users=3, turns=3, rate=4000.0) -> list:
    """Chat turns chained with ``after``: a turn is sent once the previous
    answer is in, and never before its own Poisson time."""
    events = poisson_arrivals(users * turns, rate=rate, num_users=users, seed=3)
    seen: dict[int, int] = {}
    trace = []
    for event in events:
        turn = seen.get(event.user, 0)
        seen[event.user] = turn + 1
        trace.append(ArrivalEvent(
            time=event.time, user=event.user, turn=turn,
            key=f"u{event.user}-t{turn}",
            after=f"u{event.user}-t{turn - 1}" if turn else None,
        ))
    return trace


class ChatSource:
    """Builds each turn's prompt from the conversation so far."""

    def __init__(self, users: int, engine=None) -> None:
        rng = np.random.default_rng(2)
        self.system = rng.integers(4, 128, size=32).tolist()
        self.history = {user: [] for user in range(users)}
        self.prompts: dict[str, list[int]] = {}
        self.rng = rng
        self.engine = engine
        #: key -> engine clock when ``on_finish`` saw the final output
        self.finished: dict[str, float | None] = {}

    def request_for(self, event) -> Request:
        message = self.rng.integers(4, 128, size=12).tolist()
        prompt = self.system + self.history[event.user] + message
        self.prompts[event.key] = prompt
        return Request(
            request_id=event.key,
            prompt_ids=prompt,
            sampling=SamplingParams(max_new_tokens=3),
        )

    def on_finish(self, event, output) -> None:
        self.finished[event.key] = (
            None if self.engine is None else self.engine.metrics.clock
        )
        prompt = self.prompts.pop(event.key)
        self.history[event.user] = prompt[len(self.system):] + list(output.token_ids)


def chat_engine(model) -> InferenceEngine:
    return InferenceEngine(
        model, scheduler_config=SchedulerConfig(max_batch_size=2),
        enable_prefix_caching=True, kv_block_size=8,
    )


def open_trace() -> list:
    return merge_arrivals(
        tag_arrivals(poisson_arrivals(5, rate=3000.0, seed=1), "chat", 2),
        tag_arrivals(bursty_arrivals(2, 4, burst_rate=500.0, seed=2), "batch", 0),
    )


def open_request_for(event) -> Request:
    rng = np.random.default_rng([event.user, event.turn, event.priority])
    return Request(
        request_id=f"{event.tenant}-u{event.user}-t{event.turn}",
        prompt_ids=rng.integers(4, 128, size=48).tolist(),
        sampling=SamplingParams(max_new_tokens=4),
        qos=RequestQoS(priority=event.priority, tenant=event.tenant),
    )


class TestReplay:
    def test_open_loop_replay_is_submit_then_run(self, fuzz_model):
        trace = open_trace()
        result = replay(qos_engine(fuzz_model), trace, open_request_for)

        engine = qos_engine(fuzz_model)
        for event in trace:
            engine.submit(open_request_for(event), arrival_time=event.time)
        finals = engine.run()
        assert sorted(result.outputs) == sorted(finals)
        for rid, output in finals.items():
            got = result.outputs[rid]
            assert got.token_ids == output.token_ids
            assert got.metrics.as_dict() == output.metrics.as_dict()
            times = result.token_times[rid]
            assert len(times) == len(output.token_ids)
            if times:  # the clock after the step that streamed each token
                assert times == sorted(times)
                assert times[0] >= output.metrics.first_token_time
                assert times[-1] <= engine.metrics.clock

    def test_chained_turn_waits_for_its_predecessor(self, fuzz_model):
        trace = chat_trace()
        engine = chat_engine(fuzz_model)
        source = ChatSource(users=3, engine=engine)
        result = replay(engine, trace, source.request_for, source.on_finish)
        assert sorted(result.outputs) == sorted(event.key for event in trace)
        assert sorted(source.finished) == sorted(result.outputs)
        for event in trace:
            metrics = result.outputs[event.key].metrics
            # each turn's prompt embeds every earlier message and answer
            assert metrics.num_prompt_tokens == 32 + 15 * event.turn + 12
            if event.after is None:
                assert metrics.arrival_time == event.time
            else:
                assert metrics.arrival_time == max(
                    event.time, source.finished[event.after]
                )
                assert metrics.cached_prefix_tokens > 0
        assert any(
            result.outputs[event.key].metrics.arrival_time > event.time
            for event in trace
        ), "no turn waited on its predecessor"

    def test_successor_due_at_its_own_later_time(self, fuzz_model):
        trace = [
            ArrivalEvent(time=0.0, key="a"),
            ArrivalEvent(time=5.0, key="b", after="a"),
            ArrivalEvent(time=0.0, key="c", after="b"),
        ]
        engine = chat_engine(fuzz_model)
        source = ChatSource(users=1, engine=engine)
        result = replay(engine, trace, source.request_for, source.on_finish)
        a, b, c = (result.outputs[key].metrics for key in "abc")
        assert source.finished["a"] < 5.0
        assert b.arrival_time == 5.0 and b.prefill_start == 5.0
        assert c.arrival_time == source.finished["b"] > 5.0
        assert list(source.finished) == ["a", "b", "c"]

    def test_unknown_or_cyclic_predecessors_are_rejected(self, fuzz_model):
        source = ChatSource(users=1)
        with pytest.raises(ConfigurationError, match="unknown key"):
            replay(chat_engine(fuzz_model),
                   [ArrivalEvent(time=0.0, key="a", after="missing")],
                   source.request_for)
        cycle = [ArrivalEvent(time=0.0, key="a", after="b"),
                 ArrivalEvent(time=0.0, key="b", after="a")]
        with pytest.raises(ConfigurationError, match="never finished"):
            replay(chat_engine(fuzz_model), cycle, source.request_for)


class TestDeterminism:
    """One trace, one config, fresh engines: the same simulated results."""

    @staticmethod
    def _assert_same(first, second, engines) -> None:
        assert sorted(first.outputs) == sorted(second.outputs)
        for rid, output in first.outputs.items():
            other = second.outputs[rid]
            assert other.token_ids == output.token_ids
            assert request_fields(other.metrics, skip=()) == request_fields(
                output.metrics, skip=())
            assert second.token_times[rid] == first.token_times[rid]
        assert simulated(engines[0].metrics) == simulated(engines[1].metrics)

    def test_open_loop_trace(self, fuzz_model):
        engines = [qos_engine(fuzz_model), qos_engine(fuzz_model)]
        runs = [replay(engine, open_trace(), open_request_for) for engine in engines]
        self._assert_same(*runs, engines)

    def test_chained_chat_trace(self, fuzz_model):
        engines = [chat_engine(fuzz_model), chat_engine(fuzz_model)]
        runs = []
        for engine in engines:
            source = ChatSource(users=3)
            runs.append(replay(engine, chat_trace(), source.request_for,
                               source.on_finish))
        self._assert_same(*runs, engines)
