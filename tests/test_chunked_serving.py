"""Tests for chunked prefill in the serving engine and scheduler.

Covers the new ``PREFILLING`` request state, the per-step prefill-token
budget (max-min fair allocation), per-chunk clock accounting, incremental PQ
construction driven by the engine, request abort, and the teacher-forced
TTFT regression fix.
"""

import numpy as np
import pytest

from repro.baselines import POLICY_NAMES, SelectionBudget, StreamingLLMPolicy
from repro.errors import ConfigurationError
from repro.llm import ModelConfig, TransformerLM
from repro.serve import (
    ContinuousBatchingScheduler,
    InferenceEngine,
    PolicySpec,
    Request,
    RequestStatus,
    SamplingParams,
    SchedulerConfig,
)

BUDGET = SelectionBudget(token_ratio=0.2, comm_ratio=1.0 / 64.0,
                         num_initial=4, num_local=16)


def make_prompts(config, lengths, seed=9):
    rng = np.random.default_rng(seed)
    return [rng.integers(4, config.vocab_size, size=n).tolist() for n in lengths]


class _Item:
    """Minimal ``Schedulable``: one best-effort deadline-less class."""

    priority = 0
    tenant = "default"
    weight = 1.0
    seq = 0
    deadline_time = None

    def __init__(self, name, remaining):
        self.name = name
        self.remaining_prefill_tokens = remaining

    def __repr__(self):
        return f"_Item({self.name}, {self.remaining_prefill_tokens})"


class TestChunkedScheduler:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(max_prefill_chunk_tokens=0)
        assert SchedulerConfig().chunked_prefill_enabled is False
        assert SchedulerConfig(max_prefill_chunk_tokens=64).chunked_prefill_enabled

    def test_budget_split_max_min_fair(self):
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=4, max_prefills_per_step=4,
                            max_prefill_chunk_tokens=512)
        )
        long = _Item("long", 4000)
        short = _Item("short", 64)
        mid = _Item("mid", 300)
        for item in (long, short, mid):
            scheduler.submit(item)
        decision = scheduler.schedule()
        grants = {item.name: tokens for item, tokens in decision.prefill_chunks}
        # Water-filling: the fully-satisfiable demand is served whole, the
        # remaining budget splits evenly between the two larger demands.
        assert grants["short"] == 64
        assert grants["mid"] == 224
        assert grants["long"] == 224
        assert sum(grants.values()) == 512
        # Short finishes with this allocation -> it decodes this very step.
        short.remaining_prefill_tokens = 0
        assert decision.decodes == [short] or short in decision.decodes

    def test_processing_order_prefers_small_demands(self):
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=4, max_prefills_per_step=4,
                            max_prefill_chunk_tokens=100)
        )
        long = _Item("long", 1000)
        short = _Item("short", 30)
        scheduler.submit(long)
        scheduler.submit(short)
        decision = scheduler.schedule()
        assert [item.name for item, _ in decision.prefill_chunks] == ["short", "long"]

    def test_fully_prefilled_items_decode_not_chunk(self):
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=4, max_prefill_chunk_tokens=100)
        )
        done = _Item("done", 0)
        busy = _Item("busy", 500)
        scheduler.submit(done)
        scheduler.submit(busy)
        decision = scheduler.schedule()
        assert [item.name for item, _ in decision.prefill_chunks] == ["busy"]
        assert done in decision.decodes and busy not in decision.decodes

    def test_remove_from_either_queue(self):
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=1, max_prefill_chunk_tokens=10)
        )
        a, b = _Item("a", 5), _Item("b", 5)
        scheduler.submit(a)
        scheduler.submit(b)
        scheduler.schedule()  # a running, b waiting
        scheduler.remove(a)
        scheduler.remove(b)
        assert not scheduler.has_work
        with pytest.raises(ConfigurationError):
            scheduler.remove(a)


class TestChunkedEngineEquivalence:
    @pytest.mark.parametrize("chunk_tokens", (None, 40))
    def test_prefill_stage_seconds_reach_engine_metrics(
        self, model, tiny_config, chunk_tokens
    ):
        """Both prefill modes sum the model's host stage timers."""
        engine = InferenceEngine(
            model,
            scheduler_config=SchedulerConfig(max_prefill_chunk_tokens=chunk_tokens),
        )
        prompt = make_prompts(tiny_config, (96,))[0]
        engine.run([Request(prompt_ids=prompt,
                            sampling=SamplingParams(max_new_tokens=1))])
        report = engine.metrics.as_dict()
        for stage in ("projection", "attention", "aggregates", "ffn"):
            assert report[f"prefill_{stage}_seconds"] > 0.0

    @pytest.mark.parametrize("policy_name", [n for n in POLICY_NAMES if n != "pqcache"])
    def test_chunked_matches_unchunked_bytewise(self, model, tiny_config, policy_name):
        """Chunked prefill is transparent: byte-identical tokens and logits
        for every policy without incremental construction."""
        prompts = make_prompts(tiny_config, (96, 132))
        results = {}
        for chunk_tokens in (None, 40):
            engine = InferenceEngine(
                model,
                scheduler_config=SchedulerConfig(
                    max_batch_size=2, max_prefill_chunk_tokens=chunk_tokens
                ),
            )
            requests = [
                Request(prompt_ids=prompt,
                        sampling=SamplingParams(max_new_tokens=3),
                        policy_spec=PolicySpec.named(policy_name, BUDGET))
                for prompt in prompts
            ]
            results[chunk_tokens] = (requests, engine.run(requests))
        (ref_requests, ref_outputs), (requests, outputs) = results[None], results[40]
        for ref_request, request in zip(ref_requests, requests):
            reference = ref_outputs[ref_request.request_id]
            chunked = outputs[request.request_id]
            assert chunked.token_ids == reference.token_ids
            assert np.array_equal(chunked.logits, reference.logits)
            assert chunked.metrics.prefill_chunks > 1


class TestIncrementalPqServing:
    def test_incremental_pqcache_builds_from_chunks(self, model, tiny_config):
        """The engine's chunk hooks drive sketch-fit + stream-encode + refine;
        the finished request has a fully-encoded PQ index."""
        prompt = make_prompts(tiny_config, (160,))[0]
        engine = InferenceEngine(
            model,
            scheduler_config=SchedulerConfig(
                max_batch_size=1, max_prefill_chunk_tokens=48
            ),
        )
        spec = PolicySpec.named("pqcache", BUDGET, sketch_tokens=64)
        request = Request(prompt_ids=prompt,
                          sampling=SamplingParams(max_new_tokens=3),
                          policy_spec=spec)
        # Keep a handle on the policy the engine builds.
        built = []
        original_build = spec.build

        def capture():
            policy = original_build()
            built.append(policy)
            return policy

        spec.build = capture
        out = engine.run([request])[request.request_id]
        assert out.finish_reason == "length"
        assert len(out.token_ids) == 3
        assert out.metrics.prefill_chunks == 4
        policy = built[0]
        assert policy.manager is not None and policy.manager.is_built
        # All prompt tokens (plus decoded tokens that left the local window)
        # carry PQ codes, aligned from position 0.
        assert policy.manager.num_codes(0) >= 160 - BUDGET.num_local

    def test_incremental_selections_are_plausible(self, model, tiny_config):
        """Incremental construction may pick different tokens than one-shot
        (different K-Means optima) but selections must respect the budget
        segments exactly like the one-shot index."""
        prompt = make_prompts(tiny_config, (140,))[0]
        engine = InferenceEngine(
            model,
            scheduler_config=SchedulerConfig(
                max_batch_size=1, max_prefill_chunk_tokens=40
            ),
        )
        request = Request(prompt_ids=prompt,
                          sampling=SamplingParams(max_new_tokens=2),
                          policy_spec=PolicySpec.named(
                              "pqcache", BUDGET, sketch_tokens=64))
        out = engine.run([request])[request.request_id]
        for step in out.selections:
            for layer_selection in step:
                assert layer_selection is not None
                for per_head in layer_selection:
                    assert per_head.size > 0
                    assert per_head.max() < 140 + 2


    def test_every_policy_gets_the_chunk_hook(self, model, tiny_config):
        """The engine hands each prefill chunk to whatever policy the request
        carries — no class flag to opt in, the base no-op is the opt-out —
        as contiguous ``[start, stop)`` ranges covering the prompt."""
        chunks = []

        class Recording(StreamingLLMPolicy):
            def on_prefill_chunk(self, config, kvcache, start, stop, total_len):
                assert len(kvcache[0]) == stop
                chunks.append((start, stop, total_len))

        prompt = make_prompts(tiny_config, (100,))[0]
        engine = InferenceEngine(
            model,
            scheduler_config=SchedulerConfig(
                max_batch_size=1, max_prefill_chunk_tokens=48
            ),
        )
        request = Request(prompt_ids=prompt,
                          sampling=SamplingParams(max_new_tokens=2),
                          policy_spec=PolicySpec.from_instance(Recording(BUDGET)))
        out = engine.run([request])[request.request_id]
        assert len(out.token_ids) == 2
        assert chunks == [(0, 48, 100), (48, 96, 100), (96, 100, 100)]


class TestChunkedClockAndTtft:
    def test_short_prompt_not_blocked_by_long_prefill(self, model, tiny_config):
        """A short prompt submitted behind a long one gets a far better TTFT
        with chunking; the long prompt pays the same prefill charge (the
        short request's interleaved work lands on the shared clock, but the
        long prompt's own prefill seconds are identical)."""
        long_prompt = make_prompts(tiny_config, (320,))[0]
        short_prompt = make_prompts(tiny_config, (48,), seed=5)[0]

        def serve(chunk_tokens):
            engine = InferenceEngine(
                model,
                scheduler_config=SchedulerConfig(
                    max_batch_size=2, max_prefill_chunk_tokens=chunk_tokens
                ),
            )
            long_request = Request(prompt_ids=long_prompt,
                                   sampling=SamplingParams(max_new_tokens=1))
            short_request = Request(prompt_ids=short_prompt,
                                    sampling=SamplingParams(max_new_tokens=1))
            engine.submit(long_request)
            engine.submit(short_request)
            outputs = engine.run()
            return (outputs[short_request.request_id].metrics,
                    outputs[long_request.request_id].metrics)

        short_unchunked, long_unchunked = serve(None)
        short_chunked, long_chunked = serve(64)
        assert short_chunked.ttft < short_unchunked.ttft / 2
        assert long_chunked.prefill_seconds == pytest.approx(
            long_unchunked.prefill_seconds, rel=1e-9
        )

    @pytest.mark.parametrize("policy_name,tolerance", [
        (None, 1e-9),      # pure compute: telescopes exactly
        ("h2o", 1e-9),     # dense-score traffic telescopes exactly too
        ("infllm", 0.05),  # block setup overlaps; small residual shift
    ])
    def test_chunked_clock_charges_match_monolithic(self, model, tiny_config,
                                                    policy_name, tolerance):
        """The telescoping chunk FLOP (and H2O score-byte) model: a request's
        prefill charge does not change just because chunking is on."""
        prompt = make_prompts(tiny_config, (200,))[0]
        seconds = {}
        for chunk_tokens in (None, 64):
            engine = InferenceEngine(
                model,
                scheduler_config=SchedulerConfig(
                    max_batch_size=1, max_prefill_chunk_tokens=chunk_tokens
                ),
            )
            spec = (PolicySpec.named(policy_name, BUDGET)
                    if policy_name is not None else None)
            request = Request(prompt_ids=prompt,
                              sampling=SamplingParams(max_new_tokens=1),
                              policy_spec=spec)
            out = engine.run([request])[request.request_id]
            seconds[chunk_tokens] = out.metrics.prefill_seconds
        assert seconds[64] == pytest.approx(seconds[None], rel=tolerance)

    def test_prefilling_status_between_steps(self, model, tiny_config):
        prompt = make_prompts(tiny_config, (96,))[0]
        engine = InferenceEngine(
            model,
            scheduler_config=SchedulerConfig(
                max_batch_size=1, max_prefill_chunk_tokens=32
            ),
        )
        request = Request(prompt_ids=prompt, sampling=SamplingParams(max_new_tokens=1))
        engine.submit(request)
        outputs = engine.step()
        state = engine._states[request.request_id]
        assert state.status is RequestStatus.PREFILLING
        assert state.remaining_prefill_tokens == 96 - 32
        # Streaming heartbeat for the prefilling request, no tokens yet.
        assert [o.request_id for o in outputs] == [request.request_id]
        assert outputs[0].new_token_ids == []
        engine.run()
        assert engine.final_output(request.request_id).finished


class TestAbort:
    def test_abort_waiting_request(self, model, tiny_config):
        prompts = make_prompts(tiny_config, (64, 64))
        engine = InferenceEngine(
            model, scheduler_config=SchedulerConfig(max_batch_size=1)
        )
        first = Request(prompt_ids=prompts[0], sampling=SamplingParams(max_new_tokens=2))
        second = Request(prompt_ids=prompts[1], sampling=SamplingParams(max_new_tokens=2))
        engine.submit(first)
        engine.submit(second)
        out = engine.abort(second.request_id)
        assert out.finished and out.finish_reason == "aborted"
        assert out.token_ids == []
        assert engine.metrics.requests_aborted == 1
        finals = engine.run()
        assert list(finals) == [first.request_id]
        assert engine.final_output(second.request_id).finish_reason == "aborted"

    def test_abort_between_prefill_chunks(self, model, tiny_config):
        """Aborting a mid-prefill request frees its slot for the next one."""
        prompts = make_prompts(tiny_config, (160, 64))
        engine = InferenceEngine(
            model,
            scheduler_config=SchedulerConfig(
                max_batch_size=1, max_prefill_chunk_tokens=32
            ),
        )
        victim = Request(prompt_ids=prompts[0], sampling=SamplingParams(max_new_tokens=2))
        waiter = Request(prompt_ids=prompts[1], sampling=SamplingParams(max_new_tokens=2))
        engine.submit(victim)
        engine.submit(waiter)
        engine.step()
        state = engine._states[victim.request_id]
        assert state.status is RequestStatus.PREFILLING
        assert 0 < state.remaining_prefill_tokens < 160

        out = engine.abort(victim.request_id)
        assert out.finish_reason == "aborted" and out.finished
        assert out.prefill is None  # the partial KVCache was dropped
        assert engine.num_running == 0 and engine.num_waiting == 1

        finals = engine.run()
        assert waiter.request_id in finals
        assert finals[waiter.request_id].finish_reason == "length"
        assert engine.metrics.requests_aborted == 1
        assert engine.metrics.requests_finished == 1

    def test_abort_decoding_request_keeps_tokens(self, model, tiny_config):
        prompt = make_prompts(tiny_config, (72,))[0]
        engine = InferenceEngine(model)
        request = Request(prompt_ids=prompt, sampling=SamplingParams(max_new_tokens=8))
        engine.submit(request)
        engine.step()  # prefill + first decode round
        out = engine.abort(request.request_id)
        assert out.finish_reason == "aborted"
        assert len(out.token_ids) >= 1
        assert not engine.has_unfinished

    def test_abort_finished_is_idempotent_noop(self, model, tiny_config):
        """Aborting a terminal request is a no-op (same-step shed/finish
        races must not blow up); only a never-submitted id raises."""
        prompt = make_prompts(tiny_config, (64,))[0]
        engine = InferenceEngine(model)
        request = Request(prompt_ids=prompt, sampling=SamplingParams(max_new_tokens=1))
        finals = engine.run([request])
        out = engine.abort(request.request_id)  # already finished: no-op
        assert out is finals[request.request_id]
        assert out.finish_reason == "length"  # the terminal outcome stands
        assert engine.metrics.requests_aborted == 0
        with pytest.raises(ConfigurationError):
            engine.abort("no-such-request")

    def test_abort_finished_unretained_returns_none(self, model, tiny_config):
        prompt = make_prompts(tiny_config, (64,))[0]
        engine = InferenceEngine(model, max_retained_outputs=0)
        request = Request(prompt_ids=prompt, sampling=SamplingParams(max_new_tokens=1))
        engine.run([request])
        assert engine.abort(request.request_id) is None
        assert engine.metrics.requests_aborted == 0


class TestForcedTtftRegression:
    def test_teacher_forced_requests_report_ttft(self, model, tiny_config):
        """Regression: forced requests used to never set first_token_time,
        reporting TTFT as 0/None for every eval-harness run."""
        prompt = make_prompts(tiny_config, (96,))[0]
        engine = InferenceEngine(model)
        request = Request(prompt_ids=prompt, forced_decode_ids=[5, 6, 7],
                          policy_spec=PolicySpec.named("pqcache", BUDGET))
        out = engine.run([request])[request.request_id]
        assert out.metrics.first_token_time is not None
        assert out.metrics.ttft is not None and out.metrics.ttft > 0.0
        # TTFT covers exactly the prefill phase for a forced request.
        assert out.metrics.ttft == pytest.approx(
            out.metrics.prefill_seconds, rel=1e-9
        )

    def test_forced_ttft_under_chunked_prefill(self, model, tiny_config):
        prompt = make_prompts(tiny_config, (96,))[0]
        engine = InferenceEngine(
            model,
            scheduler_config=SchedulerConfig(
                max_batch_size=1, max_prefill_chunk_tokens=32
            ),
        )
        request = Request(prompt_ids=prompt, forced_decode_ids=[5, 6])
        out = engine.run([request])[request.request_id]
        assert out.metrics.ttft is not None and out.metrics.ttft > 0.0
        assert out.metrics.prefill_chunks == 3
