"""Tests for the request-centric serving engine (repro.serve).

The central contract: continuous batching must be *transparent* — a batched
engine run produces byte-identical tokens to sequential single-request runs
for every registered policy, because each request owns its KVCache and policy
instance while the stateless substrate is shared.
"""

import numpy as np
import pytest

from repro.baselines import POLICY_NAMES, SelectionBudget, build_policy
from repro.core import PQCacheConfig
from repro.errors import ConfigurationError
from repro.llm import StepSelections, greedy_generate
from repro.memory import resolve_method
from repro.serve import (
    ContinuousBatchingScheduler,
    InferenceEngine,
    PolicySpec,
    Request,
    RequestStatus,
    SamplingParams,
    SchedulerConfig,
)

from test_qos import _Item

BUDGET = SelectionBudget(token_ratio=0.2, comm_ratio=1.0 / 64.0,
                         num_initial=4, num_local=16)

#: heterogeneous prompt lengths used throughout (all long enough for every
#: policy's init/local segments plus a non-trivial middle section).
PROMPT_LENS = (120, 152, 184)


def make_prompts(tiny_config, lengths, seed=9):
    rng = np.random.default_rng(seed)
    return [rng.integers(4, tiny_config.vocab_size, size=n).tolist()
            for n in lengths]


class TestEngineLegacyEquivalence:
    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_batched_engine_matches_sequential_greedy(
        self, model, tiny_config, policy_name
    ):
        """3 concurrent requests == 3 sequential greedy_generate calls,
        byte-identical tokens, for every registered policy."""
        prompts = make_prompts(tiny_config, PROMPT_LENS)
        sequential = [
            greedy_generate(model, prompt, max_new_tokens=3,
                            policy=build_policy(policy_name, BUDGET))
            for prompt in prompts
        ]

        engine = InferenceEngine(model)
        requests = [
            Request(prompt_ids=prompt,
                    sampling=SamplingParams(max_new_tokens=3),
                    policy_spec=PolicySpec.named(policy_name, BUDGET))
            for prompt in prompts
        ]
        outputs = engine.run(requests)

        for request, reference in zip(requests, sequential):
            out = outputs[request.request_id]
            assert out.token_ids == reference.token_ids
            assert out.finish_reason == "length"
            assert np.array_equal(out.logits, reference.logits)

    def test_no_policy_matches_legacy_full_attention(self, model, tiny_config):
        prompt = make_prompts(tiny_config, (100,))[0]
        reference = greedy_generate(model, prompt, max_new_tokens=4)
        engine = InferenceEngine(model)
        request = Request(prompt_ids=prompt,
                          sampling=SamplingParams(max_new_tokens=4))
        out = engine.run([request])[request.request_id]
        assert out.token_ids == reference.token_ids
        assert np.array_equal(out.logits, reference.logits)


class TestConcurrentServing:
    def test_eight_concurrent_heterogeneous_requests(self, model, tiny_config):
        """≥8 concurrent requests with mixed prompt lengths, per-request
        policies and per-request token budgets all finish correctly, with
        tokens streamed incrementally."""
        lengths = (96, 112, 128, 144, 160, 176, 192, 208)
        prompts = make_prompts(tiny_config, lengths, seed=13)
        policies = ("pqcache", "snapkv", "full", "h2o",
                    "sparq", "infllm", "streaming-llm", "oracle")
        budgets = (2, 3, 4, 2, 3, 4, 2, 3)

        engine = InferenceEngine(
            model, scheduler_config=SchedulerConfig(max_batch_size=4,
                                                    max_prefills_per_step=2)
        )
        requests = [
            Request(prompt_ids=prompt,
                    sampling=SamplingParams(max_new_tokens=max_new),
                    policy_spec=PolicySpec.named(name, BUDGET))
            for prompt, name, max_new in zip(prompts, policies, budgets)
        ]
        for request in requests:
            engine.submit(request)
        assert engine.num_waiting == 8

        streamed: dict[str, list[int]] = {r.request_id: [] for r in requests}
        incremental_steps = 0
        while engine.has_unfinished:
            assert engine.num_running <= 4
            outputs = engine.step()
            for out in outputs:
                streamed[out.request_id].extend(out.new_token_ids)
                if out.new_token_ids and not out.finished:
                    incremental_steps += 1

        # Tokens arrived incrementally, not only with the final output.
        assert incremental_steps > 0
        for request, max_new in zip(requests, budgets):
            final = engine.final_output(request.request_id)
            assert final.finished and final.finish_reason == "length"
            assert len(final.token_ids) == max_new
            # The streamed deltas reassemble the full output exactly.
            assert streamed[request.request_id] == final.token_ids
        assert engine.metrics.requests_finished == 8
        assert engine.metrics.clock > 0.0

    def test_batch_slots_are_refilled_continuously(self, model, tiny_config):
        """A short request finishing frees its slot for a waiting request
        before the long batch-mates drain (continuous batching)."""
        prompts = make_prompts(tiny_config, (96, 96, 96), seed=3)
        engine = InferenceEngine(
            model, scheduler_config=SchedulerConfig(max_batch_size=2,
                                                    max_prefills_per_step=2)
        )
        short = Request(prompt_ids=prompts[0],
                        sampling=SamplingParams(max_new_tokens=1))
        long = Request(prompt_ids=prompts[1],
                       sampling=SamplingParams(max_new_tokens=6))
        late = Request(prompt_ids=prompts[2],
                       sampling=SamplingParams(max_new_tokens=2))
        for request in (short, long, late):
            engine.submit(request)

        engine.step()  # admits short + long; short finishes (1 token)
        assert engine.final_output(short.request_id).finished
        engine.step()  # late is admitted into short's slot while long runs
        assert engine.num_running == 2
        engine.run()
        assert engine.metrics.requests_finished == 3

    def test_per_request_metrics(self, model, tiny_config):
        prompt = make_prompts(tiny_config, (128,))[0]
        engine = InferenceEngine(model)
        request = Request(prompt_ids=prompt,
                          sampling=SamplingParams(max_new_tokens=3),
                          policy_spec=PolicySpec.named("pqcache", BUDGET))
        out = engine.run([request])[request.request_id]
        metrics = out.metrics
        assert metrics.ttft is not None and metrics.ttft > 0.0
        assert metrics.tpot is not None and metrics.tpot > 0.0
        assert metrics.decode_steps == 3
        assert metrics.num_prompt_tokens == 128
        assert metrics.num_generated_tokens == 3
        # PQCache keeps ~token_ratio of the context per step.
        assert 0 < metrics.mean_attended_tokens < 128
        # Offloading methods move bytes.  Blocking bytes are scaled by the
        # *per-step* GPU-cache hit rate: the first decode step's layer-0
        # retrieval is cold, so some blocking traffic is paid; once the
        # working set is resident later steps contribute zero.
        assert metrics.comm_blocking_bytes > 0.0
        assert metrics.comm_overlappable_bytes > 0.0
        assert metrics.e2e_seconds == pytest.approx(
            metrics.ttft + metrics.decode_seconds, rel=1e-6
        )

    def test_blocking_bytes_accounted_without_gpu_cache(self, model, tiny_config):
        """With the GPU block cache disabled nothing absorbs the top-k fetch,
        so every decode step pays blocking PCIe bytes."""
        prompt = make_prompts(tiny_config, (128,))[0]
        engine = InferenceEngine(model)
        request = Request(prompt_ids=prompt,
                          sampling=SamplingParams(max_new_tokens=3),
                          policy_spec=PolicySpec.named(
                              "pqcache", BUDGET,
                              pq_config=PQCacheConfig(gpu_cache_tokens=0)))
        out = engine.run([request])[request.request_id]
        assert out.metrics.comm_blocking_bytes > 0.0
        assert out.metrics.comm_overlappable_bytes > 0.0

    def test_output_retention_bound_and_release(self, model, tiny_config):
        """Finished outputs (which pin KVCaches) can be bounded or released."""
        prompts = make_prompts(tiny_config, (64, 64, 64), seed=5)
        engine = InferenceEngine(model, max_retained_outputs=2)
        requests = [Request(prompt_ids=p, sampling=SamplingParams(max_new_tokens=1))
                    for p in prompts]
        outputs = engine.run(requests)
        assert len(outputs) == 3  # run() returned everything that finished
        # ...but only the 2 newest outputs stay retained in the engine.
        with pytest.raises(ConfigurationError):
            engine.final_output(requests[0].request_id)
        engine.final_output(requests[2].request_id)
        engine.release(requests[2].request_id)
        with pytest.raises(ConfigurationError):
            engine.final_output(requests[2].request_id)

    def test_stop_token_finishes_early(self, model, tiny_config):
        prompt = make_prompts(tiny_config, (100,))[0]
        reference = greedy_generate(model, prompt, max_new_tokens=4)
        stop = reference.token_ids[1]
        engine = InferenceEngine(model)
        request = Request(
            prompt_ids=prompt,
            sampling=SamplingParams(max_new_tokens=4, stop_token_ids=(stop,)),
        )
        out = engine.run([request])[request.request_id]
        assert out.finish_reason == "stop"
        assert out.token_ids == reference.token_ids[:2]

    def test_forbidden_ids_respected(self, model, tiny_config):
        prompt = make_prompts(tiny_config, (100,))[0]
        engine = InferenceEngine(model)
        request = Request(
            prompt_ids=prompt,
            sampling=SamplingParams(max_new_tokens=4,
                                    forbidden_ids=tuple(range(256))),
        )
        out = engine.run([request])[request.request_id]
        assert all(t >= 256 for t in out.token_ids)

    def test_forced_decode_mode(self, model, tiny_config):
        """Teacher forcing decodes exactly the given tokens, generates none."""
        prompt = make_prompts(tiny_config, (100,))[0]
        engine = InferenceEngine(model)
        request = Request(prompt_ids=prompt, forced_decode_ids=[7, 8, 9],
                          policy_spec=PolicySpec.named("pqcache", BUDGET))
        out = engine.run([request])[request.request_id]
        assert out.token_ids == []
        assert out.metrics.decode_steps == 3
        assert out.prefill.kvcache.seq_len == 103
        assert len(out.selections) == 3
        assert len(out.selections[0]) == tiny_config.num_layers


class TestSchedulerAndSpecs:
    def test_scheduler_admission_caps(self):
        scheduler = ContinuousBatchingScheduler(
            SchedulerConfig(max_batch_size=3, max_prefills_per_step=1)
        )
        a, b, c, d = (_Item(name) for name in "abcd")
        for item in (a, b, c, d):
            scheduler.submit(item)
        first = scheduler.schedule()
        assert first.admitted == [a] and first.decodes == [a]
        second = scheduler.schedule()
        assert second.admitted == [b] and second.decodes == [a, b]
        scheduler.finish(a)
        third = scheduler.schedule()
        assert third.admitted == [c] and third.decodes == [b, c]

    def test_scheduler_config_validated(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(max_batch_size=0)
        with pytest.raises(ConfigurationError):
            SchedulerConfig(max_prefills_per_step=0)

    def test_policy_spec_from_instance_is_single_use(self, budget):
        spec = PolicySpec.from_instance(build_policy("full", budget))
        spec.build()
        with pytest.raises(ConfigurationError):
            spec.build()

    def test_policy_spec_validation(self, budget):
        with pytest.raises(ConfigurationError):
            PolicySpec(name="pqcache")  # budget missing
        with pytest.raises(ConfigurationError):
            PolicySpec().build()  # empty spec
        with pytest.raises(ConfigurationError):
            # Unknown names fail at request-creation time, not mid-serving.
            PolicySpec.named("not-a-policy", budget)

    def test_duplicate_request_id_rejected(self, model, tiny_config):
        prompt = make_prompts(tiny_config, (64,))[0]
        engine = InferenceEngine(model)
        request = Request(prompt_ids=prompt, request_id="dup")
        engine.submit(request)
        with pytest.raises(ConfigurationError):
            engine.submit(Request(prompt_ids=prompt, request_id="dup"))

    def test_sampling_params_validated(self):
        with pytest.raises(ConfigurationError):
            SamplingParams(max_new_tokens=0)

    def test_empty_prompt_rejected(self):
        with pytest.raises(ConfigurationError):
            Request(prompt_ids=[])

    def test_resolve_method_mapping(self):
        assert resolve_method(None) == "full"
        assert resolve_method("pqcache") == "pqcache"
        assert resolve_method("h2o(c)") == "h2o"
        assert resolve_method("streaming-llm") == "snapkv"
        assert resolve_method("custom-dropper", is_dropping=True) == "snapkv"
        assert resolve_method("custom-offloader") == "sparq"

    def test_step_selections_type_shared(self, model, tiny_config):
        """Engine outputs and the legacy wrapper share StepSelections."""
        prompt = make_prompts(tiny_config, (100,))[0]
        result = greedy_generate(model, prompt, max_new_tokens=2,
                                 policy=build_policy("pqcache", BUDGET))
        step = result.selections[0]
        assert isinstance(step, list) and len(step) == tiny_config.num_layers
        for layer_selection in step:
            assert layer_selection is None or all(
                isinstance(idx, np.ndarray) for idx in layer_selection
            )
        # The alias itself is exported and spells the same structure.
        assert StepSelections == list[list[np.ndarray] | None]
