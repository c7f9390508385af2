"""A precomputed ``Request.prefill`` lives in the engine's block pool.

The engine imports it into fresh blocks at admission, like a prefill chunk:
it counts against the pool, a pool too small for it refuses with
``CapacityError``, it is preemptible under both preemption modes (recompute
re-imports it), and it never meets the prefix cache, because its KV is not
a function of its prompt ids.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import SelectionBudget
from repro.errors import CapacityError
from repro.llm import KVCache, PrefillResult
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    PolicySpec,
    PoolConfig,
    Request,
    RequestQoS,
    RequestStatus,
    SamplingParams,
    SchedulerConfig,
)

BUDGET = SelectionBudget(token_ratio=0.2, comm_ratio=1 / 64, num_initial=4,
                         num_local=16)
BLOCK = 16


def synth_prefill(config, seq_len: int, seed: int) -> PrefillResult:
    """A prefill over random keys and values, as a caller that brings its
    own KV would build one."""
    rng = np.random.default_rng(seed)
    cache = KVCache(config.num_layers, config.num_kv_heads, config.head_dim,
                    config.dtype_bytes)
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


def precomputed(request_id, prefill, max_new=6, priority=0) -> Request:
    return Request(
        request_id=request_id,
        prompt_ids=[0] * prefill.seq_len,
        sampling=SamplingParams(max_new_tokens=max_new),
        policy_spec=PolicySpec.named("pqcache", BUDGET),
        prefill=prefill,
        qos=RequestQoS(priority=priority),
    )


def bounded_engine(model, blocks, mode="swap", max_batch=4) -> InferenceEngine:
    return InferenceEngine(model, EngineConfig(
        SchedulerConfig(max_batch_size=max_batch, preemption_mode=mode),
        pool=PoolConfig(block_size=BLOCK, blocks=blocks),
    ))


def alone(model, prefill, max_new=6) -> list[int]:
    """Tokens of a precomputed request served alone on an unbounded pool."""
    request = precomputed("alone", prefill, max_new)
    return InferenceEngine(model).run([request])["alone"].token_ids


class TestPrecomputedPrefillInThePool:
    def test_larger_than_the_pool_raises_and_engine_recovers(self, model, rng):
        """A precomputed prefill that can never fit raises ``CapacityError``
        at admission, holding no block, and the engine stays steppable."""
        engine = bounded_engine(model, blocks=8)  # 128 tokens
        engine.submit(precomputed("big", synth_prefill(model.config, 300, 1)))
        with pytest.raises(CapacityError):
            engine.run()
        assert engine.block_allocator.num_allocated == 0
        engine.abort("big")
        small = Request(request_id="small",
                        prompt_ids=rng.integers(4, 500, size=40).tolist(),
                        sampling=SamplingParams(max_new_tokens=2))
        finals = engine.run([small])
        assert finals["small"].finish_reason == "length"

    def test_blocks_are_allocated_on_every_step(self, model):
        """From admission to finish the request's whole KV is pool blocks,
        and the prefill it brought is never written."""
        prefill = synth_prefill(model.config, 100, 2)
        keys = prefill.kvcache[0].keys.copy()
        engine = bounded_engine(model, blocks=12)
        engine.submit(precomputed("r", prefill, max_new=40))
        state = engine._states["r"]
        while engine.has_unfinished:
            engine.step()
            tokens = len(state.paged)
            assert tokens > 100
            assert engine.block_allocator.num_allocated == -(-tokens // BLOCK)
        assert len(prefill.kvcache) == 100
        assert np.array_equal(prefill.kvcache[0].keys, keys)

    def test_outranked_import_waits_holding_nothing(self, model):
        """An import the pool cannot take while an older request holds it
        goes back to waiting with no block, and runs once that one is done."""
        prefills = [synth_prefill(model.config, length, seed)
                    for length, seed in ((150, 6), (100, 7))]
        references = [alone(model, prefill, max_new=20) for prefill in prefills]
        engine = bounded_engine(model, blocks=12)  # 192 tokens
        for index, prefill in enumerate(prefills):
            engine.submit(precomputed(f"r{index}", prefill, max_new=20))
        engine.step()
        waiting = engine._states["r1"]
        assert waiting.status is RequestStatus.WAITING and waiting.paged is None
        assert engine.block_allocator.num_allocated == -(-151 // BLOCK)
        finals = engine.run()
        assert [finals[f"r{i}"].token_ids for i in range(2)] == references
        assert engine.metrics.preemptions == 0

    @pytest.mark.parametrize("mode", ["swap", "recompute"])
    def test_preempted_resumes_byte_identically(self, model, rng, mode):
        """A higher class that needs the pool preempts the imported request;
        it resumes (recompute re-imports ``Request.prefill``) and produces
        the tokens it produces alone."""
        prefill = synth_prefill(model.config, 100, 3)
        reference = alone(model, prefill, max_new=8)
        engine = bounded_engine(model, blocks=12, mode=mode)
        engine.submit(precomputed("low", prefill, max_new=8))
        engine.step()
        engine.step()
        assert engine._states["low"].status is RequestStatus.RUNNING
        engine.submit(Request(request_id="high",
                              prompt_ids=rng.integers(4, 500, size=90).tolist(),
                              sampling=SamplingParams(max_new_tokens=2),
                              qos=RequestQoS(priority=1)))
        finals = engine.run()
        preemptions = (engine.metrics.preemptions_swap if mode == "swap"
                       else engine.metrics.preemptions_recompute)
        assert preemptions >= 1
        assert finals["low"].token_ids == reference
        assert finals["high"].finish_reason == "length"

    def test_same_prompt_ids_different_kv_never_meet_the_prefix_cache(self, model):
        """Two precomputed requests with identical prompt ids and different
        KV, batched in one engine, each produce their tokens alone; the
        prefix cache records no insert or match for either."""
        prefills = [synth_prefill(model.config, 200, seed) for seed in (4, 5)]
        references = [alone(model, prefill) for prefill in prefills]
        assert references[0] != references[1]
        engine = InferenceEngine(model)
        finals = engine.run([precomputed(f"r{i}", prefill)
                             for i, prefill in enumerate(prefills)])
        assert [finals[f"r{i}"].token_ids for i in range(2)] == references
        assert engine.metrics.decode_batch_requests > engine.metrics.decode_batch_rounds
        stats = engine.prefix_cache.stats
        assert stats.queries == 0 and stats.inserted_blocks == 0
        assert engine.metrics.prefix_cache_queries == 0
