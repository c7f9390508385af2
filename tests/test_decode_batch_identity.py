"""The decode round vs the per-request loop it replaced: byte-identity fuzz.

The engine's decode round — one
:meth:`~repro.llm.TransformerLM.decode_step_batch` call over the RUNNING
requests whose appends the free list covers, flushed early wherever a member
needs the pool-pressure ladder — must be *byte-identical* to
``tests/decode_loop_oracle.py``, the former per-request loop (own
``decode_step`` layer loop, own selector closure, own billing tail): tokens, logits, selections, selection-hook observations,
per-request metrics, and the engine's simulated clock and counters.

Four layers of assertion:

* a directed property test of the load-bearing numerical contract — each
  decode row of a dense op is its own GEMV, so a row's result in a round of
  any size (1-8 rows, random batch-mates) is bitwise equal to its solo
  call, for :class:`~repro.llm.layers.Linear` and
  :class:`~repro.llm.layers.SwiGLU` at every benchmark geometry;
* a randomized engine fuzz, 200 seeds — mixed policies, shared prefixes,
  forced decodes, chunked and monolithic prefill, staggered
  ``max_new_tokens`` (members finish mid-round), mid-run submissions and
  aborts, and bounded KV pools (swap and recompute preemption — parking
  members mid-batch and recompute-replay on resume, the step flushing a
  round before every ladder run whenever the free list is short);
* directed bounded-pool cases for those flushes — a free list that covers
  only the first two of four members, a later member's reservation
  preempting an earlier member that already decoded this step, and a run in
  which every member needs the ladder;
* a cluster fuzz — the same traffic through a multi-worker
  :class:`~repro.serve.cluster.ClusterFrontend` with production and oracle
  workers.

Host wall-clock stage timings and the round-shape counters
(``decode_batch_*``, ``decode_*_seconds``) are the *only* metrics allowed
to differ from the oracle's; everything else is compared exactly.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.baselines import SelectionBudget
from repro.core.pqcache import PQCacheConfig
from repro.llm import ModelConfig, TransformerLM
from repro.llm.layers import Linear, SwiGLU
from repro.llm.model import _decode_rows
from repro.serve import (
    InferenceEngine,
    PolicySpec,
    Request,
    RequestQoS,
    SamplingParams,
    SchedulerConfig,
)
from repro.serve.cluster import ClusterFrontend, Worker
from repro.utils import DTYPE

from decode_loop_oracle import LoopedDecodeEngine, LoopedDecodeWorker

PQ_CONFIG = PQCacheConfig(
    num_partitions=2, num_bits=2, max_kmeans_iters=4,
    gpu_cache_tokens=64, gpu_cache_block=8,
)

POLICY_NAMES = [None, "pqcache", "snapkv", "h2o", "streaming-llm", "sparq"]


@pytest.fixture(scope="module")
def fuzz_model():
    config = ModelConfig(
        num_layers=2, hidden_dim=32, num_heads=4, num_kv_heads=2,
        ffn_dim=64, vocab_size=128, name="decode-batch-fuzz",
    )
    return TransformerLM(config, seed=11)


def _policy_spec(name):
    if name is None:
        return None
    budget = SelectionBudget(token_ratio=0.3, num_initial=2, num_local=8)
    if name == "pqcache":
        return PolicySpec.named("pqcache", budget, pq_config=PQ_CONFIG,
                                sketch_tokens=16)
    return PolicySpec.named(name, budget)


# ------------------------------------------------ the numerical contract


#: ``(hidden, ffn)`` of the fuzz model and of the chat, ``prefill_long`` and
#: ``decode_long`` benchmark models
DENSE_GEOMETRIES = [(32, 64), (64, 128), (256, 512), (512, 1024)]


@pytest.mark.parametrize("hidden,ffn", DENSE_GEOMETRIES)
def test_each_decode_row_is_its_own_gemv(hidden, ffn):
    """The dense-op contract the fused round is built on.

    ``_decode_rows(op, rows)[r]`` must be bitwise equal to the solo call
    ``_decode_rows(op, rows[r:r+1])[0]`` whatever the round's size and
    whatever its other rows hold: the round of one (the per-request loop)
    and the fused round see the same bits.
    """
    rng = np.random.default_rng(hidden)
    ops = {
        "q_proj": Linear.init(hidden, hidden, rng),
        "k_proj": Linear.init(hidden, hidden // 2, rng),
        "ffn": SwiGLU.init(hidden, ffn, rng),
    }
    for name, op in ops.items():
        for b in range(1, 9):
            rows = rng.normal(size=(b, hidden)).astype(DTYPE)
            packed = _decode_rows(op, rows)
            for r in range(b):
                alone = _decode_rows(op, rows[r: r + 1])[0]
                assert np.array_equal(packed[r], alone), (
                    f"{name} ({hidden}, {ffn}) row {r} of {b} diverged"
                )


# ------------------------------------------------------ comparison helpers

#: host wall-clock / round-shape fields — legitimately differ from the
#: oracle (which never populates them); everything else must match exactly,
#: including the simulated ``clock``.
_MODE_DEPENDENT_METRICS = {
    "decode_batch_rounds", "decode_batch_requests",
    "decode_batch_size_1", "decode_batch_size_2_4", "decode_batch_size_5_8",
    "decode_batch_size_9_16", "decode_batch_size_17_plus",
    "decode_select_seconds", "decode_score_seconds", "decode_topk_seconds",
    "decode_assemble_seconds", "decode_gather_seconds",
    "decode_attention_seconds",
    "decode_maintenance_seconds",
    "prefill_projection_seconds", "prefill_attention_seconds",
    "prefill_aggregates_seconds", "prefill_ffn_seconds",
}


def _assert_engine_metrics_equal(fused, looped, context):
    for spec in fields(fused):
        if spec.name in _MODE_DEPENDENT_METRICS:
            continue
        f, l = getattr(fused, spec.name), getattr(looped, spec.name)
        assert f == l, f"{context}: metrics.{spec.name} {f} != {l}"


def _assert_selections_equal(fused, looped, context):
    if looped is None or fused is None:
        assert fused is None and looped is None, context
        return
    assert len(fused) == len(looped), context
    for step, (f_step, l_step) in enumerate(zip(fused, looped)):
        assert len(f_step) == len(l_step), f"{context} step={step}"
        for f_sel, l_sel in zip(f_step, l_step):
            if l_sel is None:
                assert f_sel is None, f"{context} step={step}"
                continue
            assert len(f_sel) == len(l_sel), f"{context} step={step}"
            for f_head, l_head in zip(f_sel, l_sel):
                assert np.array_equal(f_head, l_head), f"{context} step={step}"


def _assert_outputs_equal(fused, looped, context):
    assert fused.token_ids == looped.token_ids, context
    assert fused.finish_reason == looped.finish_reason, context
    if looped.logits is None:
        assert fused.logits is None, context
    else:
        assert np.array_equal(fused.logits, looped.logits), context
    _assert_selections_equal(fused.selections, looped.selections, context)
    for spec in fields(fused.metrics):
        f = getattr(fused.metrics, spec.name)
        l = getattr(looped.metrics, spec.name)
        assert f == l, f"{context}: request metrics.{spec.name} {f} != {l}"


# -------------------------------------------------------------- the fuzz


def _random_requests(model, rng, hook_log):
    """4-7 requests: mixed policies, shared prefixes, forced decodes, hooks."""
    vocab = model.config.vocab_size
    shared_pool = rng.integers(4, vocab, size=48).tolist()
    requests = []
    for index in range(int(rng.integers(4, 8))):
        plen = int(rng.integers(24, 90))
        if rng.random() < 0.4:
            shared = min(int(rng.integers(8, 41)), plen - 1)
            prompt = shared_pool[:shared] + rng.integers(
                4, vocab, size=plen - shared
            ).tolist()
        else:
            prompt = rng.integers(4, vocab, size=plen).tolist()
        name = POLICY_NAMES[int(rng.integers(0, len(POLICY_NAMES)))]
        forced = None
        if rng.random() < 0.2:
            forced = rng.integers(4, vocab, size=int(rng.integers(2, 6))).tolist()
        hook = None
        if name is not None and rng.random() < 0.3:
            rid = f"fuzz-{index}"
            log = hook_log.setdefault(rid, [])

            def hook(layer_index, query, kvcache, normalised, _log=log):
                _log.append((layer_index, query.copy()))

        requests.append(
            Request(
                prompt_ids=prompt,
                request_id=f"fuzz-{index}",
                # Staggered budgets: members finish mid-batch on different
                # rounds, shrinking the fused batch as the schedule drains.
                sampling=SamplingParams(max_new_tokens=int(rng.integers(2, 9)),
                                        observation_window=8),
                policy_spec=_policy_spec(name),
                forced_decode_ids=forced,
                selection_hook=hook,
            )
        )
    return requests


def _min_pool_blocks(request, block_size):
    decoded = (
        len(request.forced_decode_ids)
        if request.forced_decode_ids is not None
        else request.sampling.max_new_tokens
    )
    tokens = len(request.prompt_ids) + decoded + 1
    return -(-tokens // block_size) + 1


def _drive(model, requests, plan, engine_cls, hook_log):
    """Run one engine over the seeded submit/abort schedule."""
    # The hook closures append to the lists inside ``hook_log``; both runs
    # share them, so slice off this run's entries by pre-run length.
    marks = {rid: len(log) for rid, log in hook_log.items()}
    engine = engine_cls(
        model,
        scheduler_config=SchedulerConfig(
            max_batch_size=plan["max_batch_size"],
            max_prefill_chunk_tokens=plan["chunk"],
            preemption_mode=plan["mode"],
        ),
        enable_prefix_caching=True,
        kv_block_size=plan["block_size"],
        kv_pool_blocks=plan["pool"],
        max_retained_outputs=0,
    )
    finals = {}
    step_cap = 400 + 100 * len(requests)
    submit_at = dict(plan["submit_at"])
    for step_index in range(step_cap):
        for request in submit_at.pop(step_index, []):
            engine.submit(request)
        rid = plan["abort_at"].get(step_index)
        if rid is not None and rid in engine._states:
            engine.abort(rid)
        for output in engine.step():
            if output.finished:
                finals[output.request_id] = output
        if not submit_at and not engine.has_unfinished:
            break
    else:
        pytest.fail("engine made no progress within the step budget")
    return engine, finals, {
        rid: list(log[marks[rid]:]) for rid, log in hook_log.items()
    }


def _run_fuzz_seed(model, seed):
    rng = np.random.default_rng(seed)
    hook_log: dict = {}
    requests = _random_requests(model, rng, hook_log)
    block_size = 8
    pool = None
    mode = "swap" if rng.random() < 0.5 else "recompute"
    if rng.random() < 0.5:
        # Bounded pool: preemption parking (and recompute-replay on resume)
        # happens mid-schedule, and the step flushes a round before every
        # member whose append the free list cannot cover.
        floor = max(_min_pool_blocks(r, block_size) for r in requests)
        pool = floor + int(rng.integers(0, 6))
    plan = {
        "max_batch_size": int(rng.integers(3, 7)),
        "chunk": [None, 24, 40][int(rng.integers(0, 3))],
        "mode": mode,
        "block_size": block_size,
        "pool": pool,
        "submit_at": {},
        "abort_at": {},
    }
    plan["submit_at"][0] = requests[:2]
    for request in requests[2:]:
        plan["submit_at"].setdefault(int(rng.integers(0, 12)), []).append(request)
    for request in requests:
        if rng.random() < 0.15:
            plan["abort_at"][int(rng.integers(1, 20))] = request.request_id
    context = f"seed={seed} mode={mode} pool={pool} chunk={plan['chunk']}"

    engine, fused_finals, fused_hooks = _drive(
        model, requests, plan, _WitnessEngine, hook_log
    )
    oracle, looped_finals, looped_hooks = _drive(
        model, requests, plan, LoopedDecodeEngine, hook_log
    )
    fused_metrics, looped_metrics = engine.metrics, oracle.metrics

    assert fused_finals.keys() == looped_finals.keys(), context
    for rid in fused_finals:
        _assert_outputs_equal(
            fused_finals[rid], looped_finals[rid], f"{context} rid={rid}"
        )
    assert fused_hooks.keys() == looped_hooks.keys(), context
    for rid in fused_hooks:
        f_log, l_log = fused_hooks[rid], looped_hooks[rid]
        assert len(f_log) == len(l_log), f"{context} rid={rid} hook calls"
        for (f_layer, f_query), (l_layer, l_query) in zip(f_log, l_log):
            assert f_layer == l_layer, f"{context} rid={rid}"
            assert np.array_equal(f_query, l_query), f"{context} rid={rid}"
    _assert_engine_metrics_equal(fused_metrics, looped_metrics, context)
    # Every decode is in a counted round; the oracle runs none.
    assert fused_metrics.decode_batch_requests == fused_metrics.decode_rounds, context
    assert fused_metrics.decode_batch_rounds == len(engine.rounds), context
    assert looped_metrics.decode_batch_rounds == 0, context
    return engine


FUZZ_CASES = 8  # 8 x 25 = 200 seeds


@pytest.mark.parametrize("case", range(FUZZ_CASES))
def test_fused_vs_looped_randomized_fuzz(fuzz_model, case):
    flushed = 0
    for seed in range(case * 25, (case + 1) * 25):
        flushed += _run_fuzz_seed(fuzz_model, seed).ladder_flushes > 0
    assert flushed > 0, "no seed of this case flushed a round before a ladder run"


# ----------------------------------------- directed ladder-forced flushes


class _WitnessEngine(InferenceEngine):
    """Production engine that records what the directed cases must provoke."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: sizes of every decode round, in order
        self.rounds: list[int] = []
        #: ``(step, "round", request_ids)`` / ``(step, "reserve", request_id)``
        #: in the order the decode phases ran them
        self.decode_events: list[tuple] = []
        #: rounds flushed because the next member needed the ladder
        self.ladder_flushes = 0
        #: ``(step, request_id)`` of members parked after decoding that step
        self.parked_after_decode: list[tuple[int, str]] = []
        self._decoded_this_step: list[str] = []
        self._in_decode_phase = False
        # Every preemption — the ladder's own and the engine's parks — goes
        # through the component's ``preempt_victim``, and every reservation
        # through its ``ensure_blocks``; witness them there.
        preempt_victim = self.pressure.preempt_victim
        ensure_blocks = self.pressure.ensure_blocks

        def witnessed(victim):
            if victim.request.request_id in self._decoded_this_step:
                self.parked_after_decode.append(
                    (self.metrics.steps, victim.request.request_id)
                )
            return preempt_victim(victim)

        def witnessed_ensure(state, needed):
            if self._in_decode_phase:
                events = self.decode_events
                if events and events[-1][:2] == (self.metrics.steps, "round"):
                    self.ladder_flushes += 1
                events.append(
                    (self.metrics.steps, "reserve", state.request.request_id)
                )
            return ensure_blocks(state, needed)

        self.pressure.preempt_victim = witnessed
        self.pressure.ensure_blocks = witnessed_ensure

    def step(self):
        self._decoded_this_step = []
        return super().step()

    def _decode_phase(self, decoding, new_tokens, touch):
        self._in_decode_phase = True
        try:
            super()._decode_phase(decoding, new_tokens, touch)
        finally:
            self._in_decode_phase = False

    def _run_decode_batch(self, states, new_tokens):
        super()._run_decode_batch(states, new_tokens)
        rids = [s.request.request_id for s in states]
        self.rounds.append(len(rids))
        self.decode_events.append((self.metrics.steps, "round", rids))
        self._decoded_this_step.extend(rids)


def _directed_request(rng, rid, prompt_len, priority=0, hook=None):
    return Request(
        prompt_ids=rng.integers(4, 128, size=prompt_len).tolist(),
        request_id=rid,
        sampling=SamplingParams(max_new_tokens=6, observation_window=8),
        policy_spec=_policy_spec("pqcache"),
        qos=RequestQoS(priority=priority),
        selection_hook=hook,
    )


def test_free_list_covering_two_of_four_members_flushes_then_reserves(fuzz_model):
    """One round of two, then the ladder, then one round of the rest.

    One-token blocks, so every member's append needs exactly one block, and
    a pool sized so that the first step decoding all of ``a``-``d`` finds
    two free blocks: ``a`` and ``b`` run as one round, ``c``'s reservation
    reclaims the retained ``warm`` output's blocks, and ``c`` and ``d``
    both fit what that freed."""

    def run(engine_cls):
        rng = np.random.default_rng(3)
        hook_log: dict = {}
        engine = engine_cls(
            fuzz_model,
            scheduler_config=SchedulerConfig(max_batch_size=4),
            enable_prefix_caching=True,
            kv_block_size=1,
            kv_pool_blocks=132,
        )
        engine.run([_directed_request(rng, "warm", 30)])
        for index, rid in enumerate("abcd"):
            log = hook_log.setdefault(rid, [])

            def hook(layer_index, query, kvcache, normalised, _log=log):
                _log.append((layer_index, query.copy()))

            engine.submit(_directed_request(rng, rid, 20 + 2 * index, hook=hook))
        return engine, engine.run(), hook_log

    engine, finals, hooks = run(_WitnessEngine)
    oracle, oracle_finals, oracle_hooks = run(LoopedDecodeEngine)

    full_steps = [
        step for step in sorted({e[0] for e in engine.decode_events})
        if sum(len(e[2]) for e in engine.decode_events
               if e[:2] == (step, "round")) == 4
    ]
    first = [e[1:] for e in engine.decode_events if e[0] == full_steps[0]]
    assert first == [
        ("round", ["a", "b"]), ("reserve", "c"), ("round", ["c", "d"]),
    ]
    assert engine.metrics.preemptions == 0

    assert finals.keys() == oracle_finals.keys() == set("abcd")
    for rid in finals:
        _assert_outputs_equal(finals[rid], oracle_finals[rid], f"rid={rid}")
        assert len(hooks[rid]) == len(oracle_hooks[rid]) > 0, rid
        for (f_layer, f_query), (l_layer, l_query) in zip(
            hooks[rid], oracle_hooks[rid]
        ):
            assert f_layer == l_layer and np.array_equal(f_query, l_query), rid
    _assert_engine_metrics_equal(engine.metrics, oracle.metrics, "two of four")


@pytest.mark.parametrize("mode", ["swap", "recompute"])
def test_later_reservation_parks_member_that_already_decoded(fuzz_model, mode):
    """Member *j*'s reservation preempts member *i* < *j* only after *i*
    has decoded and been billed this step: the ladder flushes *i* first.

    ``low`` is admitted first, so it decodes first; ``high`` outranks it and
    takes its blocks when both cross a block boundary with one block free.
    Reserving every member before running any would park ``low`` a round
    earlier and move its ``finish_time`` and the clock."""

    def run(engine_cls):
        rng = np.random.default_rng(5)
        engine = engine_cls(
            fuzz_model,
            scheduler_config=SchedulerConfig(max_batch_size=4, preemption_mode=mode),
            enable_prefix_caching=True,
            kv_block_size=8,
            kv_pool_blocks=7,
            max_retained_outputs=0,
        )
        engine.submit(_directed_request(rng, "low", 22))
        engine.step()  # ``low`` is running before ``high`` arrives
        engine.submit(_directed_request(rng, "high", 22, priority=1))
        return engine, engine.run()

    engine, finals = run(_WitnessEngine)
    oracle, oracle_finals = run(LoopedDecodeEngine)

    assert engine.ladder_flushes >= 1
    assert [rid for _, rid in engine.parked_after_decode] == ["low"]
    assert engine.metrics.preemptions >= 1

    assert finals.keys() == oracle_finals.keys() == {"low", "high"}
    for rid in finals:
        _assert_outputs_equal(finals[rid], oracle_finals[rid], f"{mode} rid={rid}")
        assert finals[rid].metrics.finish_time == oracle_finals[rid].metrics.finish_time
    _assert_engine_metrics_equal(engine.metrics, oracle.metrics, mode)
    assert engine.metrics.clock == oracle.metrics.clock

    # The shape counters describe every round, the flushed ones included.
    metrics = engine.metrics
    assert metrics.decode_batch_rounds == len(engine.rounds)
    assert metrics.decode_batch_requests == sum(engine.rounds) == metrics.decode_rounds
    assert sum(metrics.decode_batch_size_histogram.values()) == len(engine.rounds)


def test_stage_seconds_cover_rounds_that_fall_back(fuzz_model):
    """A run in which *every* member needs the ladder still fills the stage
    timers and counts every round.

    One-token blocks and a pool kept full by a finished request's cached
    chain: every appended token needs a block the free list does not have
    (the ladder evicts one cached block each time), so each step flushes
    ``a`` as a round of one before ``b`` reserves."""

    def run(engine_cls):
        rng = np.random.default_rng(9)
        engine = engine_cls(
            fuzz_model,
            enable_prefix_caching=True,
            kv_block_size=1,
            kv_pool_blocks=70,
            max_retained_outputs=0,
        )
        engine.run([_directed_request(rng, "warm", 40)])
        before = engine.metrics.snapshot()
        finals = engine.run(
            [_directed_request(rng, "a", 24), _directed_request(rng, "b", 30)]
        )
        return engine, before, finals

    engine, before, finals = run(_WitnessEngine)
    oracle, _, oracle_finals = run(LoopedDecodeEngine)
    metrics = engine.metrics

    decoded = metrics.decode_rounds - before.decode_rounds
    assert decoded == 12
    assert metrics.preemptions == 0
    rounds = engine.rounds[before.decode_batch_rounds:]
    assert rounds == [1] * decoded
    assert metrics.decode_batch_rounds - before.decode_batch_rounds == decoded
    assert metrics.decode_batch_requests - before.decode_batch_requests == decoded
    assert engine.ladder_flushes > 0
    for stage in ("select", "score", "topk", "assemble", "gather", "attention",
                  "maintenance"):
        name = f"decode_{stage}_seconds"
        assert getattr(metrics, name) > getattr(before, name), name

    for rid in finals:
        _assert_outputs_equal(finals[rid], oracle_finals[rid], f"rid={rid}")
    _assert_engine_metrics_equal(metrics, oracle.metrics, "every member on the ladder")


# ------------------------------------------------------------ cluster fuzz


def _run_cluster(monkeypatch, model, requests, worker_cls):
    monkeypatch.setattr("repro.serve.cluster.frontend.Worker", worker_cls)
    cluster = ClusterFrontend(
        model,
        num_workers=3,
        placement="cache_aware",
        scheduler_config=SchedulerConfig(max_prefill_chunk_tokens=32),
    )
    for request in requests:
        cluster.submit(request)
    finals = cluster.run()
    return finals, cluster.fleet_metrics()


def test_cluster_fused_vs_looped_byte_identity(fuzz_model, monkeypatch):
    """Same traffic over a 3-worker fleet, production vs oracle workers:
    the round's shape may not move tokens, logits or clocks."""
    for seed in (0, 1, 2):
        rng = np.random.default_rng(1000 + seed)
        requests = _random_requests(fuzz_model, rng, {})
        fused_finals, fused_fleet = _run_cluster(
            monkeypatch, fuzz_model, requests, Worker
        )
        looped_finals, looped_fleet = _run_cluster(
            monkeypatch, fuzz_model, requests, LoopedDecodeWorker
        )
        context = f"cluster seed={seed}"
        assert fused_finals.keys() == looped_finals.keys(), context
        for rid in fused_finals:
            _assert_outputs_equal(
                fused_finals[rid], looped_finals[rid], f"{context} rid={rid}"
            )
        _assert_engine_metrics_equal(fused_fleet, looped_fleet, context)
        assert fused_fleet.decode_batch_rounds > 0, context
        assert looped_fleet.decode_batch_rounds == 0, context
