"""Tests for the CPU lane: per-layer jobs run beside the caller by one
helper interpreter, submitted as tickets and collected later.

Every failure of the helper ends in a defined state (the job's exception in
the caller, or the helper dropped and its jobs re-run inline), a ticket
collects the inline bits whatever happened between its submit and its
collect, and a build through the helper is bit for bit the inline build.
"""

from __future__ import annotations

import json
import math
import operator
import os
import signal
import subprocess
import sys
import textwrap
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import SelectionBudget
from repro import cpu_lane
from repro.core import PQCacheConfig, PQCacheManager, PQConfig, ProductQuantizer
from repro.llm import BlockAllocator, KVCache, ModelConfig, PagedKVCache
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    PolicySpec,
    PoolConfig,
    Request,
    SamplingParams,
    SchedulerConfig,
)

pytestmark = pytest.mark.skipif(
    cpu_lane.usable_cpus() < 2, reason="the helper needs a second usable CPU"
)

#: ample for a helper to import NumPy and repro on a loaded machine
READY_TIMEOUT_S = 60.0


def pid_per_layer(num_layers: int = 2) -> list[int]:
    """The pid each layer's job ran in."""
    return cpu_lane.map_layers(os.getpid, [()] * num_layers)


def wait_ready() -> int:
    """Wait until a two-layer map runs a layer in the helper; returns the
    helper's pid."""
    deadline = time.monotonic() + READY_TIMEOUT_S
    while (pid := pid_per_layer()[0]) == os.getpid():
        assert time.monotonic() < deadline, "the helper never became ready"
        time.sleep(0.01)
    return pid


def inline(monkeypatch) -> None:
    """Make the lane see a single CPU: every job runs in the caller."""
    monkeypatch.setattr(cpu_lane, "usable_cpus", lambda: 1)


def fit_args(num_layers: int) -> list[tuple]:
    rng = np.random.default_rng(3)
    config = PQConfig(dim=16, num_partitions=2, num_bits=3, max_kmeans_iters=4)
    return [(config, rng.normal(size=(2, 90, 16)), None) for _ in range(num_layers)]


def assert_same_fits(got, want) -> None:
    assert len(got) == len(want)
    for got_layer, want_layer in zip(got, want):
        for a, b in zip(got_layer, want_layer):
            assert np.array_equal(a, b)


class TestSplit:
    def test_results_come_back_in_layer_order(self):
        helper = wait_ready()
        # An idle, ready helper takes the first layer; the caller runs the
        # other one meanwhile.
        assert pid_per_layer(2) == [helper, os.getpid()]
        assert set(pid_per_layer(5)) == {helper, os.getpid()}
        assert cpu_lane.map_layers(operator.mul, [(i, 10) for i in range(5)]) == [
            0, 10, 20, 30, 40
        ]

    def test_one_layer_and_one_cpu_run_inline(self, monkeypatch):
        wait_ready()
        assert pid_per_layer(1) == [os.getpid()]
        inline(monkeypatch)
        assert pid_per_layer(3) == [os.getpid()] * 3


class TestFailures:
    def test_job_error_reraises_its_type_and_keeps_the_helper(self):
        helper = wait_ready()
        with pytest.raises(ZeroDivisionError) as raised:
            cpu_lane.map_layers(operator.truediv, [(1, 0), (1, 1)])
        assert "ZeroDivisionError" in str(raised.value.__cause__)  # remote traceback
        assert pid_per_layer()[0] == helper

    def test_dead_helper_is_dropped_and_its_jobs_rerun_inline(self, monkeypatch):
        helper = wait_ready()
        os.kill(helper, signal.SIGTERM)
        cpu_lane._helper.proc.wait(timeout=30)
        got = cpu_lane.map_layers(ProductQuantizer.fit_batch, fit_args(2))
        with monkeypatch.context() as patched:
            inline(patched)
            assert_same_fits(got, cpu_lane.map_layers(ProductQuantizer.fit_batch, fit_args(2)))
        assert wait_ready() != helper  # the next call started a new one

    def test_short_reply_is_dropped_and_its_jobs_rerun_inline(self):
        wait_ready()
        helper = cpu_lane._helper
        pipe = helper.reader
        reply = b"".join(cpu_lane._frames((0.0, "ok", np.float64(2.0))))
        read_fd, write_fd = os.pipe()
        os.write(write_fd, reply[:-2])
        os.close(write_fd)
        helper.reader = os.fdopen(read_fd, "rb")
        try:
            assert cpu_lane.map_layers(math.sqrt, [(4.0,), (9.0,)]) == [2.0, 3.0]
        finally:
            pipe.close()
        assert cpu_lane._helper is not helper
        assert helper.proc.poll() is not None  # killed and reaped

    def test_caller_error_keeps_the_next_exchange_in_step(self):
        wait_ready()
        with pytest.raises(ZeroDivisionError):
            cpu_lane.map_layers(operator.truediv, [(1, 1), (1, 0)])
        wait_ready()
        assert cpu_lane.map_layers(operator.truediv, [(6, 3), (8, 2), (9, 3)]) == [
            2.0, 4.0, 3.0
        ]

    def test_forked_child_never_writes_to_the_parent_helper(self):
        helper = wait_ready()
        read_fd, write_fd = os.pipe()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
            child = os.fork()
        if child == 0:
            try:
                os.write(write_fd, json.dumps(pid_per_layer(3)).encode())
                cpu_lane._drop()  # the child's own helper, if it started one
            finally:
                os._exit(0)
        os.close(write_fd)
        os.waitpid(child, 0)
        with os.fdopen(read_fd) as pipe:
            assert json.loads(pipe.read()) == [child] * 3
        assert pid_per_layer(2) == [helper, os.getpid()]

    def test_helper_exits_when_its_parent_is_killed(self):
        parent_code = textwrap.dedent(
            f"""
            import os, sys, time
            sys.path[:0] = {sys.path!r}
            from repro import cpu_lane
            deadline = time.monotonic() + {READY_TIMEOUT_S}
            while time.monotonic() < deadline:
                pids = cpu_lane.map_layers(os.getpid, [(), ()])
                if pids[1] != pids[0]:
                    break
                time.sleep(0.01)
            print(pids[0], flush=True)
            time.sleep(600)
            """
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", parent_code], stdout=subprocess.PIPE, text=True
        )
        try:
            helper = int(parent.stdout.readline())
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
        assert helper != parent.pid
        deadline = time.monotonic() + 30
        while _running(helper):
            assert time.monotonic() < deadline, "the helper outlived its parent"
            time.sleep(0.05)


class TestTickets:
    def test_submit_returns_before_its_jobs_run(self):
        helper = wait_ready()
        started = time.monotonic()
        ticket = cpu_lane.submit(time.sleep, [(0.5,), (0.5,)])
        assert time.monotonic() - started < 0.4
        assert ticket.result() == [None, None]
        assert pid_per_layer() == [helper, os.getpid()]

    def test_collect_runs_queued_jobs_inline_and_waits_only_on_started_ones(self):
        helper = wait_ready()
        busy = cpu_lane.submit(time.sleep, [(1.0,)])  # the helper is busy
        queued = cpu_lane.submit(os.getpid, [(), ()])
        assert queued.result() == [os.getpid()] * 2
        assert busy.result() == [None]
        assert pid_per_layer() == [helper, os.getpid()]

    def test_cancelled_jobs_never_reach_the_helper(self):
        wait_ready()
        busy = cpu_lane.submit(time.sleep, [(1.0,)])
        cancelled = cpu_lane.submit(os.getpid, [(), ()])
        cancelled.cancel()
        assert busy.result() == [None]
        assert cpu_lane._sent is None and not cpu_lane._queue
        assert cancelled.result() == [os.getpid()] * 2  # collected anyway: inline

    def test_inputs_are_owned_at_submit(self, monkeypatch):
        wait_ready()
        args = fit_args(3)
        want = [ProductQuantizer.fit_batch(*each) for each in fit_args(3)]
        busy = cpu_lane.submit(time.sleep, [(0.2,)])  # every fit waits queued
        ticket = cpu_lane.submit(ProductQuantizer.fit_batch, args)
        for _, keys, _ in args:
            keys[...] = 0.0
        busy.result()
        assert_same_fits(ticket.result(), want)

    def test_refine_reads_its_keys_before_the_pool_blocks_are_reused(self, monkeypatch):
        def refined(overwrite: bool) -> tuple:
            config = replace(ModelConfig.tiny(), num_layers=3)
            allocator = BlockAllocator(
                config.num_layers, config.num_kv_heads, config.head_dim, block_size=16
            )
            rng = np.random.default_rng(4)
            cache = PagedKVCache(allocator)
            shape = (config.num_kv_heads, 200, config.head_dim)
            for layer in range(config.num_layers):
                cache[layer].append(rng.normal(size=shape), rng.normal(size=shape))
            manager = PQCacheManager(
                config, PQCacheConfig(num_bits=4, max_kmeans_iters=6, gpu_cache_tokens=0)
            )
            manager.build_incremental(cache, upto=120, sample_tokens=64)
            for layer in range(config.num_layers):
                manager.append_tokens(layer, cache[layer].read(120, 200)[0])
            manager.refine(cache)
            if overwrite:  # the blocks go back to the pool and take other keys
                cache.release()
                other = PagedKVCache(allocator)
                for layer in range(config.num_layers):
                    other[layer].append(rng.normal(size=shape), rng.normal(size=shape))
            return _state(manager, config.num_layers)

        wait_ready()
        busy = cpu_lane.submit(time.sleep, [(0.2,)])  # the refine waits queued
        got = refined(overwrite=True)
        busy.result()
        inline(monkeypatch)
        want = refined(overwrite=False)
        for got_part, want_part in zip(got[:2], want[:2]):
            assert all(map(np.array_equal, got_part, want_part))
        assert got[2] == want[2]

    def test_helper_killed_with_two_tickets_outstanding(self, monkeypatch):
        helper = wait_ready()
        first = cpu_lane.submit(ProductQuantizer.fit_batch, fit_args(2))
        second = cpu_lane.submit(ProductQuantizer.fit_batch, fit_args(3))
        os.kill(helper, signal.SIGKILL)
        cpu_lane._helper.proc.wait(timeout=30)
        got = (second.result(), first.result())
        inline(monkeypatch)
        assert_same_fits(got[0], cpu_lane.map_layers(ProductQuantizer.fit_batch, fit_args(3)))
        assert_same_fits(got[1], cpu_lane.map_layers(ProductQuantizer.fit_batch, fit_args(2)))
        monkeypatch.undo()
        assert wait_ready() != helper

    def test_forked_child_collects_a_parent_ticket_inline(self, monkeypatch):
        helper = wait_ready()
        ticket = cpu_lane.submit(ProductQuantizer.fit_batch, fit_args(3))
        read_fd, write_fd = os.pipe()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
            child = os.fork()
        if child == 0:
            try:
                fits = ticket.result()
                pids = pid_per_layer(2)
                cpu_lane._drop()  # the child's own helper, if it started one
                os.write(write_fd, json.dumps(
                    [[[a.tolist() for a in layer] for layer in fits], pids]
                ).encode())
            finally:
                os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            child_fits, child_pids = json.loads(pipe.read())
        os.waitpid(child, 0)
        assert child_pids == [child, child]
        got = ticket.result()
        assert pid_per_layer(2) == [helper, os.getpid()]
        inline(monkeypatch)
        want = cpu_lane.map_layers(ProductQuantizer.fit_batch, fit_args(3))
        assert_same_fits(got, want)
        for child_layer, want_layer in zip(child_fits, want):
            for a, b in zip(child_layer, want_layer):
                assert np.array_equal(np.asarray(a, dtype=b.dtype), b)


class TestStats:
    def test_jobs_run_once_in_the_helper_or_inline(self):
        wait_ready()
        before = cpu_lane.stats()
        tickets = [cpu_lane.submit(ProductQuantizer.fit_batch, fit_args(n)) for n in (2, 3)]
        cpu_lane.map_layers(ProductQuantizer.fit_batch, fit_args(2))
        cpu_lane.map_layers(os.getpid, [()])
        for ticket in tickets:
            ticket.result()
        after = cpu_lane.stats()
        submitted = after.submitted - before.submitted
        assert submitted == 8
        assert (after.helper_jobs - before.helper_jobs) + (
            after.inline_jobs - before.inline_jobs
        ) == submitted
        assert after.helper_jobs > before.helper_jobs
        assert after.helper_busy_s > before.helper_busy_s

    def test_one_cpu_reads_no_helper_job_and_no_wait(self, monkeypatch):
        wait_ready()
        inline(monkeypatch)
        before = cpu_lane.stats()
        ticket = cpu_lane.submit(ProductQuantizer.fit_batch, fit_args(3))
        cpu_lane.map_layers(ProductQuantizer.fit_batch, fit_args(2))
        ticket.result()
        after = cpu_lane.stats()
        assert after.submitted - before.submitted == 5
        assert after.inline_jobs - before.inline_jobs == 5
        assert after.helper_jobs == before.helper_jobs
        assert after.helper_busy_s == before.helper_busy_s
        assert after.collect_wait_s == before.collect_wait_s

    def test_stats_is_a_copy(self):
        counters = cpu_lane.stats()
        counters.submitted += 1000
        assert cpu_lane.stats().submitted == counters.submitted - 1000


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# ------------------------------------------------------------ bit equality


def _state(manager: PQCacheManager, num_layers: int) -> tuple:
    return (
        [manager.codebooks(layer).copy() for layer in range(num_layers)],
        [manager.layer_codes(layer).copy() for layer in range(num_layers)],
        manager.total_kmeans_iterations,
    )


def _construct(config: ModelConfig) -> list:
    rng = np.random.default_rng(11)
    cache = KVCache(config.num_layers, config.num_kv_heads, config.head_dim)
    for layer in range(config.num_layers):
        shape = (config.num_kv_heads, 300, config.head_dim)
        cache[layer].append(rng.normal(size=shape), rng.normal(size=shape))
    manager = PQCacheManager(
        config, PQCacheConfig(num_bits=4, max_kmeans_iters=6, gpu_cache_tokens=0)
    )
    manager.build(cache)
    states = [_state(manager, config.num_layers)]
    manager.build_incremental(cache, upto=200, sample_tokens=120)
    states.append(_state(manager, config.num_layers))
    manager.refine(cache)
    states.append(_state(manager, config.num_layers))
    return states


@pytest.mark.parametrize("num_layers", [2, 3])
def test_construction_through_the_helper_is_bit_equal(num_layers, monkeypatch):
    config = replace(ModelConfig.tiny(), num_layers=num_layers)
    wait_ready()
    split = _construct(config)
    inline(monkeypatch)
    alone = _construct(config)
    for (codebooks, codes, iterations), (want_books, want_codes, want_iters) in zip(
        split, alone
    ):
        assert all(map(np.array_equal, codebooks, want_books))
        assert all(map(np.array_equal, codes, want_codes))
        assert np.array_equal(iterations, want_iters)


def _serve(model, **options) -> tuple:
    engine = InferenceEngine(
        model,
        EngineConfig(
            scheduler=SchedulerConfig(max_prefill_chunk_tokens=96),
            pool=PoolConfig(block_size=16),
        ),
    )
    rng = np.random.default_rng(5)
    shared = rng.integers(4, model.config.vocab_size, size=200).tolist()
    budget = SelectionBudget(token_ratio=0.2, num_initial=4, num_local=16)
    tokens = []
    for tail in (40, 70, 55):
        request = Request(
            prompt_ids=shared + rng.integers(4, model.config.vocab_size, size=tail).tolist(),
            sampling=SamplingParams(max_new_tokens=5),
            policy_spec=PolicySpec.named("pqcache", budget, sketch_tokens=128, **options),
        )
        tokens.append(engine.run([request])[request.request_id].token_ids)
    report = {
        name: value
        for name, value in engine.metrics.as_dict().items()
        if not name.endswith("_seconds")
    }
    return tokens, report


def test_chunked_prefix_sharing_engine_matches_one_cpu_run(model, monkeypatch):
    wait_ready()
    tokens, report = _serve(model)
    assert report["prefix_cache_hits"] > 0
    inline(monkeypatch)
    assert _serve(model) == (tokens, report)


def test_refreshing_engine_bills_what_a_one_cpu_run_bills(model, monkeypatch):
    """Every decode step refreshes the codebooks: the maintenance billed
    through the helper (the prefill refine still uncollected at the first
    refresh's start) equals the one-CPU run's, and so does the clock."""
    wait_ready()
    tokens, report = _serve(model, refresh_every=1)
    assert report["pq_refreshes"] > 0
    inline(monkeypatch)
    assert _serve(model, refresh_every=1) == (tokens, report)


def _interrupted(model, interrupt) -> tuple:
    """A prefix-hit request whose prompt finishes in its admission step (so
    it first decodes one step later) is hit by ``interrupt(engine, state)``
    right after that step, while its refine ticket is still uncollected; a
    second request runs beside it."""
    engine = InferenceEngine(
        model,
        EngineConfig(
            scheduler=SchedulerConfig(
                max_prefill_chunk_tokens=96, preemption_mode="recompute"
            ),
            pool=PoolConfig(block_size=16),
        ),
    )
    rng = np.random.default_rng(6)
    budget = SelectionBudget(token_ratio=0.2, num_initial=4, num_local=16)

    def request(prompt: list) -> Request:
        return Request(
            prompt_ids=prompt,
            sampling=SamplingParams(max_new_tokens=6),
            policy_spec=PolicySpec.named("pqcache", budget, sketch_tokens=96),
        )

    shared = rng.integers(4, model.config.vocab_size, size=192).tolist()
    warm = request(shared + rng.integers(4, model.config.vocab_size, size=20).tolist())
    engine.run([warm])
    requests = [
        request(shared + rng.integers(4, model.config.vocab_size, size=30).tolist()),
        request(rng.integers(4, model.config.vocab_size, size=170).tolist()),
    ]
    for each in requests:
        engine.submit(each)
    victim = engine._states[requests[0].request_id]
    for _ in range(20):
        engine.step()
        manager = victim.policy.manager if victim.policy is not None else None
        if manager is not None and manager._refining is not None:
            break
    else:
        raise AssertionError("no step left the victim's refine uncollected")
    interrupt(engine, victim)
    outputs = {}
    while engine.has_unfinished:
        for output in engine.step():
            if output.finished:
                outputs[output.request_id] = output.token_ids
    report = {
        name: value
        for name, value in engine.metrics.as_dict().items()
        if not name.endswith("_seconds")
    }
    return [outputs.get(each.request_id) for each in requests], report


def _abort(engine, state) -> None:
    assert engine.abort(state.request.request_id).finish_reason == "aborted"


def _recompute_preempt(engine, state) -> None:
    assert engine.pressure.preempt_victim(state)
    assert engine.metrics.preemptions_recompute == 1


@pytest.mark.parametrize("interrupt", [_abort, _recompute_preempt])
def test_request_dropped_with_its_refine_outstanding(model, monkeypatch, interrupt):
    """The engine stays steppable, the other request and (when preempted)
    the victim finish with the one-CPU run's tokens and metrics, and the
    lane's next exchange is in step."""
    wait_ready()
    tokens, report = _interrupted(model, interrupt)
    assert tokens[1] is not None and len(tokens[1]) == 6
    assert (tokens[0] is not None) == (interrupt is _recompute_preempt)
    assert cpu_lane.map_layers(operator.mul, [(i, 3) for i in range(4)]) == [0, 3, 6, 9]
    inline(monkeypatch)
    assert _interrupted(model, interrupt) == (tokens, report)
