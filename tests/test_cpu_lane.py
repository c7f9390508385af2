"""Tests for the CPU lane: per-layer jobs split with one helper interpreter.

Every failure of the helper ends in a defined state (the job's exception in
the caller, or the helper dropped and its share re-run inline), and a build
through the helper is bit for bit the inline build.
"""

from __future__ import annotations

import io
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
from repro.core import PQCacheConfig, PQCacheManager, PQConfig, ProductQuantizer, cpu_lane
from repro.llm import KVCache, ModelConfig
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
    """Wait until layer 1 runs in the helper; returns the helper's pid."""
    deadline = time.monotonic() + READY_TIMEOUT_S
    while (pid := pid_per_layer()[1]) == os.getpid():
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
        me = os.getpid()
        assert pid_per_layer(5) == [me, helper, me, helper, me]
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
            cpu_lane.map_layers(operator.truediv, [(1, 1), (1, 0)])
        assert "ZeroDivisionError" in str(raised.value.__cause__)  # remote traceback
        assert pid_per_layer()[1] == helper

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
        reply = b"".join(cpu_lane._frames(("ok", [np.float64(3.0)])))
        helper.reader = io.BytesIO(reply[:-2])
        try:
            assert cpu_lane.map_layers(math.sqrt, [(4.0,), (9.0,)]) == [2.0, 3.0]
        finally:
            pipe.close()
        assert cpu_lane._helper is not helper
        assert helper.proc.poll() is not None  # killed and reaped

    def test_caller_error_keeps_the_next_exchange_in_step(self):
        wait_ready()
        with pytest.raises(ZeroDivisionError):
            cpu_lane.map_layers(operator.truediv, [(1, 0), (1, 1)])
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
        assert pid_per_layer(3) == [os.getpid(), helper, os.getpid()]

    def test_helper_exits_when_its_parent_is_killed(self):
        parent_code = textwrap.dedent(
            f"""
            import os, sys, time
            sys.path[:0] = {sys.path!r}
            from repro.core import cpu_lane
            deadline = time.monotonic() + {READY_TIMEOUT_S}
            while time.monotonic() < deadline:
                pids = cpu_lane.map_layers(os.getpid, [(), ()])
                if pids[1] != pids[0]:
                    break
                time.sleep(0.01)
            print(pids[1], flush=True)
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


def _serve(model) -> tuple:
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
            policy_spec=PolicySpec.named("pqcache", budget, sketch_tokens=128),
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
