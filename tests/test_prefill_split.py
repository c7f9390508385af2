"""Prefill attention split into KV-head groups on the CPU lane.

``TransformerLM.prefill_chunk`` runs each layer's attention and score folds
as one ``cpu_lane.map_layers`` call of ``prefill_head_group`` jobs, one per
KV-head group (``cpu_lane.width()`` groups, at most one per KV head, one
below ``SPLIT_MIN_TOKENS`` rows).  No GEMM, softmax or fold mixes two KV
heads, so the split must equal the single-group path bit for bit: outputs,
KV, both score aggregates, the accumulated-score snapshots and the logits.
The split cases lower the floor to one row, so every chunk size splits.
Each case runs

* with a ready helper: the helper runs one group, the caller the other;
* inline on one usable CPU, with two groups forced: both run in the caller;

and a busy helper must leave both groups to the caller without waiting.
"""

from __future__ import annotations

import ast
import os
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import cpu_lane
from repro.llm import ModelConfig, TransformerLM, model as model_module
from repro.llm.attention import prefill_head_group

PROMPT_LEN = 531  # past the 512-token chunk, off the tile grid
CHUNKS = (1, 16, 17, 300, 512, None)  # None: the whole prompt in one chunk
BOUNDARIES = (37, 300)
WINDOW = 24
NUM_LAYERS = 2
#: ample for a helper to import NumPy and repro on a loaded machine
READY_TIMEOUT_S = 60.0

two_cpus = pytest.mark.skipif(
    cpu_lane.usable_cpus() < 2, reason="the helper needs a second usable CPU"
)


def wait_ready() -> None:
    """Wait until a two-job map runs its first job in the helper."""
    deadline = time.monotonic() + READY_TIMEOUT_S
    while cpu_lane.map_layers(os.getpid, [(), ()])[0] == os.getpid():
        assert time.monotonic() < deadline, "the helper never became ready"
        time.sleep(0.01)


@pytest.fixture
def split_every_chunk(monkeypatch):
    """Split chunks of any length, not only those of ``SPLIT_MIN_TOKENS``."""
    monkeypatch.setattr(model_module, "SPLIT_MIN_TOKENS", 1)


def split_inline(monkeypatch) -> None:
    """One usable CPU, two head groups: both groups run in the caller."""
    monkeypatch.setattr(cpu_lane, "usable_cpus", lambda: 1)
    monkeypatch.setattr(cpu_lane, "width", lambda: 2)


def prefill(model, prompt, chunk):
    state = model.begin_prefill(
        prompt, observation_window=WINDOW, acc_snapshot_boundaries=BOUNDARIES
    )
    while not state.is_complete:
        model.prefill_chunk(state, chunk or len(prompt))
    return state


def assert_same_prefill(got, want) -> None:
    assert np.array_equal(got.logits, want.logits)
    assert np.array_equal(got.last_hidden, want.last_hidden)
    for layer in range(NUM_LAYERS):
        for a, b in zip(got.kvcache[layer].read(), want.kvcache[layer].read()):
            assert np.array_equal(a, b)
        assert np.array_equal(got.acc_scores[layer], want.acc_scores[layer])
        assert np.array_equal(got.window_scores[layer], want.window_scores[layer])
    assert sorted(got.acc_snapshots) == list(BOUNDARIES)
    assert sorted(want.acc_snapshots) == list(BOUNDARIES)
    for boundary in BOUNDARIES:
        for a, b in zip(got.acc_snapshots[boundary], want.acc_snapshots[boundary]):
            assert np.array_equal(a, b)


@pytest.fixture(scope="module", params=(1, 2, 4), ids=("kv1", "kv2", "kv4"))
def case(request):
    """(model, prompt, single-group prefill per chunk size) for one h_kv."""
    config = ModelConfig(
        num_layers=NUM_LAYERS, hidden_dim=32, num_heads=4,
        num_kv_heads=request.param, ffn_dim=64, vocab_size=64,
        name=f"split-{request.param}",
    )
    model = TransformerLM(config, seed=5)
    prompt = np.random.default_rng(33).integers(4, 64, size=PROMPT_LEN).tolist()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cpu_lane, "width", lambda: 1)
        patch.setattr(model_module, "SPLIT_MIN_TOKENS", 1)
        assert len(model._head_groups(1)) == 1
        references = {chunk: prefill(model, prompt, chunk) for chunk in CHUNKS}
    return model, prompt, references


def lane_delta(run):
    """``run()``'s result and how many jobs ran in the helper and inline,
    and how long collects waited, meanwhile."""
    before = cpu_lane.stats()
    result = run()
    after = cpu_lane.stats()
    return result, (
        after.helper_jobs - before.helper_jobs,
        after.inline_jobs - before.inline_jobs,
        after.collect_wait_s - before.collect_wait_s,
    )


def chunk_count(chunk) -> int:
    return -(-PROMPT_LEN // (chunk or PROMPT_LEN))


@pytest.mark.usefixtures("split_every_chunk")
class TestSplitEqualsSingleGroup:
    @two_cpus
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_with_a_ready_helper(self, case, chunk):
        model, prompt, references = case
        wait_ready()
        state, (helper, inline, _) = lane_delta(lambda: prefill(model, prompt, chunk))
        assert_same_prefill(state, references[chunk])
        jobs = NUM_LAYERS * chunk_count(chunk)
        if model.config.num_kv_heads == 1:  # one group: one inline job a layer
            assert (helper, inline) == (0, jobs)
        else:  # nothing else is queued, so the idle helper takes every pair's first
            assert (helper, inline) == (jobs, jobs)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_inline_on_one_cpu(self, case, chunk, monkeypatch):
        model, prompt, references = case
        split_inline(monkeypatch)
        groups = min(2, model.config.num_kv_heads)
        assert len(model._head_groups(1)) == groups
        state, (helper, inline, _) = lane_delta(lambda: prefill(model, prompt, chunk))
        assert_same_prefill(state, references[chunk])
        assert (helper, inline) == (0, groups * NUM_LAYERS * chunk_count(chunk))

    def test_one_usable_cpu_runs_one_group(self, case, monkeypatch):
        model = case[0]
        monkeypatch.setattr(cpu_lane, "usable_cpus", lambda: 1)
        assert cpu_lane.width() == 1
        assert len(model._head_groups(PROMPT_LEN)) == 1

    @two_cpus
    def test_busy_helper_leaves_both_groups_to_the_caller(self, case):
        model, prompt, references = case
        if model.config.num_kv_heads == 1:
            pytest.skip("one KV head is one inline job")
        wait_ready()
        busy = cpu_lane.submit(time.sleep, [(1.0,)])
        state, (helper, inline, waited) = lane_delta(
            lambda: prefill(model, prompt, None)
        )
        assert (helper, inline, waited) == (0, 2 * NUM_LAYERS, 0.0)
        assert busy.result() == [None]
        assert_same_prefill(state, references[None])


@two_cpus
def test_short_chunks_run_one_job_a_layer(case):
    """Under the real floor a chunk shorter than ``SPLIT_MIN_TOKENS`` runs
    each layer as one inline job; a longer one splits (one KV head never)."""
    model, prompt, references = case
    floor = model_module.SPLIT_MIN_TOKENS
    wait_ready()
    state, (helper, inline, _) = lane_delta(lambda: prefill(model, prompt, floor - 1))
    assert_same_prefill(state, references[None])
    full, rest = divmod(PROMPT_LEN, floor - 1)
    assert full >= 1 and 0 < rest < floor  # the last chunk is short as well
    assert (helper, inline) == (0, NUM_LAYERS * (full + 1))
    split = model.config.num_kv_heads > 1
    assert len(model._head_groups(floor)) == (2 if split else 1)


@pytest.mark.parametrize("kv_heads", (2, 4))
@pytest.mark.parametrize("where", ("helper", "inline"))
def test_head_groups_concatenate_to_the_all_heads_job(kv_heads, where, monkeypatch):
    """The job's outputs, folded rows and snapshots, per group and stacked,
    equal one job over every head; the inputs are left as they were."""
    if where == "helper":
        if cpu_lane.usable_cpus() < 2:
            pytest.skip("the helper needs a second usable CPU")
        wait_ready()
    else:
        split_inline(monkeypatch)
    rng = np.random.default_rng(kv_heads)
    group, n, t, d_h = 2, 300, 45, 8
    queries = rng.normal(size=(kv_heads * group, t, d_h)).astype(np.float32)
    keys = rng.normal(size=(kv_heads, n, d_h)).astype(np.float32)
    values = rng.normal(size=(kv_heads, n, d_h)).astype(np.float32)
    acc = rng.random((kv_heads * group, n)).astype(np.float32)
    win = rng.random((kv_heads * group, n)).astype(np.float32)
    kept = acc.copy(), win.copy()
    window_start, boundaries = n - 20, (n - t + 3, n)
    whole = prefill_head_group(queries, keys, values, acc, win, window_start, boundaries)
    half, heads = kv_heads // 2, kv_heads // 2 * group
    parts = cpu_lane.map_layers(prefill_head_group, [
        (queries[:heads], keys[:half], values[:half], acc[:heads], win[:heads],
         window_start, boundaries),
        (queries[heads:], keys[half:], values[half:], acc[heads:], win[heads:],
         window_start, boundaries),
    ])
    assert np.array_equal(acc, kept[0]) and np.array_equal(win, kept[1])
    assert not np.array_equal(whole.acc_scores, acc)
    for field in ("outputs", "acc_scores", "window_scores"):
        stacked = np.concatenate([getattr(part, field) for part in parts])
        assert np.array_equal(stacked, getattr(whole, field))
    assert sorted(whole.acc_snapshots) == list(boundaries)
    for boundary in boundaries:
        stacked = np.concatenate([part.acc_snapshots[boundary] for part in parts])
        assert np.array_equal(stacked, whole.acc_snapshots[boundary])
    assert whole.fold_s > 0.0 and whole.attention_s > 0.0



SRC = Path(repro.__file__).parent


def top_level_imports(path: Path) -> set:
    """What a ``repro`` source file imports at its top level, as dotted
    names, relative imports resolved."""
    package = ".".join(path.relative_to(SRC.parent).parent.parts)
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_the_lane_sits_below_llm_and_core():
    """``repro.core`` imports ``repro.llm``, and the model imports the lane:
    so the lane imports nothing of ``repro`` and ``repro.llm`` nothing of
    ``repro.core``, and no import cycle forms."""
    assert not any(n.startswith("repro") for n in top_level_imports(SRC / "cpu_lane.py"))
    assert "repro.cpu_lane" in top_level_imports(SRC / "llm" / "model.py")
    for source in sorted((SRC / "llm").glob("*.py")):
        assert not any(
            n.startswith("repro.core") for n in top_level_imports(source)
        ), source.name
