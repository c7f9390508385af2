"""Chunked prefill must be bitwise identical to monolithic prefill.

The central contract of the chunked-prefill redesign: any partition of the
prompt into chunks — including one token at a time — produces the same
KVCache contents, aggregates, logits and downstream decode behaviour, bit
for bit.  ``prefill()`` itself is a thin loop over ``prefill_chunk()``, so
these tests drive both the convenience wrapper and the raw
``begin_prefill / prefill_chunk / finish_prefill`` state machine, and then
check every registered policy's decode-time selections on top.

A faithful copy of the seed's original monolithic implementation is kept
here as a reference: the model's kernel runs on a fixed tile grid of GEMMs
and folds its aggregates one query row at a time, so it matches the seed to
tight floating-point tolerance rather than bitwise — while remaining
*exactly* equal across chunkings.  ``TestTileGrid`` repeats the contract on
prompts long enough to leave the first attention tile and projection block.
"""

import numpy as np
import pytest

from prefill_attention_oracle import causal_attention
from repro.baselines import POLICY_NAMES, SelectionBudget, build_policy
from repro.errors import ConfigurationError
from repro.llm import (
    PREFILL_TILE,
    KVCache,
    ModelConfig,
    TransformerLM,
    expand_kv_heads,
    prefill_attention,
)
from repro.llm.rope import apply_rope
from repro.utils import softmax

PROMPT_LEN = 48
CHUNK_SIZES = (1, 7, None)  # None = the whole prompt in one chunk

BUDGET = SelectionBudget(token_ratio=0.3, comm_ratio=1.0 / 64.0,
                         num_initial=2, num_local=8)


@pytest.fixture(scope="module")
def chunk_model():
    return TransformerLM(ModelConfig.tiny(), seed=0)


@pytest.fixture(scope="module")
def chunk_prompt(chunk_model):
    rng = np.random.default_rng(21)
    return rng.integers(4, chunk_model.config.vocab_size, size=PROMPT_LEN).tolist()


@pytest.fixture(scope="module")
def prefill_variants(chunk_model, chunk_prompt):
    """One prefill per chunk size, queries collected."""
    return {
        size: chunk_model.prefill(
            chunk_prompt, observation_window=16, collect_queries=True,
            chunk_size=size,
        )
        for size in CHUNK_SIZES
    }


def seed_monolithic_prefill(model, token_ids, observation_window=32,
                            query_block=256):
    """Faithful copy of the seed's single-shot ``TransformerLM.prefill``."""
    token_ids = np.asarray(list(token_ids), dtype=np.int64)
    cfg = model.config
    s = int(token_ids.size)
    positions = np.arange(s)
    hidden = model.embedding[token_ids]
    cache = KVCache(cfg.num_layers, cfg.num_kv_heads, cfg.head_dim)
    aggregates = []
    group = cfg.gqa_group_size
    window = min(observation_window, s)

    for layer in model.layers:
        normed = layer.attn_norm(hidden)
        q = layer.q_proj(normed).reshape(s, cfg.num_heads, cfg.head_dim)
        k = layer.k_proj(normed).reshape(s, cfg.num_kv_heads, cfg.head_dim)
        v = layer.v_proj(normed).reshape(s, cfg.num_kv_heads, cfg.head_dim)
        q = apply_rope(q.transpose(1, 0, 2), positions, base=model.rope_base)
        k = apply_rope(k.transpose(1, 0, 2), positions, base=model.rope_base)
        v = v.transpose(1, 0, 2)
        cache[len(aggregates)].append(k, v)

        k_exp = expand_kv_heads(k, group)
        v_exp = expand_kv_heads(v, group)
        acc = np.zeros((cfg.num_heads, s))
        win = np.zeros((cfg.num_heads, s))
        outputs = np.empty((cfg.num_heads, s, cfg.head_dim))
        for start in range(0, s, query_block):
            stop = min(start + query_block, s)
            logits = np.einsum("hqd,hkd->hqk", q[:, start:stop, :], k_exp)
            logits = logits / np.sqrt(cfg.head_dim)
            cols = np.arange(s)[None, :]
            rows = np.arange(start, stop)[:, None]
            logits = np.where(cols > rows, -np.inf, logits)
            scores = softmax(logits, axis=-1)
            outputs[:, start:stop, :] = np.einsum("hqk,hkd->hqd", scores, v_exp)
            acc += scores.sum(axis=1)
            overlap_start = max(start, s - window)
            if overlap_start < stop:
                win += scores[:, overlap_start - start: stop - start, :].sum(axis=1)

        aggregates.append(
            (
                acc.reshape(cfg.num_kv_heads, group, s).mean(axis=1),
                win.reshape(cfg.num_kv_heads, group, s).mean(axis=1),
            )
        )
        attn_out = outputs.transpose(1, 0, 2).reshape(s, cfg.hidden_dim)
        hidden = hidden + layer.o_proj(attn_out)
        hidden = hidden + layer.ffn(layer.ffn_norm(hidden))

    final = model.final_norm(hidden[-1])
    return cache, model.lm_head @ final, aggregates


class TestBitwiseChunkInvariance:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES[:-1])
    def test_logits_and_hidden_identical(self, prefill_variants, chunk_size):
        reference = prefill_variants[None]
        chunked = prefill_variants[chunk_size]
        assert np.array_equal(reference.logits, chunked.logits)
        assert np.array_equal(reference.last_hidden, chunked.last_hidden)

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES[:-1])
    def test_kvcache_identical(self, prefill_variants, chunk_model, chunk_size):
        reference = prefill_variants[None]
        chunked = prefill_variants[chunk_size]
        for layer in range(chunk_model.config.num_layers):
            assert np.array_equal(
                reference.kvcache[layer].keys, chunked.kvcache[layer].keys
            )
            assert np.array_equal(
                reference.kvcache[layer].values, chunked.kvcache[layer].values
            )

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES[:-1])
    def test_aggregates_and_queries_identical(self, prefill_variants, chunk_size):
        reference = prefill_variants[None]
        chunked = prefill_variants[chunk_size]
        for ref_agg, chunk_agg in zip(reference.aggregates, chunked.aggregates):
            assert np.array_equal(
                ref_agg.accumulated_scores, chunk_agg.accumulated_scores
            )
            assert np.array_equal(ref_agg.window_scores, chunk_agg.window_scores)
            assert ref_agg.observation_window == chunk_agg.observation_window
        for ref_q, chunk_q in zip(
            reference.prompt_queries, chunked.prompt_queries
        ):
            assert np.array_equal(ref_q, chunk_q)

    def test_chunks_off_the_tile_grid_same_bits(self, chunk_model, chunk_prompt):
        a = chunk_model.prefill(chunk_prompt, chunk_size=5)
        b = chunk_model.prefill(chunk_prompt, chunk_size=4096)
        assert np.array_equal(a.logits, b.logits)

    def test_uneven_manual_chunking(self, chunk_model, chunk_prompt, prefill_variants):
        """Driving the state machine with ragged chunk sizes changes nothing."""
        state = chunk_model.begin_prefill(chunk_prompt, observation_window=16,
                                          collect_queries=True)
        for size in (3, 1, 17, 11, PROMPT_LEN):  # last chunk clipped
            if state.is_complete:
                break
            chunk_model.prefill_chunk(state, size)
        result = chunk_model.finish_prefill(state)
        reference = prefill_variants[None]
        assert np.array_equal(result.logits, reference.logits)
        for layer in range(chunk_model.config.num_layers):
            assert np.array_equal(
                result.kvcache[layer].keys, reference.kvcache[layer].keys
            )


class TestAgainstSeedImplementation:
    def test_matches_seed_monolithic_to_tolerance(self, chunk_model, chunk_prompt,
                                                  prefill_variants):
        """The chunk-invariant kernel only reorders float reductions, so it
        agrees with the seed's original implementation to ~1e-12."""
        cache, logits, aggregates = seed_monolithic_prefill(
            chunk_model, chunk_prompt, observation_window=16
        )
        for chunked in prefill_variants.values():
            np.testing.assert_allclose(chunked.logits, logits, rtol=1e-10, atol=1e-12)
            assert int(np.argmax(chunked.logits)) == int(np.argmax(logits))
            for layer in range(chunk_model.config.num_layers):
                np.testing.assert_allclose(
                    chunked.kvcache[layer].keys, cache[layer].keys,
                    rtol=1e-10, atol=1e-12,
                )
            for chunk_agg, (acc, win) in zip(chunked.aggregates, aggregates):
                np.testing.assert_allclose(
                    chunk_agg.accumulated_scores, acc, rtol=1e-9, atol=1e-12
                )
                np.testing.assert_allclose(
                    chunk_agg.window_scores, win, rtol=1e-9, atol=1e-12
                )


# ------------------------------------------------------------ the tile grid

T = PREFILL_TILE
#: > 3 attention tiles and > 2 projection row blocks, plus a ragged tail.
LONG_LEN = max(3 * T, 528) + 3
LONG_CHUNKS = (1, 7, T - 1, T, T + 1, 300, 512)
RAGGED_SCHEDULE = (3, T, 1, 2 * T + 5, T - 2, 40, 1, 1, 129, LONG_LEN)
WINDOW = 24


def _grid_model(kv_heads):
    config = ModelConfig(
        num_layers=2, hidden_dim=32, num_heads=4, num_kv_heads=kv_heads,
        ffn_dim=64, vocab_size=64, name=f"grid-{kv_heads}",
    )
    return TransformerLM(config, seed=5)


def _run_schedule(model, prompt, schedule, **begin_kwargs):
    """Hand-driven prefill; the schedule's last entry repeats to the end."""
    state = model.begin_prefill(prompt, observation_window=WINDOW, **begin_kwargs)
    sizes = list(schedule)
    while not state.is_complete:
        model.prefill_chunk(state, sizes.pop(0) if len(sizes) > 1 else sizes[0])
    return model.finish_prefill(state)


def _assert_prefills_identical(result, reference, num_layers):
    assert np.array_equal(result.logits, reference.logits)
    assert np.array_equal(result.last_hidden, reference.last_hidden)
    for layer in range(num_layers):
        assert np.array_equal(
            result.kvcache[layer].keys, reference.kvcache[layer].keys
        )
        assert np.array_equal(
            result.kvcache[layer].values, reference.kvcache[layer].values
        )
        got, want = result.aggregates[layer], reference.aggregates[layer]
        assert np.array_equal(got.accumulated_scores, want.accumulated_scores)
        assert np.array_equal(got.window_scores, want.window_scores)


@pytest.fixture(scope="module", params=(4, 2, 1), ids=("gqa1", "gqa2", "gqa4"))
def grid_case(request):
    """(model, prompt, single-shot prefill) for one GQA group size."""
    model = _grid_model(request.param)
    rng = np.random.default_rng(33)
    prompt = rng.integers(4, model.config.vocab_size, size=LONG_LEN).tolist()
    return model, prompt, _run_schedule(model, prompt, (LONG_LEN,))


class TestTileGrid:
    """Bitwise chunk invariance beyond the first tile, per GQA group size."""

    @pytest.mark.parametrize("chunk_size", LONG_CHUNKS)
    def test_every_chunk_size_matches_single_shot(self, grid_case, chunk_size):
        model, prompt, reference = grid_case
        chunked = _run_schedule(model, prompt, (chunk_size,))
        _assert_prefills_identical(chunked, reference, model.config.num_layers)

    def test_ragged_schedule_matches_single_shot(self, grid_case):
        model, prompt, reference = grid_case
        ragged = _run_schedule(model, prompt, RAGGED_SCHEDULE)
        _assert_prefills_identical(ragged, reference, model.config.num_layers)

    def test_matches_seed_monolithic_to_tolerance(self, grid_case):
        model, prompt, reference = grid_case
        cache, logits, aggregates = seed_monolithic_prefill(
            model, prompt, observation_window=WINDOW
        )
        np.testing.assert_allclose(reference.logits, logits, rtol=1e-10, atol=1e-12)
        for layer, (acc, win) in enumerate(aggregates):
            np.testing.assert_allclose(
                reference.kvcache[layer].keys, cache[layer].keys,
                rtol=1e-10, atol=1e-12,
            )
            got = reference.aggregates[layer]
            np.testing.assert_allclose(got.accumulated_scores, acc,
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(got.window_scores, win,
                                       rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("boundary", (2 * T + 5, 3 * T), ids=("mid", "edge"))
    @pytest.mark.parametrize("chunk_size", (7, LONG_LEN))
    def test_acc_snapshot_equals_a_prefill_that_stopped_there(
        self, grid_case, boundary, chunk_size
    ):
        model, prompt, _ = grid_case
        result = _run_schedule(
            model, prompt, (chunk_size,), acc_snapshot_boundaries=[boundary]
        )
        stopped = model.begin_prefill(prompt[:boundary], observation_window=WINDOW)
        model.prefill_chunk(stopped, boundary)
        for layer in range(model.config.num_layers):
            assert np.array_equal(
                result.acc_snapshots[boundary][layer], stopped.acc_scores[layer]
            )

    @pytest.mark.parametrize("chunk_size", (1, T, 300))
    def test_prefix_resume_equals_cold_prefill(self, grid_case, chunk_size):
        model, prompt, reference = grid_case
        cfg = model.config
        prefix_len = 4 * T + 7  # off the tile grid
        cold = _run_schedule(
            model, prompt, (LONG_LEN,), acc_snapshot_boundaries=[prefix_len]
        )
        cache = KVCache(cfg.num_layers, cfg.num_kv_heads, cfg.head_dim)
        for layer in range(cfg.num_layers):
            cache[layer].append(
                cold.kvcache[layer].keys[:, :prefix_len],
                cold.kvcache[layer].values[:, :prefix_len],
            )
        resumed = _run_schedule(
            model, prompt, (chunk_size,), kvcache=cache, prefix_len=prefix_len,
            prefix_acc_scores=cold.acc_snapshots[prefix_len],
        )
        assert resumed.cached_prefix_len == prefix_len
        _assert_prefills_identical(resumed, reference, cfg.num_layers)

    def test_stage_timings_cover_the_chunk(self, grid_case):
        model, prompt, _ = grid_case
        timings = {"attention": 1.0}
        state = model.begin_prefill(prompt)
        model.prefill_chunk(state, 100, timings)
        assert set(timings) == {"projection", "attention", "aggregates", "ffn"}
        assert timings["attention"] > 1.0  # added into, not overwritten
        assert all(seconds > 0.0 for seconds in timings.values())


class TestPrefillAttentionKernel:
    """``prefill_attention`` against the readable ``causal_attention`` oracle."""

    @pytest.fixture(scope="class", params=(1, 2, 4), ids=("gqa1", "gqa2", "gqa4"))
    def qkv(self, request):
        rng = np.random.default_rng(request.param)
        h_kv, n, d_h = 2, 5 * T + 9, 8
        return (
            rng.normal(size=(h_kv * request.param, n, d_h)),
            rng.normal(size=(h_kv, n, d_h)),
            rng.normal(size=(h_kv, n, d_h)),
        )

    @staticmethod
    def _chunked(qkv, bounds):
        """Outputs and score rows of the kernel driven over ``bounds``."""
        q, k, v = qkv
        outputs, rows = [], {}

        def keep(position, scores):
            for j in range(scores.shape[1]):
                rows[position + j] = scores[:, j, : position + j + 1].copy()
                assert not scores[:, j, position + j + 1:].any()  # exact zeros

        for lo, hi in zip(bounds[:-1], bounds[1:]):
            outputs.append(prefill_attention(q[:, lo:hi], k[:, :hi], v[:, :hi], keep))
        return np.concatenate(outputs, axis=1), rows

    def test_agrees_with_the_oracle(self, qkv):
        n = qkv[0].shape[1]
        want, want_scores = causal_attention(*qkv, return_scores=True)
        got, rows = self._chunked(qkv, (0, n))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for position, row in rows.items():
            np.testing.assert_allclose(
                row, want_scores[:, position, : position + 1], rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize(
        "bounds",
        [(0, 1, 2, 3, T, T + 1), (0, T - 1, 3 * T + 2), (0, 2 * T, 2 * T + 5, 5 * T)],
    )
    def test_partition_is_bitwise_irrelevant(self, qkv, bounds):
        n = qkv[0].shape[1]
        whole, whole_rows = self._chunked(qkv, (0, n))
        parts, part_rows = self._chunked(qkv, bounds + (n,))
        assert np.array_equal(parts, whole)
        assert all(np.array_equal(part_rows[p], whole_rows[p]) for p in whole_rows)

    def test_zero_padded_tile_equals_cached_tile(self, qkv):
        """Rows ``[lo, mid)`` of a tile see the same bits whether the tile's
        later keys are zero padding (chunk ends at ``mid``) or real, already
        cached rows (chunk runs on to ``hi``)."""
        q, k, v = qkv
        lo, mid, hi = 2 * T + 1, 2 * T + 6, 3 * T
        padded = prefill_attention(q[:, lo:mid], k[:, :mid], v[:, :mid])
        cached = prefill_attention(q[:, lo:hi], k[:, :hi], v[:, :hi])
        assert np.array_equal(padded, cached[:, : mid - lo])


class TestDownstreamDecodePerPolicy:
    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_decode_selections_identical_across_chunkings(
        self, chunk_model, prefill_variants, policy_name
    ):
        """Policies built on any chunking's prefill pick byte-identical
        tokens and per-layer selections for several decode steps."""
        from repro.eval.runner import clone_prefill

        config = chunk_model.config
        runs = []
        for size in CHUNK_SIZES:
            prefill = clone_prefill(prefill_variants[size], config)
            policy = build_policy(policy_name, BUDGET)
            policy.on_prefill(config, prefill)
            tokens = [int(np.argmax(prefill.logits))]
            selections = []

            def selector(layer_index, query, kvcache):
                chosen = policy.select(layer_index, query, kvcache)
                if chosen is None:
                    selections.append(None)
                elif isinstance(chosen, (list, tuple)):
                    selections.append([np.asarray(c) for c in chosen])
                else:
                    selections.append(np.asarray(chosen))
                return chosen

            for _ in range(3):
                logits = chunk_model.decode_step(
                    tokens[-1], prefill.kvcache, selector
                )
                policy.on_decode_step(prefill.kvcache)
                tokens.append(int(np.argmax(logits)))
            runs.append((tokens, selections))

        reference_tokens, reference_selections = runs[0]
        for tokens, selections in runs[1:]:
            assert tokens == reference_tokens
            assert len(selections) == len(reference_selections)
            for sel, ref in zip(selections, reference_selections):
                if ref is None:
                    assert sel is None
                elif isinstance(ref, list):
                    assert all(
                        np.array_equal(a, b) for a, b in zip(sel, ref)
                    )
                else:
                    assert np.array_equal(sel, ref)


class TestPrefillStateApi:
    def test_state_reports_progress(self, chunk_model, chunk_prompt):
        state = chunk_model.begin_prefill(chunk_prompt)
        assert state.seq_len == PROMPT_LEN
        assert state.remaining_tokens == PROMPT_LEN
        assert not state.is_complete
        processed = chunk_model.prefill_chunk(state, 10)
        assert processed == 10
        assert state.num_processed == 10
        assert state.kvcache.seq_len == 10
        assert state.logits is None
        processed = chunk_model.prefill_chunk(state, 10_000)  # clipped
        assert processed == PROMPT_LEN - 10
        assert state.is_complete
        assert state.logits is not None

    def test_chunking_past_completion_rejected(self, chunk_model, chunk_prompt):
        state = chunk_model.begin_prefill(chunk_prompt)
        chunk_model.prefill_chunk(state, PROMPT_LEN)
        with pytest.raises(ConfigurationError):
            chunk_model.prefill_chunk(state, 1)

    def test_zero_chunk_rejected(self, chunk_model, chunk_prompt):
        state = chunk_model.begin_prefill(chunk_prompt)
        with pytest.raises(ConfigurationError):
            chunk_model.prefill_chunk(state, 0)

    def test_finish_before_complete_rejected(self, chunk_model, chunk_prompt):
        state = chunk_model.begin_prefill(chunk_prompt)
        chunk_model.prefill_chunk(state, 5)
        with pytest.raises(ConfigurationError):
            chunk_model.finish_prefill(state)

    def test_empty_prompt_rejected(self, chunk_model):
        with pytest.raises(ConfigurationError):
            chunk_model.begin_prefill([])
