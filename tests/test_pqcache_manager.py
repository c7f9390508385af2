"""Tests for PQCacheManager: per-layer/head PQ over the KVCache."""

import numpy as np
import pytest

from repro.core import PQCacheConfig, PQCacheManager, ProductQuantizer
from repro.errors import ConfigurationError, NotFittedError
from repro.llm import KVCache, ModelConfig


@pytest.fixture()
def kvcache(tiny_config, rng):
    cache = KVCache(tiny_config.num_layers, tiny_config.num_kv_heads,
                    tiny_config.head_dim)
    for layer in range(tiny_config.num_layers):
        keys = rng.normal(size=(tiny_config.num_kv_heads, 200, tiny_config.head_dim))
        values = rng.normal(size=(tiny_config.num_kv_heads, 200, tiny_config.head_dim))
        cache[layer].append(keys, values)
    return cache


@pytest.fixture()
def manager(tiny_config, kvcache):
    mgr = PQCacheManager(tiny_config, PQCacheConfig(num_partitions=2, num_bits=4,
                                                    max_kmeans_iters=8,
                                                    gpu_cache_tokens=512))
    mgr.build(kvcache)
    return mgr


class TestConfig:
    def test_communication_ratio_matches_paper(self):
        cfg = PQCacheConfig(num_partitions=2, num_bits=6)
        assert cfg.communication_ratio(head_dim=128) <= 1 / 128
        cfg64 = PQCacheConfig(num_partitions=4, num_bits=8)
        assert cfg64.communication_ratio(head_dim=128) == pytest.approx(1 / 64)

    def test_incompatible_partitions_rejected(self, tiny_config):
        with pytest.raises(ConfigurationError):
            PQCacheManager(tiny_config, PQCacheConfig(num_partitions=5))


class TestBuild:
    def test_requires_build_before_use(self, tiny_config):
        mgr = PQCacheManager(tiny_config)
        assert not mgr.is_built
        with pytest.raises(NotFittedError):
            mgr.approximate_scores(0, np.zeros((tiny_config.num_kv_heads,
                                                tiny_config.head_dim)))

    def test_build_creates_codes_for_every_layer_head(self, manager, tiny_config):
        assert manager.is_built
        for layer in range(tiny_config.num_layers):
            for head in range(tiny_config.num_kv_heads):
                assert manager.codes(layer, head).shape == (200, 2)

    def test_build_equals_per_head_fit(self, manager, tiny_config, kvcache):
        """The layer-wide batched construction is the per-head
        ``ProductQuantizer.fit`` loop it replaced — codebooks, codes and the
        iteration total billed to ``_maybe_refresh`` — exactly."""
        iterations = 0
        for layer in range(tiny_config.num_layers):
            for head in range(tiny_config.num_kv_heads):
                pq = ProductQuantizer(manager.config.pq_config(tiny_config.head_dim))
                codes = pq.fit(kvcache[layer].keys[head])
                iterations += pq.last_fit_iterations
                assert np.array_equal(manager.codes(layer, head), codes)
                assert np.array_equal(manager.codebooks(layer)[head], pq.centroids)
                assert np.array_equal(
                    manager.quantizer(layer, head).centroids, pq.centroids
                )
        assert manager.total_kmeans_iterations == iterations

    def test_iteration_budget_respected(self, tiny_config, kvcache):
        mgr = PQCacheManager(tiny_config, PQCacheConfig(num_partitions=2, num_bits=4))
        mgr.build(kvcache, max_iters=1)
        limited = mgr.total_kmeans_iterations
        mgr.build(kvcache, max_iters=20)
        assert limited <= mgr.total_kmeans_iterations


class TestScoresAndTopK:
    def test_scores_shape(self, manager, tiny_config, rng):
        queries = rng.normal(size=(tiny_config.num_kv_heads, tiny_config.head_dim))
        scores = manager.approximate_scores(1, queries)
        assert scores.shape == (tiny_config.num_kv_heads, 200)

    def test_topk_respects_middle_segment(self, manager, tiny_config, rng, kvcache):
        segments = kvcache.segments(num_initial=4, num_local=16)
        queries = rng.normal(size=(tiny_config.num_kv_heads, tiny_config.head_dim))
        selected = manager.topk_middle(0, queries, segments, k=10)
        middle = set(segments.middle_indices.tolist())
        for per_head in selected:
            assert len(per_head) == 10
            assert set(per_head.tolist()) <= middle

    def test_topk_matches_exact_on_easy_case(self, tiny_config, rng):
        # With a high-resolution codebook and few distinct key directions the
        # approximate top-k must recover most of the exact top-k.
        cache = KVCache(tiny_config.num_layers, tiny_config.num_kv_heads,
                        tiny_config.head_dim)
        base = rng.normal(size=(8, tiny_config.head_dim))
        keys = base[rng.integers(0, 8, size=160)]
        keys = np.broadcast_to(keys, (tiny_config.num_kv_heads, 160,
                                      tiny_config.head_dim)).copy()
        for layer in range(tiny_config.num_layers):
            cache[layer].append(keys, keys)
        mgr = PQCacheManager(tiny_config, PQCacheConfig(num_partitions=2, num_bits=6,
                                                        max_kmeans_iters=20))
        mgr.build(cache)
        segments = cache.segments(num_initial=0, num_local=0)
        queries = np.broadcast_to(base[0], (tiny_config.num_kv_heads,
                                            tiny_config.head_dim)).copy()
        selected = mgr.topk_middle(0, queries, segments, k=20)
        exact = np.argsort(-(keys[0] @ base[0]))[:20]
        overlap = len(set(selected[0].tolist()) & set(exact.tolist()))
        assert overlap >= 12

    def test_topk_empty_middle(self, manager, tiny_config, rng, kvcache):
        segments = kvcache.segments(num_initial=150, num_local=100)
        queries = rng.normal(size=(tiny_config.num_kv_heads, tiny_config.head_dim))
        selected = manager.topk_middle(0, queries, segments, k=5)
        assert all(s.size == 0 for s in selected)


class TestAppendToken:
    def test_append_extends_codes(self, manager, tiny_config, rng):
        before = manager.num_codes(0)
        manager.append_tokens(0, rng.normal(size=(tiny_config.num_kv_heads, 1,
                                                  tiny_config.head_dim)))
        assert manager.num_codes(0) == before + 1

    def test_appended_token_is_searchable(self, manager, tiny_config, kvcache, rng):
        # Append an exact copy of token 0's keys: the new token must receive
        # the same codes, hence the same approximate score, as token 0.
        key = kvcache[0].keys[:, 0, :]
        manager.append_tokens(0, key[:, None, :])
        queries = rng.normal(size=(tiny_config.num_kv_heads, tiny_config.head_dim))
        scores = manager.approximate_scores(0, queries)
        assert scores.shape[1] == 201
        assert np.allclose(scores[:, 200], scores[:, 0])

    def test_many_appends_preserve_codes(self, manager, tiny_config, kvcache, rng):
        """Appends go through the amortised-growth buffer: earlier codes
        survive capacity doublings byte-for-byte."""
        before = manager.codes(0, 0).copy()
        reference_key = kvcache[0].keys[:, 0, :]
        for _ in range(70):  # force at least one capacity doubling
            manager.append_tokens(0, reference_key[:, None, :])
        after = manager.codes(0, 0)
        assert after.shape[0] == before.shape[0] + 70
        assert np.array_equal(after[: before.shape[0]], before)
        # Every appended row equals token 0's codes (identical key vector).
        assert np.array_equal(
            after[before.shape[0]:],
            np.broadcast_to(before[0], (70, before.shape[1])),
        )

    def test_append_tokens_equals_per_head_encode(self, manager, tiny_config, rng):
        """Reference for the per-manager append: each head's new rows are
        that head's own ``ProductQuantizer.encode`` of its keys, on every
        layer, after a snapshot made the buffer copy-on-write too."""
        shape = (tiny_config.num_kv_heads, 5, tiny_config.head_dim)
        snapshot = manager.snapshot()
        frozen = [codes.copy() for codes in snapshot.codes]
        for layer in range(tiny_config.num_layers):
            keys = rng.normal(size=shape)
            manager.append_tokens(layer, keys)
            assert manager.num_codes(layer) == 205
            for head in range(tiny_config.num_kv_heads):
                want = manager.quantizer(layer, head).encode(keys[head])
                assert np.array_equal(manager.codes(layer, head)[200:], want)
            assert np.array_equal(manager.layer_codes(layer)[:200], frozen[layer])
            assert np.array_equal(snapshot.codes[layer], frozen[layer])

    def test_append_tokens_rejects_wrong_shape(self, manager, tiny_config, rng):
        h_kv, d_h = tiny_config.num_kv_heads, tiny_config.head_dim
        for bad in ((h_kv + 1, 2, d_h), (h_kv, d_h)):
            with pytest.raises(
                ConfigurationError,
                match=rf"keys must have shape \({h_kv}, n_new, {d_h}\), got ",
            ):
                manager.append_tokens(0, rng.normal(size=bad))
        assert manager.num_codes(0) == 200
        with pytest.raises(NotFittedError):
            PQCacheManager(tiny_config).append_tokens(0, rng.normal(size=(h_kv, 1, d_h)))

    def test_codes_returns_live_view(self, manager, tiny_config, rng):
        """codes() is a cheap view over the growth buffer, not a copy."""
        codes = manager.codes(0, 0)
        assert codes.base is not None
        assert codes.dtype == np.uint16


class TestAccountingAndCache:
    def test_memory_footprint_compresses(self, manager):
        footprint = manager.memory_footprint()
        assert footprint["codes_bytes"] + footprint["centroid_bytes"] < footprint["raw_kv_bytes"]
        assert footprint["compression_ratio"] > 1.0

    def test_step_communication_split(self, manager):
        comm = manager.step_communication_bytes(seq_len=200, k=20)
        assert comm["overlappable"] > 0
        assert comm["blocking"] > 0

    def test_record_fetch_updates_cache(self, manager):
        result = manager.record_fetch(np.arange(32))
        assert result is not None
        manager.record_fetch(np.arange(32))
        assert manager.gpu_cache.stats.hit_rate > 0

    def test_gpu_cache_disabled(self, tiny_config, kvcache):
        mgr = PQCacheManager(tiny_config, PQCacheConfig(gpu_cache_tokens=0))
        mgr.build(kvcache, max_iters=1)
        assert mgr.gpu_cache is None
        assert mgr.record_fetch(np.arange(4)) is None


class TestIncrementalConstruction:
    """Sketch fit → stream encode → refine must match one-shot build quality."""

    CFG = PQCacheConfig(num_partitions=2, num_bits=4, max_kmeans_iters=15,
                        gpu_cache_tokens=0)

    @staticmethod
    def _reconstruction_error(mgr, kvcache, tiny_config):
        errors = []
        for layer in range(tiny_config.num_layers):
            n = mgr.num_codes(layer)
            for head in range(tiny_config.num_kv_heads):
                pq = mgr.quantizer(layer, head)
                keys = kvcache[layer].keys[head, :n, :]
                approx = pq.decode(mgr.codes(layer, head))
                errors.append(float(np.mean((approx - keys) ** 2)))
        return float(np.mean(errors))

    def _incremental(self, tiny_config, kvcache, chunk=50, sketch=100):
        mgr = PQCacheManager(tiny_config, self.CFG)
        total = len(kvcache[0])
        seen = 0
        while seen < total and not mgr.is_built:
            seen = min(seen + chunk, total)
            if seen >= min(sketch, total):
                mgr.build_incremental(kvcache, upto=seen, sample_tokens=sketch)
        while seen < total:
            stop = min(seen + chunk, total)
            for layer in range(tiny_config.num_layers):
                mgr.append_tokens(layer, kvcache[layer].keys[:, seen:stop, :])
            seen = stop
        return mgr

    def test_incremental_covers_all_tokens(self, tiny_config, kvcache):
        mgr = self._incremental(tiny_config, kvcache)
        for layer in range(tiny_config.num_layers):
            assert mgr.num_codes(layer) == len(kvcache[0])

    def test_refine_matches_one_shot_within_tolerance(self, tiny_config, kvcache):
        one_shot = PQCacheManager(tiny_config, self.CFG)
        one_shot.build(kvcache)
        incremental = self._incremental(tiny_config, kvcache)
        incremental.refine(kvcache)
        err_one_shot = self._reconstruction_error(one_shot, kvcache, tiny_config)
        err_incremental = self._reconstruction_error(
            incremental, kvcache, tiny_config
        )
        # Different K-Means local optima: quality must agree within 10%.
        assert err_incremental <= 1.10 * err_one_shot

    def test_refine_improves_streamed_codes(self, tiny_config, kvcache):
        incremental = self._incremental(tiny_config, kvcache)
        before = self._reconstruction_error(incremental, kvcache, tiny_config)
        incremental.refine(kvcache)
        after = self._reconstruction_error(incremental, kvcache, tiny_config)
        assert after <= before + 1e-12

    def test_incremental_and_refine_equal_per_head_loops(self, tiny_config, kvcache):
        """Sketch fit, full encode and the final refine, layer-wide, against
        per-head quantizers doing the same three steps."""
        mgr = PQCacheManager(tiny_config, self.CFG)
        mgr.build_incremental(kvcache, upto=160, sample_tokens=64)
        sketch = np.sort(np.random.default_rng(self.CFG.seed).choice(
            160, size=64, replace=False))
        heads = {}
        fit_iterations = 0
        for layer in range(tiny_config.num_layers):
            for head in range(tiny_config.num_kv_heads):
                pq = ProductQuantizer(self.CFG.pq_config(tiny_config.head_dim))
                keys = kvcache[layer].keys[head, :160]
                pq.fit(keys[sketch])
                fit_iterations += pq.last_fit_iterations
                assert np.array_equal(mgr.codes(layer, head), pq.encode(keys))
                heads[layer, head] = pq
        assert mgr.total_kmeans_iterations == fit_iterations
        before = [mgr.codebooks(layer) for layer in range(tiny_config.num_layers)]
        frozen = [codebooks.copy() for codebooks in before]

        mgr.refine(kvcache, max_iters=4)
        refine_iterations = 0
        for (layer, head), pq in heads.items():
            codes = pq.refine(kvcache[layer].keys[head, :160], max_iters=4)
            refine_iterations += pq.last_refine_iterations
            assert np.array_equal(mgr.codes(layer, head), codes)
            assert np.array_equal(mgr.codebooks(layer)[head], pq.centroids)
            assert np.array_equal(mgr.quantizer(layer, head).centroids, pq.centroids)
        assert mgr.total_kmeans_iterations == fit_iterations + refine_iterations
        # refine wrote new arrays: what a snapshot captured is untouched
        for old, copy in zip(before, frozen):
            assert np.array_equal(old, copy)

    def test_refine_is_collected_by_the_first_reader(self, tiny_config, kvcache):
        """``refine`` leaves a pending ticket; a code count reads through it
        (a refine keeps the count), the first index read collects it."""
        mgr = PQCacheManager(tiny_config, self.CFG)
        mgr.build_incremental(kvcache, upto=160, sample_tokens=64)
        mgr.refine(kvcache, max_iters=4)
        assert mgr._refining is not None
        assert mgr.num_codes(0) == 160 and mgr._refining is not None
        refined = mgr.codebooks(0)
        assert mgr._refining is None
        other = PQCacheManager(tiny_config, self.CFG)
        other.build_incremental(kvcache, upto=160, sample_tokens=64)
        other.refine(kvcache, max_iters=4)
        assert other.total_kmeans_iterations == mgr.total_kmeans_iterations
        assert other._refining is None
        assert np.array_equal(other.codebooks(0), refined)

    def test_refine_leaves_a_snapshot_untouched(self, tiny_config, kvcache):
        mgr = self._incremental(tiny_config, kvcache)
        snap = mgr.snapshot()
        codebooks = [c.copy() for c in snap.codebooks]
        codes = [c.copy() for c in snap.codes]
        mgr.refine(kvcache)
        for got, want in zip(snap.codebooks, codebooks):
            assert np.array_equal(got, want)
        for got, want in zip(snap.codes, codes):
            assert np.array_equal(got, want)
        assert not np.array_equal(mgr.codebooks(0), snap.codebooks[0])

    def test_refine_validates_before_touching_state(self, tiny_config, kvcache):
        mgr = self._incremental(tiny_config, kvcache)
        short = KVCache(tiny_config.num_layers, tiny_config.num_kv_heads,
                        tiny_config.head_dim)
        for layer in range(tiny_config.num_layers):
            short[layer].append(kvcache[layer].keys[:, :10], kvcache[layer].values[:, :10])
        before = mgr.layer_codes(0).copy()
        with pytest.raises(ConfigurationError):
            mgr.refine(short)
        assert np.array_equal(mgr.layer_codes(0), before)
        assert mgr.quantizer(0, 0).is_fitted

    def test_refine_then_decode_append_keeps_alignment(self, tiny_config, kvcache, rng):
        mgr = self._incremental(tiny_config, kvcache)
        mgr.refine(kvcache)
        new = rng.normal(size=(tiny_config.num_kv_heads, 3, tiny_config.head_dim))
        mgr.append_tokens(0, new)
        assert mgr.num_codes(0) == len(kvcache[0]) + 3

    def test_sketch_sampling_is_deterministic(self, tiny_config, kvcache):
        a = PQCacheManager(tiny_config, self.CFG)
        a.build_incremental(kvcache, upto=150, sample_tokens=64)
        b = PQCacheManager(tiny_config, self.CFG)
        b.build_incremental(kvcache, upto=150, sample_tokens=64)
        assert np.array_equal(a.layer_codes(0), b.layer_codes(0))
        assert np.array_equal(a.codebooks(0), b.codebooks(0))

    def test_build_incremental_validation(self, tiny_config, kvcache):
        mgr = PQCacheManager(tiny_config, self.CFG)
        with pytest.raises(ConfigurationError):
            mgr.build_incremental(kvcache, upto=0)
        with pytest.raises(ConfigurationError):
            mgr.build_incremental(kvcache, upto=10_000)

    def test_refine_requires_built(self, tiny_config, kvcache):
        mgr = PQCacheManager(tiny_config, self.CFG)
        with pytest.raises(NotFittedError):
            mgr.refine(kvcache)
