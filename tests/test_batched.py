"""Exact-equivalence tests for the batched (vectorized) decode hot path.

Every batched kernel introduced by the decode-path vectorization must be
*exactly* equal — ``np.array_equal`` / ``assert_allclose(rtol=0, atol=0)`` —
to the legacy per-head Python loops it replaced.  The reference
implementations below replicate the legacy loops' structure (one head at a
time, true-length reductions); where the old code used BLAS ``@`` for a
mat-vec, the reference uses the einsum equivalent so the comparison stays
bitwise-stable across BLAS builds (the batched kernels use the same einsum
contractions, and numpy's einsum reduces each output element over identical
value sequences whether or not a batch axis is present).
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kmeans_oracle as oracle
from repro.core import PQCacheConfig, PQCacheManager
from repro.core.kmeans import kmeans_assign
from repro.core.pq import PQConfig, ProductQuantizer
from repro.errors import DimensionError
from repro.llm import KVCache, ModelConfig
from repro.llm.attention import decode_attention
from repro.utils import softmax, topk_indices

SHAPES = [
    # (h, m, bits, sub_dim, n_codes)
    (1, 1, 3, 4, 17),
    (2, 2, 4, 8, 64),
    (4, 2, 5, 16, 200),
    (8, 4, 4, 8, 333),
]


def stack_codebooks(quantizers):
    """Per-head codebooks as one ``(h, m, 2**b, sub_dim)`` tensor."""
    return np.stack([pq.centroids for pq in quantizers], axis=0)


def _fit_quantizers(rng, h, m, bits, sub_dim, n):
    dim = m * sub_dim
    quantizers = []
    codes = []
    for _ in range(h):
        pq = ProductQuantizer(
            PQConfig(dim=dim, num_partitions=m, num_bits=bits,
                     max_kmeans_iters=4, seed=int(rng.integers(1 << 30)))
        )
        codes.append(pq.fit(rng.normal(size=(n, dim))))
        quantizers.append(pq)
    return quantizers, np.stack(codes, axis=0)  # codes: (h, n, m)


def _legacy_lookup_table(pq, query):
    cfg = pq.config
    sub_queries = np.asarray(query, dtype=np.float64).reshape(
        cfg.num_partitions, cfg.sub_dim
    )
    return np.einsum("md,mcd->mc", sub_queries, pq.centroids)


def _legacy_score(pq, query, codes):
    table = _legacy_lookup_table(pq, query)
    codes = np.asarray(codes, dtype=np.int64)
    gathered = table[np.arange(pq.config.num_partitions)[None, :], codes]
    return gathered.sum(axis=1)


def _legacy_encode(pq, vectors):
    cfg = pq.config
    out = np.empty((vectors.shape[0], cfg.num_partitions), dtype=np.uint16)
    for part in range(cfg.num_partitions):
        sub_vectors = vectors[:, part * cfg.sub_dim:(part + 1) * cfg.sub_dim]
        out[:, part] = kmeans_assign(
            sub_vectors, pq.centroids[part]
        ).astype(np.uint16)
    return out


def _legacy_decode_attention(query, keys, values, per_head_indices):
    """The pre-vectorization nested ``kv_head x group`` loop."""
    query = np.asarray(query, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    h, d_h = query.shape
    h_kv = keys.shape[0]
    group = h // h_kv
    output = np.zeros((h, d_h), dtype=np.float64)
    for kv_head, indices in enumerate(per_head_indices):
        if indices.size == 0:
            continue
        k = keys[kv_head, indices, :]
        v = values[kv_head, indices, :]
        for g in range(group):
            q_head = kv_head * group + g
            logits = np.einsum("td,d->t", k, query[q_head]) / np.sqrt(d_h)
            weights = softmax(logits)
            output[q_head] = np.einsum("t,td->d", weights, v)
    return output


class TestBatchedKernelsMatchPerHeadLoops:
    @pytest.mark.parametrize("h,m,bits,sub_dim,n", SHAPES)
    def test_lookup_table_batch(self, rng, h, m, bits, sub_dim, n):
        quantizers, _ = _fit_quantizers(rng, h, m, bits, sub_dim, n)
        codebooks = stack_codebooks(quantizers)
        queries = rng.normal(size=(h, m * sub_dim))
        batched = ProductQuantizer.lookup_table_batch(codebooks, queries)
        for head, pq in enumerate(quantizers):
            assert np.array_equal(
                batched[head], _legacy_lookup_table(pq, queries[head])
            )
            # The instance method must agree too (it wraps the batched one).
            assert np.array_equal(
                batched[head], pq.lookup_table(queries[head])
            )

    @pytest.mark.parametrize("h,m,bits,sub_dim,n", SHAPES)
    def test_score_batch(self, rng, h, m, bits, sub_dim, n):
        quantizers, codes = _fit_quantizers(rng, h, m, bits, sub_dim, n)
        codebooks = stack_codebooks(quantizers)
        queries = rng.normal(size=(h, m * sub_dim))
        batched = ProductQuantizer.score_batch(codebooks, queries, codes)
        assert batched.shape == (h, n)
        for head, pq in enumerate(quantizers):
            legacy = _legacy_score(pq, queries[head], codes[head])
            assert_allclose(batched[head], legacy, rtol=0, atol=0)
            assert_allclose(
                pq.score(queries[head], codes[head]), legacy, rtol=0, atol=0
            )

    def test_score_batch_empty_codes(self, rng):
        quantizers, _ = _fit_quantizers(rng, 2, 2, 3, 4, 20)
        codebooks = stack_codebooks(quantizers)
        queries = rng.normal(size=(2, 8))
        empty = np.zeros((2, 0, 2), dtype=np.uint16)
        scores = ProductQuantizer.score_batch(codebooks, queries, empty)
        assert scores.shape == (2, 0)

    @pytest.mark.parametrize("h,m,bits,sub_dim,n", SHAPES)
    def test_encode_batch(self, rng, h, m, bits, sub_dim, n):
        quantizers, _ = _fit_quantizers(rng, h, m, bits, sub_dim, n)
        codebooks = stack_codebooks(quantizers)
        vectors = rng.normal(size=(h, 37, m * sub_dim))
        batched = ProductQuantizer.encode_batch(codebooks, vectors)
        assert batched.shape == (h, 37, m)
        assert batched.dtype == np.uint16
        for head, pq in enumerate(quantizers):
            legacy = _legacy_encode(pq, vectors[head])
            assert np.array_equal(batched[head], legacy)
            assert np.array_equal(pq.encode(vectors[head]), legacy)

    @pytest.mark.parametrize("h,m,bits,sub_dim,n", SHAPES)
    def test_fit_batch_and_refine_batch(self, rng, h, m, bits, sub_dim, n):
        """One K-Means call over all (head, sub-space) problems equals the
        per-head wrappers exactly, and the scalar oracle's per-sub-space
        loop (one generator per head, shared by its sub-spaces)."""
        config = PQConfig(dim=m * sub_dim, num_partitions=m, num_bits=bits,
                          max_kmeans_iters=4, seed=11)
        keys = rng.normal(size=(h, n, m * sub_dim))
        codebooks, codes, n_iter = ProductQuantizer.fit_batch(config, keys)
        assert codebooks.shape == (h, m, 1 << bits, sub_dim)
        assert codes.shape == (h, n, m) and codes.dtype == np.uint16
        assert n_iter.shape == (h, m)
        more = rng.normal(size=(h, n + 9, m * sub_dim))
        refined = ProductQuantizer.refine_batch(codebooks, more, 3)
        for head in range(h):
            pq = ProductQuantizer(config)
            assert np.array_equal(pq.fit(keys[head]), codes[head])
            assert np.array_equal(pq.centroids, codebooks[head])
            assert pq.last_fit_iterations == n_iter[head].sum()
            shared = np.random.default_rng(config.seed)
            for part in range(m):
                sub = keys[head][:, part * sub_dim:(part + 1) * sub_dim]
                want = oracle.fit(sub, 1 << bits, 4, seed=shared)
                assert np.array_equal(codes[head][:, part], want.labels)
                assert n_iter[head, part] == want.n_iter
                assert_allclose(codebooks[head, part], want.centroids,
                                rtol=0, atol=1e-12)
            assert np.array_equal(pq.refine(more[head], max_iters=3),
                                  refined[1][head])
            assert np.array_equal(pq.centroids, refined[0][head])
            assert pq.last_refine_iterations == refined[2][head].sum()

    def test_fit_batch_max_iters_override_and_input_untouched(self, rng):
        config = PQConfig(dim=8, num_partitions=2, num_bits=3, seed=0)
        keys = rng.normal(size=(2, 60, 8))
        frozen = keys.copy()
        codebooks, _, n_iter = ProductQuantizer.fit_batch(config, keys, max_iters=0)
        assert not n_iter.any()
        start = codebooks.copy()
        ProductQuantizer.refine_batch(codebooks, keys, 5)
        assert np.array_equal(codebooks, start)  # not mutated
        assert np.array_equal(keys, frozen)

    def test_batched_shape_validation(self, rng):
        quantizers, codes = _fit_quantizers(rng, 2, 2, 3, 4, 20)
        codebooks = stack_codebooks(quantizers)
        queries = rng.normal(size=(2, 8))
        with pytest.raises(DimensionError):
            ProductQuantizer.lookup_table_batch(codebooks, rng.normal(size=(2, 7)))
        with pytest.raises(DimensionError):
            ProductQuantizer.score_batch(codebooks, queries, codes[:1])
        with pytest.raises(DimensionError):
            ProductQuantizer.encode_batch(codebooks, rng.normal(size=(2, 5, 7)))
        with pytest.raises(DimensionError):
            ProductQuantizer.score_batch(codebooks[0], queries, codes)
        with pytest.raises(DimensionError):
            ProductQuantizer.fit_batch(quantizers[0].config, rng.normal(size=(2, 20, 7)))
        with pytest.raises(DimensionError):
            ProductQuantizer.refine_batch(codebooks, rng.normal(size=(3, 20, 8)), 2)


class TestVectorizedDecodeAttention:
    @pytest.mark.parametrize("h_kv,group,s,d_h", [
        (1, 1, 12, 4),
        (2, 2, 40, 8),
        (4, 1, 64, 16),
        (4, 4, 200, 8),
    ])
    def test_matches_per_head_loop_on_ragged_selections(
        self, rng, h_kv, group, s, d_h
    ):
        h = h_kv * group
        query = rng.normal(size=(h, d_h))
        keys = rng.normal(size=(h_kv, s, d_h))
        values = rng.normal(size=(h_kv, s, d_h))
        # Ragged per-head selections, including an empty one when h_kv > 1.
        selected = []
        for head in range(h_kv):
            t = 0 if (head == 1 and h_kv > 1) else int(rng.integers(1, s + 1))
            selected.append(
                rng.choice(s, size=t, replace=False).astype(np.int64)
            )
        out = decode_attention(query, keys, values, selected=selected)
        ref = _legacy_decode_attention(query, keys, values, selected)
        assert_allclose(out, ref, rtol=0, atol=0)

    def test_matches_per_head_loop_full_attention(self, rng):
        query = rng.normal(size=(4, 8))
        keys = rng.normal(size=(2, 30, 8))
        values = rng.normal(size=(2, 30, 8))
        out = decode_attention(query, keys, values)
        ref = _legacy_decode_attention(
            query, keys, values, [np.arange(30)] * 2
        )
        assert_allclose(out, ref, rtol=0, atol=0)

    def test_all_empty_selections_give_zero(self, rng):
        query = rng.normal(size=(4, 8))
        keys = rng.normal(size=(2, 30, 8))
        values = rng.normal(size=(2, 30, 8))
        empty = [np.empty(0, dtype=np.int64)] * 2
        out = decode_attention(query, keys, values, selected=empty)
        assert np.array_equal(out, np.zeros((4, 8)))


@pytest.fixture()
def built_manager(tiny_config, rng):
    cache = KVCache(tiny_config.num_layers, tiny_config.num_kv_heads,
                    tiny_config.head_dim)
    for layer in range(tiny_config.num_layers):
        keys = rng.normal(size=(tiny_config.num_kv_heads, 150,
                                tiny_config.head_dim))
        cache[layer].append(keys, keys)
    mgr = PQCacheManager(
        tiny_config,
        PQCacheConfig(num_partitions=2, num_bits=4, max_kmeans_iters=5,
                      gpu_cache_tokens=0),
    )
    mgr.build(cache)
    return mgr, cache


class TestManagerBatchedPathMatchesPerHead:
    def test_approximate_scores(self, built_manager, tiny_config, rng):
        mgr, _ = built_manager
        queries = rng.normal(size=(tiny_config.num_kv_heads,
                                   tiny_config.head_dim))
        batched = mgr.approximate_scores(0, queries)
        for head in range(tiny_config.num_kv_heads):
            legacy = _legacy_score(
                mgr.quantizer(0, head), queries[head], mgr.codes(0, head)
            )
            assert_allclose(batched[head], legacy, rtol=0, atol=0)

    @pytest.mark.parametrize("k", [1, 7, 10_000])
    def test_topk_middle(self, built_manager, tiny_config, rng, k):
        mgr, cache = built_manager
        segments = cache.segments(num_initial=4, num_local=16)
        queries = rng.normal(size=(tiny_config.num_kv_heads,
                                   tiny_config.head_dim))
        batched = mgr.topk_middle(0, queries, segments, k=k)
        middle = segments.middle_indices
        for head in range(tiny_config.num_kv_heads):
            codes = mgr.codes(0, head)
            valid = middle[middle < codes.shape[0]]
            scores = _legacy_score(mgr.quantizer(0, head), queries[head],
                                   codes[valid])
            order = topk_indices(scores, min(k, valid.size))
            # the same tokens, as an ascending index set
            assert np.array_equal(batched[head], np.sort(valid[order]))

    def test_topk_middle_ties_break_by_lowest_token(self, tiny_config, rng):
        """Duplicate keys produce identical ADC scores; the selection must
        prefer the lowest token indices, deterministically."""
        cache = KVCache(tiny_config.num_layers, tiny_config.num_kv_heads,
                        tiny_config.head_dim)
        one = rng.normal(size=(tiny_config.num_kv_heads, 1,
                               tiny_config.head_dim))
        keys = np.repeat(one, 64, axis=1)  # every token identical
        for layer in range(tiny_config.num_layers):
            cache[layer].append(keys, keys)
        mgr = PQCacheManager(
            tiny_config,
            PQCacheConfig(num_partitions=2, num_bits=4, max_kmeans_iters=3,
                          gpu_cache_tokens=0),
        )
        mgr.build(cache)
        segments = cache.segments(num_initial=4, num_local=16)
        queries = rng.normal(size=(tiny_config.num_kv_heads,
                                   tiny_config.head_dim))
        selected = mgr.topk_middle(0, queries, segments, k=5)
        first_middle = segments.middle_indices[:5]
        for per_head in selected:
            assert np.array_equal(per_head, first_middle)

    def test_topk_middle_empty_middle(self, built_manager, tiny_config, rng):
        mgr, cache = built_manager
        segments = cache.segments(num_initial=100, num_local=50)
        assert segments.middle_indices.size == 0
        queries = rng.normal(size=(tiny_config.num_kv_heads,
                                   tiny_config.head_dim))
        selected = mgr.topk_middle(0, queries, segments, k=5)
        assert all(s.size == 0 for s in selected)

    def test_append_tokens_matches_per_token_appends(
        self, built_manager, tiny_config, rng
    ):
        mgr, _ = built_manager
        before = mgr.layer_codes(0).copy()
        new_keys = rng.normal(size=(tiny_config.num_kv_heads, 9,
                                    tiny_config.head_dim))
        mgr.append_tokens(0, new_keys)
        after = mgr.layer_codes(0)
        assert after.shape[0] == before.shape[0] + 9
        assert np.array_equal(after[: before.shape[0]], before)
        for head in range(tiny_config.num_kv_heads):
            legacy = _legacy_encode(mgr.quantizer(0, head), new_keys[head])
            assert np.array_equal(after[before.shape[0]:, head, :], legacy)

    def test_append_tokens_empty_is_noop(self, built_manager, tiny_config):
        mgr, _ = built_manager
        before = mgr.num_codes(0)
        mgr.append_tokens(
            0, np.zeros((tiny_config.num_kv_heads, 0, tiny_config.head_dim))
        )
        assert mgr.num_codes(0) == before

    def test_layer_codes_and_codebooks_shapes(self, built_manager, tiny_config):
        mgr, _ = built_manager
        cfg = mgr.config
        codes = mgr.layer_codes(0)
        assert codes.shape == (150, tiny_config.num_kv_heads,
                               cfg.num_partitions)
        assert codes.dtype == np.uint16
        books = mgr.codebooks(0)
        assert books.shape == (
            tiny_config.num_kv_heads,
            cfg.num_partitions,
            1 << cfg.num_bits,
            tiny_config.head_dim // cfg.num_partitions,
        )
