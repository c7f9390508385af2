"""Paged KVCache: block allocator, block tables, COW, and exhaustion."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.llm.kvcache import BlockAllocator, BlockTable, PagedKVCache
from repro.utils import DTYPE


def make_allocator(capacity=None, block_size=4, num_layers=2, h_kv=2, d_h=8):
    return BlockAllocator(
        num_layers, h_kv, d_h, block_size=block_size, capacity_blocks=capacity
    )


def random_kv(rng, h_kv=2, t=1, d_h=8):
    """Keys and values in the substrate dtype, as the model appends them."""
    return (rng.normal(size=(h_kv, t, d_h)).astype(DTYPE),
            rng.normal(size=(h_kv, t, d_h)).astype(DTYPE))


# ----------------------------------------------------------------- allocator


class TestBlockAllocator:
    def test_allocate_incref_decref_cycle(self):
        alloc = make_allocator()
        bid = alloc.allocate()
        assert alloc.refcount(bid) == 1
        alloc.incref(bid)
        assert alloc.refcount(bid) == 2
        assert alloc.decref(bid) is False
        assert alloc.decref(bid) is True  # freed
        assert alloc.num_free == 1
        assert alloc.num_allocated == 0

    def test_refcount_underflow_raises(self):
        alloc = make_allocator()
        bid = alloc.allocate()
        assert alloc.decref(bid) is True
        with pytest.raises(ConfigurationError):
            alloc.decref(bid)  # block already free: underflow
        with pytest.raises(ConfigurationError):
            alloc.refcount(bid)

    def test_freed_blocks_are_recycled_zeroed(self):
        alloc = make_allocator(capacity=1)
        bid = alloc.allocate()
        alloc.block_keys(bid)[...] = 7.0
        alloc.decref(bid)
        again = alloc.allocate()
        assert again == bid
        assert np.all(alloc.block_keys(again) == 0.0)

    def test_capacity_exhaustion_raises(self):
        alloc = make_allocator(capacity=2)
        alloc.allocate()
        alloc.allocate()
        with pytest.raises(CapacityError):
            alloc.allocate()

    def test_eviction_hook_rescues_allocation(self):
        alloc = make_allocator(capacity=2)
        first = alloc.allocate()
        alloc.allocate()
        calls = []

        def hook(n):
            calls.append(n)
            alloc.decref(first)
            return 1

        alloc.eviction_hook = hook
        third = alloc.allocate()
        # The hook is asked for a small batch to amortise multi-block
        # admissions; freeing even one block rescues this allocation.
        assert calls == [BlockAllocator._EVICTION_BATCH]
        assert third == first  # recycled via the hook

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            make_allocator(block_size=0)
        with pytest.raises(ConfigurationError):
            make_allocator(capacity=0)


# --------------------------------------------------------------- block table


class TestBlockTable:
    def test_fork_shares_and_release_is_idempotent(self):
        alloc = make_allocator()
        table = BlockTable(alloc)
        bid = table.append_new()
        fork = table.fork()
        assert alloc.refcount(bid) == 2
        fork.release()
        fork.release()  # idempotent
        assert alloc.refcount(bid) == 1
        table.release()
        assert alloc.num_allocated == 0

    def test_released_table_rejects_use(self):
        alloc = make_allocator()
        table = BlockTable(alloc)
        table.append_new()
        table.release()
        with pytest.raises(ConfigurationError):
            table.append_new()
        with pytest.raises(ConfigurationError):
            table.fork()


# -------------------------------------------------------------- paged cache


class TestPagedKVCache:
    def test_matches_monolithic_bitwise(self, rng):
        """Reads through the table equal the appended tokens concatenated."""
        alloc = make_allocator()
        paged = PagedKVCache(alloc)
        keys, values = [], []
        for t in (1, 3, 4, 9, 1):
            k, v = random_kv(rng, t=t)
            for layer in range(2):
                paged[layer].append(k, v)
            keys.append(k)
            values.append(v)
        keys, values = np.concatenate(keys, axis=1), np.concatenate(values, axis=1)
        assert len(paged) == keys.shape[1]
        for layer in range(2):
            assert np.array_equal(paged[layer].keys, keys)
            assert np.array_equal(paged[layer].values, values)
            got_k, got_v = paged[layer].gather(np.array([0, 5, 17]))
            assert np.array_equal(got_k, keys[:, [0, 5, 17]])
            assert np.array_equal(got_v, values[:, [0, 5, 17]])

    def test_attached_prefix_reads_the_same_content(self, rng):
        alloc = make_allocator()
        paged = PagedKVCache(alloc)
        k, v = random_kv(rng, t=6)
        for layer in range(2):
            paged[layer].append(k, v)
        # Re-attach the blocks into a second cache: identical content.
        fork = paged.table.fork()
        clone = PagedKVCache(alloc, prefix_table=fork, prefix_len=6)
        for layer in range(2):
            assert np.array_equal(clone[layer].keys, paged[layer].keys)
            assert np.array_equal(clone[layer].values, paged[layer].values)

    def test_cow_on_shared_block_append(self, rng):
        """Appending into a block shared with another cache must copy it."""
        alloc = make_allocator(block_size=4)
        base = PagedKVCache(alloc)
        k, v = random_kv(rng, t=6)  # blocks: [full, half]
        for layer in range(2):
            base[layer].append(k, v)
        snapshot = [base[layer].keys.copy() for layer in range(2)]

        fork = PagedKVCache(
            alloc, prefix_table=base.table.fork(), prefix_len=6
        )
        shared_last = base.table.block_ids[1]
        assert alloc.refcount(shared_last) == 2

        k2, v2 = random_kv(rng, t=3)
        for layer in range(2):
            fork[layer].append(k2, v2)
        # The fork copied the shared half-full block before writing into it.
        assert alloc.cow_copies >= 1
        assert fork.table.block_ids[1] != shared_last
        assert alloc.refcount(shared_last) == 1
        # Divergent suffixes, untouched shared prefix.
        for layer in range(2):
            assert np.array_equal(base[layer].keys, snapshot[layer])
            assert np.array_equal(fork[layer].keys[:, :6, :], snapshot[layer])
            assert np.array_equal(fork[layer].keys[:, 6:, :], k2)
        # And the *block contents* of the base stayed intact too.
        reread = PagedKVCache(
            alloc, prefix_table=base.table.fork(), prefix_len=6
        )
        for layer in range(2):
            assert np.array_equal(reread[layer].keys, snapshot[layer])

    def test_released_cache_refuses_reads(self, rng):
        alloc = make_allocator()
        paged = PagedKVCache(alloc)
        k, v = random_kv(rng, t=5)
        for layer in range(2):
            paged[layer].append(k, v)
        paged.release()
        assert paged.released
        assert alloc.num_allocated == 0
        assert len(paged) == paged.seq_len == 5
        for layer in range(2):
            assert len(paged[layer]) == 5
            with pytest.raises(ConfigurationError):
                paged[layer].read()
            with pytest.raises(ConfigurationError):
                paged[layer].gather(np.array([0]))

    def test_capacity_failure_leaves_length_and_table_unchanged(self, rng):
        alloc = make_allocator(capacity=2, block_size=4)
        paged = PagedKVCache(alloc)
        k, v = random_kv(rng, t=3)
        for layer in range(2):
            paged[layer].append(k, v)
        table = list(paged.table.block_ids)
        # Six more tokens need two new blocks; the pool has one.
        k2, v2 = random_kv(rng, t=6)
        with pytest.raises(CapacityError):
            paged[0].append(k2, v2)
        assert len(paged[0]) == len(paged[1]) == 3
        assert paged.table.block_ids == table
        assert alloc.num_allocated == 1
        assert np.array_equal(paged[0].keys, k)

    def test_prefix_len_validation(self):
        alloc = make_allocator()
        with pytest.raises(ConfigurationError):
            PagedKVCache(alloc, prefix_len=4)  # no table
        table = BlockTable(alloc)
        table.append_new()
        with pytest.raises(ConfigurationError):
            PagedKVCache(alloc, prefix_table=table, prefix_len=99)

    def test_reads_follow_the_blocks(self, rng):
        """The blocks are the only copy: a write into a block's storage is
        what ``read``, ``gather`` and the decode operands return."""
        alloc = make_allocator(block_size=4)
        paged = PagedKVCache(alloc)
        k, v = random_kv(rng, t=6)
        for layer in range(2):
            paged[layer].append(k, v)
        second = paged.table.block_ids[1]
        alloc.block_keys(second)[1, 0, 1, :] = 42.0   # layer 1, head 0, token 5
        alloc.block_values(second)[0, 1, 0, :] = -7.0  # layer 0, head 1, token 4
        keys, values = paged[1].read()
        assert np.all(keys[0, 5] == 42.0)
        assert np.array_equal(keys[1], k[1])
        assert np.all(paged[0].read(4, 5)[1][1, 0] == -7.0)
        got_k, got_v = paged[1].gather(np.array([5, 0]))
        assert np.all(got_k[0, 0] == 42.0)
        assert np.array_equal(got_k[:, 1], k[:, 0])
        plane_k, _, rows = paged[1].decode_view(np.array([-1]))
        assert np.all(plane_k[0, rows[0]] == 42.0)

    def test_decode_rows_check_the_logical_length(self, rng):
        alloc = make_allocator(block_size=4)
        paged = PagedKVCache(alloc)
        k, v = random_kv(rng, t=6)
        for layer in range(2):
            paged[layer].append(k, v)
        plane_k, plane_v, rows = paged[0].decode_view([np.array([-1, 0]), np.array([2])])
        assert np.array_equal(plane_k[0, rows[0]], k[0, [5, 0]])
        assert np.array_equal(plane_v[1, rows[1]], v[1, [2]])
        for bad in (6, 7, -7):  # 6 and 7 are rows of the last block, past the length
            with pytest.raises(IndexError):
                paged[0].decode_view(np.array([bad]))

    def test_reads_through_scattered_blocks(self, rng):
        """Blocks out of plane order read back in token order."""
        alloc = make_allocator(block_size=4)
        filler = PagedKVCache(alloc)
        for layer in range(2):
            filler[layer].append(*random_kv(rng, t=12))  # blocks 0, 1, 2
        filler.table.replace(1, alloc.allocate())       # frees block 1 ...
        paged = PagedKVCache(alloc)
        k, v = random_kv(rng, t=9)
        for layer in range(2):
            paged[layer].append(k, v)
        assert paged.table.block_ids[0] == 1             # ... reused first
        assert paged.table.block_ids[1:] != [2, 3]
        for layer in range(2):
            assert np.array_equal(paged[layer].keys, k)
            assert np.array_equal(paged[layer].read(3, 7)[1], v[:, 3:7])
            plane_k, plane_v, rows = paged[layer].decode_view(None)
            assert np.array_equal(plane_v[:, rows], v)

    def test_prefix_attach_copies_no_kv(self, rng):
        """A prefix hit is a table fork: constructing the attached cache
        allocates nothing near one layer's worth of KV."""
        alloc = make_allocator(block_size=64, h_kv=4, d_h=64)
        base = PagedKVCache(alloc)
        t = 1024
        k, v = random_kv(rng, h_kv=4, t=t, d_h=64)
        for layer in range(2):
            base[layer].append(k, v)
        layer_bytes = k.nbytes + v.nbytes
        fork = base.table.fork()
        tracemalloc.start()
        try:
            attached = PagedKVCache(alloc, prefix_table=fork, prefix_len=t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < layer_bytes // 16
        assert np.array_equal(attached[1].keys, k)

    def test_pool_growth_preserves_live_blocks(self, rng):
        alloc = make_allocator()  # unbounded: the planes double as it grows
        contents = {}
        for _ in range(20):
            block_id = alloc.allocate()
            if not contents:
                first_plane = alloc.block_keys(block_id).base
            contents[block_id] = rng.normal(size=alloc.block_keys(block_id).shape)
            alloc.block_keys(block_id)[...] = contents[block_id]
            alloc.block_values(block_id)[...] = -contents[block_id]
        assert alloc.block_keys(0).base is not first_plane
        for block_id, expected in contents.items():
            assert np.array_equal(alloc.block_keys(block_id), expected.astype(DTYPE))
            assert np.array_equal(alloc.block_values(block_id), -expected.astype(DTYPE))
        # a view fetched after growth writes into the live plane
        alloc.block_keys(0)[...] = 3.0
        assert np.all(alloc.layer_planes(1)[0][:, :4] == 3.0)

    def test_reserve_grows_once_for_the_whole_demand(self, rng):
        """Importing a long chain after ``reserve`` never re-copies the
        planes, and the chain reads back as one view of them."""
        alloc = make_allocator(block_size=4)
        alloc.reserve(10)
        planes = alloc.layer_planes(0)[0].base
        paged = PagedKVCache(alloc)
        k, v = random_kv(rng, t=40)
        for layer in range(2):
            paged[layer].append(k, v)
        assert alloc.layer_planes(0)[0].base is planes
        keys, values = paged[1].read()
        assert keys.base is planes and np.array_equal(keys, k)
        assert np.array_equal(values, v)
        bounded = make_allocator(capacity=3)
        bounded.reserve(10)  # capped at the capacity; allocation still refuses
        assert bounded.layer_planes(0)[0].shape[1] == 3 * 4

    def test_row_map_is_extended_and_invalidated(self, rng):
        """The table's cached row map follows appends, a copy-on-write
        ``replace`` and ``release``."""
        alloc = make_allocator(block_size=4)
        paged = PagedKVCache(alloc)
        k, v = random_kv(rng, t=6)
        for layer in range(2):
            paged[layer].append(k, v)
        rows = paged.table.rows()
        assert paged.table.rows() is rows  # cached
        k2, v2 = random_kv(rng, t=4)
        for layer in range(2):
            paged[layer].append(k2, v2)  # crosses into a third block
        assert len(paged.table.rows()) == 12
        plane_k, _, picked = paged[0].decode_view(np.array([9]))
        assert np.array_equal(plane_k[:, picked], k2[:, [3]])
        paged.table.release()
        assert len(paged.table.rows()) == 0

    def test_view_after_cow_replace_reads_the_new_block(self, rng):
        """A decode view taken after a copy-on-write ``replace`` maps the
        replaced block's tokens to the copy, not to the shared original."""
        alloc = make_allocator(block_size=4)
        base = PagedKVCache(alloc)
        k, v = random_kv(rng, t=6)
        for layer in range(2):
            base[layer].append(k, v)
        fork = PagedKVCache(alloc, prefix_table=base.table.fork(), prefix_len=6)
        fork.table.rows()  # cache the map over the shared blocks
        shared = fork.table.block_ids[1]
        k2, v2 = random_kv(rng, t=1)
        for layer in range(2):
            fork[layer].append(k2, v2)  # COW-copies the half-full block
        copy = fork.table.block_ids[1]
        assert copy != shared
        alloc.block_keys(shared)[...] = 7.0  # the original moves on
        plane_k, _, rows = fork[0].decode_view(np.array([4, 6]))
        assert np.all(rows // 4 == copy)
        assert np.array_equal(plane_k[:, rows], np.concatenate([k[:, [4]], k2], axis=1))
