"""Paged KVCache: block allocator, block tables, COW, and exhaustion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.llm import KVCache
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
        alloc = make_allocator()
        paged = PagedKVCache(alloc)
        mono = KVCache(2, 2, 8)
        for t in (1, 3, 4, 9, 1):
            k, v = random_kv(rng, t=t)
            for layer in range(2):
                paged[layer].append(k, v)
                mono[layer].append(k, v)
        assert len(paged) == len(mono)
        for layer in range(2):
            assert np.array_equal(paged[layer].keys, mono[layer].keys)
            assert np.array_equal(paged[layer].values, mono[layer].values)
            got_k, got_v = paged[layer].gather(np.array([0, 5, 17]))
            exp_k, exp_v = mono[layer].gather(np.array([0, 5, 17]))
            assert np.array_equal(got_k, exp_k)
            assert np.array_equal(got_v, exp_v)

    def test_blocks_mirror_assembled_content(self, rng):
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

    def test_release_keeps_mirror_readable(self, rng):
        alloc = make_allocator()
        paged = PagedKVCache(alloc)
        k, v = random_kv(rng, t=5)
        for layer in range(2):
            paged[layer].append(k, v)
        paged.release()
        assert paged.released
        assert alloc.num_allocated == 0
        for layer in range(2):
            assert np.array_equal(paged[layer].keys, k if layer >= 0 else None)

    def test_capacity_failure_leaves_mirror_consistent(self, rng):
        alloc = make_allocator(capacity=1, block_size=4)
        paged = PagedKVCache(alloc)
        k, v = random_kv(rng, t=4)
        for layer in range(2):
            paged[layer].append(k, v)
        k2, v2 = random_kv(rng, t=1)
        with pytest.raises(CapacityError):
            paged[0].append(k2, v2)
        # The failed append must not have advanced the mirror.
        assert len(paged[0]) == 4

    def test_prefix_len_validation(self):
        alloc = make_allocator()
        with pytest.raises(ConfigurationError):
            PagedKVCache(alloc, prefix_len=4)  # no table
        table = BlockTable(alloc)
        table.append_new()
        with pytest.raises(ConfigurationError):
            PagedKVCache(alloc, prefix_table=table, prefix_len=99)
