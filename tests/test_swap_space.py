"""Tiered KV placement: SwapSpace unit tests, the latency model's swap
transfers, the prefix cache's disk-spill tier, and the symmetric PQ-snapshot
hold refcounting (regression for the evict/re-insert leak)."""

from __future__ import annotations

import evict_walk_oracle
import numpy as np
import pytest

from repro.core.pqcache import PQSnapshot
from repro.errors import CapacityError, ConfigurationError
from repro.llm import ModelConfig
from repro.llm.kvcache import BlockAllocator, PagedKVCache, SwapSpace
from repro.llm.kvcodec import BytePlaneCodec, IntQuantCodec, RawCodec
from repro.memory import HardwareSpec, LatencyModel, Resource
from repro.serve import PrefixCache, chain_block_keys


def make_allocator(capacity=None, block_size=4, num_layers=2, h_kv=2, d_h=8):
    return BlockAllocator(
        num_layers, h_kv, d_h, block_size=block_size, capacity_blocks=capacity
    )


def fill_blocks(alloc, n, seed=0):
    """Allocate ``n`` blocks with distinct random contents; return their ids."""
    rng = np.random.default_rng(seed)
    ids = []
    for _ in range(n):
        bid = alloc.allocate()
        alloc.block_keys(bid)[...] = rng.normal(size=alloc.block_keys(bid).shape)
        alloc.block_values(bid)[...] = rng.normal(size=alloc.block_values(bid).shape)
        ids.append(bid)
    return ids


# ------------------------------------------------------------- swap space


class TestSwapSpace:
    def test_swap_out_in_round_trips_bitwise(self):
        alloc = make_allocator()
        ids = fill_blocks(alloc, 3)
        keys = [alloc.block_keys(b).copy() for b in ids]
        values = [alloc.block_values(b).copy() for b in ids]
        space = SwapSpace()
        handle = space.swap_out(alloc, ids)
        for bid in ids:
            alloc.decref(bid)
        # Scribble over the recycled blocks to prove restore does not rely
        # on the pool still holding the old contents.
        for bid in fill_blocks(alloc, 3, seed=99):
            pass
        new_ids = space.swap_in(handle, alloc)
        assert len(new_ids) == 3
        for new_id, k, v in zip(new_ids, keys, values):
            assert np.array_equal(alloc.block_keys(new_id), k)
            assert np.array_equal(alloc.block_values(new_id), v)
            assert alloc.refcount(new_id) == 1

    def test_handle_is_single_use(self):
        alloc = make_allocator()
        space = SwapSpace()
        handle = space.swap_out(alloc, fill_blocks(alloc, 1))
        space.swap_in(handle, alloc)
        with pytest.raises(ConfigurationError):
            space.swap_in(handle, alloc)

    def test_eviction_ordering_gpu_cpu_disk(self):
        """Overflowing the CPU tier demotes its *oldest* handle to disk."""
        alloc = make_allocator()
        space = SwapSpace(cpu_capacity_blocks=3, disk_capacity_blocks=10)
        first = space.swap_out(alloc, fill_blocks(alloc, 2, seed=1))
        second = space.swap_out(alloc, fill_blocks(alloc, 1, seed=2))
        assert (first.tier, second.tier) == ("cpu", "cpu")
        third = space.swap_out(alloc, fill_blocks(alloc, 2, seed=3))
        # first (oldest) demoted to make room; second stayed; third on CPU.
        assert first.tier == "disk"
        assert second.tier == "cpu"
        assert third.tier == "cpu"
        assert space.cpu_blocks == 3 and space.disk_blocks == 2
        assert space.stats.demoted == 2

    def test_direct_disk_spill(self):
        alloc = make_allocator()
        space = SwapSpace(cpu_capacity_blocks=0)
        handle = space.swap_out(alloc, fill_blocks(alloc, 2), tier="disk")
        assert handle.tier == "disk"
        assert space.cpu_blocks == 0 and space.disk_blocks == 2

    def test_all_tiers_exhausted_raises_cleanly(self):
        alloc = make_allocator()
        space = SwapSpace(cpu_capacity_blocks=2, disk_capacity_blocks=2)
        space.swap_out(alloc, fill_blocks(alloc, 2, seed=1))          # CPU full
        space.swap_out(alloc, fill_blocks(alloc, 2, seed=2), tier="disk")
        before = space.describe()
        with pytest.raises(CapacityError):
            space.swap_out(alloc, fill_blocks(alloc, 1, seed=3))
        # A failed swap-out stores nothing and demotes nothing it cannot fit.
        assert space.describe()["cpu_blocks"] == before["cpu_blocks"]
        assert space.describe()["disk_blocks"] == before["disk_blocks"]

    def test_swap_in_pool_exhaustion_keeps_handle(self):
        alloc = make_allocator(capacity=2)
        space = SwapSpace()
        handle = space.swap_out(alloc, fill_blocks(alloc, 2))
        # Pool still full (refs not dropped): swap-in cannot allocate.
        with pytest.raises(CapacityError):
            space.swap_in(handle, alloc)
        assert space.cpu_blocks == 2  # handle still parked
        assert alloc.num_allocated == 2  # no leaked partial allocations

    def test_shared_blocks_are_pinned_not_copied(self):
        """Swap-out of a shared block keeps it GPU-resident by reference."""
        alloc = make_allocator()
        space = SwapSpace(cpu_capacity_blocks=1)  # room for 1 stored block
        own, shared = fill_blocks(alloc, 2)
        alloc.incref(shared)  # someone else (a prefix cache) holds it too
        handle = space.swap_out(alloc, [own, shared])
        assert handle.stored_blocks == 1 and handle.pinned_blocks == 1
        assert space.cpu_blocks == 1  # the pinned block occupies no tier room
        assert alloc.refcount(shared) == 3  # other holder + caller + pin
        alloc.decref(own)
        alloc.decref(shared)  # the caller releases its table
        new_ids = space.swap_in(handle, alloc)
        assert new_ids[1] == shared  # the very same block comes back
        assert alloc.refcount(shared) == 2  # other holder + restored table
        assert alloc.refcount(new_ids[0]) == 1

    def test_discard_releases_pins(self):
        alloc = make_allocator()
        space = SwapSpace()
        (shared,) = fill_blocks(alloc, 1)
        alloc.incref(shared)
        handle = space.swap_out(alloc, [shared])
        alloc.decref(shared)  # caller's table reference
        assert alloc.refcount(shared) == 2  # other holder + pin
        space.discard(handle)
        assert alloc.refcount(shared) == 1  # pin released

    def test_materialize_pins_copies_and_unpins(self):
        alloc = make_allocator()
        space = SwapSpace()
        (shared,) = fill_blocks(alloc, 1)
        keys = alloc.block_keys(shared).copy()
        alloc.incref(shared)
        handle = space.swap_out(alloc, [shared])
        alloc.decref(shared)
        assert space.materialize_pins(handle) == 1
        assert handle.pinned_blocks == 0 and handle.stored_blocks == 1
        assert alloc.refcount(shared) == 1  # pin gone; other holder remains
        alloc.decref(shared)  # other holder drops it; block id recycled
        new_ids = space.swap_in(handle, alloc)
        assert np.array_equal(alloc.block_keys(new_ids[0]), keys)

    def test_discard_and_validation(self):
        alloc = make_allocator()
        space = SwapSpace()
        handle = space.swap_out(alloc, fill_blocks(alloc, 2))
        space.discard(handle)
        assert space.cpu_blocks == 0
        assert space.stats.discarded == 2
        space.discard(handle)  # idempotent
        with pytest.raises(ConfigurationError):
            space.swap_out(alloc, [], tier="tape")
        with pytest.raises(ConfigurationError):
            SwapSpace(cpu_capacity_blocks=-1)


# ------------------------------------------------------- codec wire billing


class TestSwapSpaceCodec:
    def test_byteplane_swap_round_trips_bitwise(self):
        alloc = make_allocator()
        ids = fill_blocks(alloc, 3)
        keys = [alloc.block_keys(b).copy() for b in ids]
        space = SwapSpace(codec=BytePlaneCodec())
        handle = space.swap_out(alloc, ids)
        for bid in ids:
            alloc.decref(bid)
        fill_blocks(alloc, 3, seed=99)  # recycle + scribble
        new_ids = space.swap_in(handle, alloc)
        for new_id, k in zip(new_ids, keys):
            assert np.array_equal(alloc.block_keys(new_id), k)

    def test_wire_and_logical_counters(self):
        alloc = make_allocator()
        space = SwapSpace(codec=BytePlaneCodec())
        handle = space.swap_out(alloc, fill_blocks(alloc, 2))
        stats = space.stats
        logical = handle.stored_logical_nbytes
        wire = handle.stored_wire_nbytes
        assert logical == 2 * alloc.block_nbytes()  # keys+values, 2 blocks
        assert stats.swapped_out_logical_bytes == logical
        assert stats.swapped_out_wire_bytes == wire
        assert wire != logical  # byteplane re-measures the fp16 image
        space.swap_in(handle, alloc)
        assert stats.swapped_in_logical_bytes == logical
        assert stats.swapped_in_wire_bytes == wire

    def test_raw_default_wire_equals_logical(self):
        alloc = make_allocator()
        space = SwapSpace()  # default codec is raw
        assert isinstance(space.codec, RawCodec)
        handle = space.swap_out(alloc, fill_blocks(alloc, 2))
        assert handle.stored_wire_nbytes == handle.stored_logical_nbytes
        assert (
            space.stats.swapped_out_wire_bytes
            == space.stats.swapped_out_logical_bytes
        )

    def test_demotion_tracks_wire_bytes(self):
        alloc = make_allocator()
        space = SwapSpace(cpu_capacity_blocks=2, codec=BytePlaneCodec())
        first = space.swap_out(alloc, fill_blocks(alloc, 2, seed=1))
        first_wire = first.stored_wire_nbytes
        space.swap_out(alloc, fill_blocks(alloc, 2, seed=2))
        assert first.tier == "disk"
        assert space.stats.demoted_wire_bytes == first_wire
        assert space.stats.demoted_logical_bytes == first.stored_logical_nbytes

    def test_per_call_codec_overrides_default(self):
        # 32-token blocks: enough tokens per channel for int4's per-channel
        # (min, scale) params to amortise into a real compression win.
        alloc = make_allocator(block_size=32)
        space = SwapSpace()  # raw default
        handle = space.swap_out(
            alloc, fill_blocks(alloc, 1), tier="disk",
            codec=IntQuantCodec(4),
        )
        assert handle.codec.name == "int4"
        assert handle.stored_wire_nbytes < handle.stored_logical_nbytes // 2

    def test_lossy_swap_restores_within_bound(self):
        alloc = make_allocator()
        ids = fill_blocks(alloc, 1)
        keys = alloc.block_keys(ids[0]).copy()
        space = SwapSpace(codec=IntQuantCodec(8))
        handle = space.swap_out(alloc, ids)
        bound = max(
            enc.error_bound
            for pos in (handle.keys, handle.values)
            for enc in pos
            if enc is not None
        )
        alloc.decref(ids[0])
        new_ids = space.swap_in(handle, alloc)
        assert np.max(np.abs(alloc.block_keys(new_ids[0]) - keys)) <= bound

    def test_peek_encoded_returns_parked_objects(self):
        alloc = make_allocator()
        space = SwapSpace(codec=BytePlaneCodec())
        handle = space.swap_out(alloc, fill_blocks(alloc, 2))
        enc_keys, enc_values = space.peek_encoded(handle)
        assert enc_keys[0] is handle.keys[0]  # no decode, no re-encode
        assert enc_values[1] is handle.values[1]
        # ... and the handle is still restorable afterwards.
        space.swap_in(handle, alloc)

    def test_peek_encoded_encodes_pinned_blocks_on_the_fly(self):
        alloc = make_allocator()
        (shared,) = fill_blocks(alloc, 1)
        alloc.incref(shared)
        space = SwapSpace(codec=BytePlaneCodec())
        handle = space.swap_out(alloc, [shared])
        assert handle.pinned_blocks == 1
        enc_keys, _ = space.peek_encoded(handle)
        assert enc_keys[0].codec == "byteplane"
        assert np.array_equal(enc_keys[0].decode(), alloc.block_keys(shared))

    def test_materialize_pins_bills_wire_bytes(self):
        alloc = make_allocator()
        (shared,) = fill_blocks(alloc, 1)
        alloc.incref(shared)
        space = SwapSpace(codec=BytePlaneCodec())
        handle = space.swap_out(alloc, [shared])
        assert space.stats.swapped_out_wire_bytes == 0  # pin moved nothing
        alloc.decref(shared)
        space.materialize_pins(handle)
        assert space.stats.swapped_out_wire_bytes == handle.stored_wire_nbytes
        assert handle.stored_wire_nbytes > 0

    def test_describe_reports_codec_and_bytes(self):
        alloc = make_allocator()
        space = SwapSpace(codec=BytePlaneCodec())
        space.swap_out(alloc, fill_blocks(alloc, 1))
        info = space.describe()
        assert info["codec"] == "byteplane"
        assert info["swapped_out_wire_bytes"] > 0


# ---------------------------------------------------------- latency model


class TestSwapLatency:
    @pytest.fixture()
    def latency(self):
        return LatencyModel(HardwareSpec.paper_testbed(), ModelConfig.tiny())

    def test_swap_out_links_pcie_then_disk(self, latency):
        timeline = latency.swap_out_timeline(1e6, disk_bytes=5e5)
        d2h, disk = timeline["swap-d2h"], timeline["swap-disk-write"]
        assert d2h.resource == Resource.D2H
        assert disk.resource == Resource.DISK
        assert disk.depends_on == ("swap-d2h",)
        assert disk.start >= d2h.finish
        assert timeline.makespan == pytest.approx(d2h.duration + disk.duration)

    def test_swap_in_links_disk_then_pcie(self, latency):
        timeline = latency.swap_in_timeline(1e6, disk_bytes=1e6)
        read, h2d = timeline["swap-disk-read"], timeline["swap-h2d"]
        assert read.resource == Resource.DISK
        assert h2d.resource == Resource.H2D
        assert h2d.depends_on == ("swap-disk-read",)
        assert h2d.start >= read.finish

    def test_cpu_only_swap_has_no_disk_leg(self, latency):
        out = latency.swap_out_timeline(1e6)
        assert "swap-disk-write" not in out
        assert latency.swap_out_seconds(1e6) == pytest.approx(
            latency.hardware.interconnect.transfer_seconds(1e6)
        )

    def test_swap_bytes_validated(self, latency):
        with pytest.raises(ConfigurationError):
            latency.swap_out_timeline(-1.0)
        with pytest.raises(ConfigurationError):
            latency.swap_in_timeline(1.0, disk_bytes=-1.0)

    def test_zero_flops_emit_no_codec_stage(self, latency):
        out = latency.swap_out_timeline(1e6, disk_bytes=5e5)
        assert "swap-encode" not in out
        back = latency.swap_in_timeline(1e6)
        assert "swap-decode" not in back

    def test_encode_stage_gates_the_d2h_leg(self, latency):
        timeline = latency.swap_out_timeline(1e6, encode_flops=6e6)
        encode, d2h = timeline["swap-encode"], timeline["swap-d2h"]
        assert encode.resource == Resource.CPU
        assert d2h.depends_on == ("swap-encode",)
        assert d2h.start >= encode.finish
        assert encode.duration == pytest.approx(latency.codec_seconds(6e6))
        # The codec stage lengthens the swap: its cost is real.
        assert timeline.makespan > latency.swap_out_timeline(1e6).makespan

    def test_decode_stage_follows_the_h2d_leg(self, latency):
        timeline = latency.swap_in_timeline(1e6, decode_flops=3e6)
        h2d, decode = timeline["swap-h2d"], timeline["swap-decode"]
        assert decode.resource == Resource.CPU
        assert decode.depends_on == ("swap-h2d",)
        assert decode.start >= h2d.finish

    def test_migration_encode_overlaps_disk_read(self, latency):
        timeline = latency.migration_timeline(
            1e6, disk_bytes=5e5, encode_flops=6e6, decode_flops=3e6
        )
        encode = timeline["migrate-encode"]
        read = timeline["swap-disk-read"]
        h2d = timeline["swap-h2d"]
        assert encode.resource == Resource.CPU
        # Source-side encode and owner NVMe read proceed in parallel; the
        # PCIe leg waits on both.
        assert set(h2d.depends_on) == {"migrate-encode", "swap-disk-read"}
        assert encode.start == read.start == 0.0
        assert timeline["swap-decode"].depends_on == ("swap-h2d",)

    def test_codec_seconds_validated(self, latency):
        assert latency.codec_seconds(0.0) == 0.0
        assert latency.codec_seconds(1e6) > 0.0
        with pytest.raises(ConfigurationError):
            latency.codec_seconds(-1.0)


# ------------------------------------------------------- prefix-cache spill


def fill_chain(alloc, tokens, seed=0):
    """Prefill-like chain: a paged cache holding ``tokens`` with random KV."""
    rng = np.random.default_rng(seed)
    paged = PagedKVCache(alloc)
    try:
        for layer in range(alloc.num_layers):
            k = rng.normal(size=(alloc.num_kv_heads, len(tokens), alloc.head_dim))
            paged[layer].append(k, k * 2.0)
    except CapacityError:
        paged.release()  # a pool too full to host the chain keeps none of it
        raise
    return paged


def make_snapshot(fingerprint="fp", num_tokens=8):
    return PQSnapshot(
        codebooks=[np.zeros((2, 2, 4, 4))],
        codes=[np.zeros((num_tokens, 2, 2), dtype=np.uint8)],
        num_tokens=num_tokens,
        sketch_upto=num_tokens,
        fingerprint=fingerprint,
    )


class TestPrefixCacheSpill:
    def test_spill_then_restore_is_bitwise(self):
        alloc = make_allocator(capacity=8)
        space = SwapSpace()
        cache = PrefixCache(alloc, spill_store=space)
        alloc.eviction_hook = cache.evict
        tokens = list(range(16))
        paged = fill_chain(alloc, tokens)
        snap = make_snapshot()
        cache.insert(tokens, paged.table.block_ids,
                     pq_fingerprint="fp", pq_snapshot=snap)
        originals = {
            b: alloc.block_keys(b).copy() for b in paged.table.block_ids
        }
        order = list(paged.table.block_ids)
        paged.release()

        freed = cache.evict(4)
        assert freed == 4
        assert cache.num_spilled == 4 and cache.num_resident == 0
        assert space.disk_blocks == 4
        assert cache.stats.spilled_payload_bytes >= snap.nbytes()

        match = cache.match(tokens, fingerprint="fp")
        assert match is not None and match.matched_tokens == 16
        assert match.pq_snapshot is snap
        assert cache.stats.restored_blocks == 4
        assert space.disk_blocks == 0
        for new_id, old_id in zip(match.block_ids, order):
            assert np.array_equal(alloc.block_keys(new_id), originals[old_id])

    def test_reinsert_readopts_spilled_nodes_without_disk_read(self):
        alloc = make_allocator(capacity=8)
        space = SwapSpace()
        cache = PrefixCache(alloc, spill_store=space)
        tokens = list(range(8))
        paged = fill_chain(alloc, tokens)
        cache.insert(tokens, paged.table.block_ids)
        paged.release()
        assert cache.evict(2) == 2
        assert cache.num_spilled == 2

        # The same prompt served cold again re-inserts identical blocks.
        paged2 = fill_chain(alloc, tokens)
        cache.insert(tokens, paged2.table.block_ids)
        assert cache.num_spilled == 0
        assert cache.stats.readopted_blocks == 2
        assert cache.stats.restored_blocks == 0  # no disk read happened
        assert space.disk_blocks == 0  # stale spilled copies discarded

    def test_disk_exhaustion_falls_back_to_hard_eviction(self):
        alloc = make_allocator(capacity=8)
        space = SwapSpace(disk_capacity_blocks=1)
        cache = PrefixCache(alloc, spill_store=space)
        tokens = list(range(16))
        paged = fill_chain(alloc, tokens)
        cache.insert(tokens, paged.table.block_ids)
        paged.release()
        freed = cache.evict(4)
        assert freed == 4
        assert cache.stats.spilled_blocks == 1      # disk absorbed one block
        assert cache.stats.evicted_blocks == 3      # the rest dropped outright

    def test_reentrant_eviction_mid_restore_never_aliases(self):
        """Regression: restoring a chain must not cannibalise that chain.

        With the disk tier full, the allocation inside a spilled node's
        restore fires the eviction hook.  Before the fix the fallback could
        hard-remove a *later* node of the very chain being restored and
        recycle its block id for the restore itself — the match then
        returned a chain whose tail aliased the restored head's data.  The
        chain under restoration is now shielded: under a packed pool the
        lookup degrades to a miss with the chain intact, and succeeds
        bitwise once the pool has room again.
        """
        alloc = make_allocator(capacity=3)
        space = SwapSpace(disk_capacity_blocks=1)
        cache = PrefixCache(alloc, spill_store=space)
        alloc.eviction_hook = cache.evict
        tokens = list(range(8))  # 2 blocks
        paged = fill_chain(alloc, tokens)
        first_keys = alloc.block_keys(paged.table.block_ids[0]).copy()
        second_keys = alloc.block_keys(paged.table.block_ids[1]).copy()
        cache.insert(tokens, paged.table.block_ids)
        paged.release()
        assert cache.evict(1) == 1          # head spilled; disk tier now full
        assert cache.num_spilled == 1
        hogs = [alloc.allocate(), alloc.allocate()]  # pool completely full

        # No room to restore the head and its own chain is off-limits to the
        # re-entrant eviction: a clean miss, nothing removed, nothing aliased.
        assert cache.match(tokens) is None
        assert len(cache) == 2 and cache.num_spilled == 1

        for bid in hogs:
            alloc.decref(bid)
        match = cache.match(tokens)
        assert match is not None and match.matched_tokens == 8
        assert np.array_equal(alloc.block_keys(match.block_ids[0]), first_keys)
        assert np.array_equal(alloc.block_keys(match.block_ids[1]), second_keys)

    def test_truncated_restore_degrades_to_shorter_match(self):
        """A pool too tight to restore the whole chain yields a shorter hit."""
        alloc = make_allocator(capacity=4)
        space = SwapSpace()
        cache = PrefixCache(alloc, spill_store=space)
        tokens = list(range(16))
        paged = fill_chain(alloc, tokens)
        cache.insert(tokens, paged.table.block_ids)
        paged.release()
        assert cache.evict(4) == 4
        # Fill the pool so that only 2 blocks can come back.
        hog = [alloc.allocate(), alloc.allocate()]
        match = cache.match(tokens)
        assert match is not None
        assert match.matched_tokens == 8  # 2 of 4 blocks restored
        assert cache.stats.restored_blocks == 2
        for bid in hog:
            alloc.decref(bid)


# ------------------------------------------- evict walk against its oracle


class EventLog:
    """Residency observer recording every ``_notify`` as ``(event, key)``."""

    def __init__(self):
        self.events = []

    def __getattr__(self, name):
        if not name.startswith("on_"):
            raise AttributeError(name)
        return lambda key: self.events.append((name[3:], key))


def churn(evict_of, seed, steps=400):
    """Seeded insert/match/evict churn; returns the cache and its event log.

    ``evict_of(cache)`` supplies the walk under test — it serves both the
    explicit evictions and the allocator's eviction hook, so the re-entrant
    calls a restore's own allocation fires go through it too.  A 6-block disk
    tier under a 24-block pool makes spill, hard eviction and the stuck
    "drop the coldest spilled leaf" branch all fire.
    """
    rng = np.random.default_rng(seed)
    alloc = make_allocator(capacity=24)
    space = SwapSpace(disk_capacity_blocks=6, codec=BytePlaneCodec())
    cache = PrefixCache(alloc, spill_store=space)
    cache.observer = log = EventLog()
    evict = evict_of(cache)
    alloc.eviction_hook = evict
    block = alloc.block_size
    roots = [rng.integers(0, 50, size=2 * block).tolist() for _ in range(3)]
    prompts, held = [], []
    for _ in range(steps):
        op = rng.choice(["insert", "insert", "match", "evict", "release"])
        if op == "insert":
            tail = rng.integers(0, 50, size=block * int(rng.integers(0, 4)))
            tokens = roots[int(rng.integers(3))] + tail.tolist()
            prompts.append(tokens)
            try:
                paged = fill_chain(alloc, tokens, seed=len(prompts))
            except CapacityError:
                continue  # the pool is pinned by held requests
            cache.insert(tokens, paged.table.block_ids)
            if rng.random() < 0.3:
                held.append(paged)  # an active request keeps its blocks
            else:
                paged.release()
        elif op == "match" and prompts:
            cache.match(prompts[int(rng.integers(len(prompts)))])
        elif op == "evict":
            evict(int(rng.integers(1, 5)))
        elif op == "release" and held:
            held.pop(int(rng.integers(len(held)))).release()
    return cache, log


class TestEvictWalkAgainstOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_same_victims_same_order_same_counters(self, seed):
        cache, log = churn(lambda cache: cache.evict, seed)
        ref_cache, ref_log = churn(
            lambda cache: lambda n=1: evict_walk_oracle.evict(cache, n), seed
        )
        stats = cache.stats
        # The churn must reach every branch of the walk, or it proves nothing.
        assert stats.spilled_blocks > 0 and stats.restored_blocks > 0
        assert stats.evicted_blocks > 0 and stats.dropped_spilled_blocks > 0
        assert log.events == ref_log.events
        assert {e for e, _ in log.events} == {"insert", "spill", "restore", "evict"}
        assert stats == ref_cache.stats
        assert list(cache._nodes) == list(ref_cache._nodes)


# ----------------------------------- export / restore double-billing guard


class CountingCodec(BytePlaneCodec):
    """Byteplane codec that counts decode calls (double-read regression)."""

    def __init__(self, dtype_bytes=2):
        super().__init__(dtype_bytes)
        self.decodes = 0

    def decode(self, encoded):
        self.decodes += 1
        return super().decode(encoded)


class TestExportedSpillBilling:
    def _spilled_cache(self, codec=None, capacity=8, tokens=128):
        # 32-token blocks so lossy codecs amortise their channel params.
        alloc = make_allocator(capacity=capacity, block_size=32)
        space = SwapSpace()
        cache = PrefixCache(alloc, spill_store=space, spill_codec=codec)
        token_ids = list(range(tokens))
        paged = fill_chain(alloc, token_ids)
        cache.insert(token_ids, paged.table.block_ids)
        paged.release()
        cache.evict(tokens // alloc.block_size)
        return alloc, space, cache, token_ids

    def test_export_ships_parked_form_without_restore(self):
        """Exporting a spilled chain must not read it back through NVMe.

        The exported nodes carry the parked encoded payloads themselves —
        no decode on the owner, no restore-counter mutation — so a later
        local restore of the same chain bills its disk read exactly once.
        """
        codec = CountingCodec()
        alloc, space, cache, tokens = self._spilled_cache(codec=codec)
        assert cache.num_spilled == 4
        exported = cache.export_chain(tokens)
        assert exported is not None and exported.disk_blocks == 4
        # The parked objects travelled as-is: zero decodes, zero restores.
        assert codec.decodes == 0
        assert cache.stats.restored_blocks == 0
        assert cache.stats.restored_wire_bytes == 0
        assert space.disk_blocks == 4  # owner copy still parked
        # A later local restore of the very same chain bills once, normally.
        match = cache.match(tokens)
        assert match is not None and match.matched_tokens == len(tokens)
        assert cache.stats.restored_blocks == 4
        assert cache.stats.restored_wire_bytes > 0

    def test_import_decodes_each_block_exactly_once(self):
        codec = CountingCodec()
        alloc, space, cache, tokens = self._spilled_cache(codec=codec)
        exported = cache.export_chain(tokens)
        target_alloc = make_allocator(capacity=8, block_size=32)
        target = PrefixCache(target_alloc)
        written = target.import_chain(exported)
        assert written == 4
        assert codec.decodes == 2 * written  # keys + values per block

    def test_exported_wire_bytes_reflect_spill_codec(self):
        _, _, cache, tokens = self._spilled_cache(codec=IntQuantCodec(4))
        exported = cache.export_chain(tokens)
        assert exported.disk_blocks == 4
        assert exported.kv_wire_nbytes < exported.kv_logical_nbytes // 2
        assert exported.disk_wire_nbytes == exported.kv_wire_nbytes

    def test_lossy_spill_restores_within_bound(self):
        alloc = make_allocator(capacity=8)
        space = SwapSpace()
        cache = PrefixCache(alloc, spill_store=space,
                            spill_codec=IntQuantCodec(8))
        tokens = list(range(16))
        paged = fill_chain(alloc, tokens)
        originals = [
            alloc.block_keys(b).copy() for b in paged.table.block_ids
        ]
        cache.insert(tokens, paged.table.block_ids)
        paged.release()
        cache.evict(4)
        bound = max(
            enc.error_bound
            for node in cache._nodes.values()
            for enc in (*node.spill_handle.keys, *node.spill_handle.values)
            if enc is not None
        )
        match = cache.match(tokens)
        assert match is not None and match.matched_tokens == 16
        for new_id, original in zip(match.block_ids, originals):
            err = np.max(np.abs(alloc.block_keys(new_id) - original))
            assert 0.0 < err <= bound  # genuinely lossy, within declaration

    def test_spill_wire_counter_tracks_codec(self):
        alloc, _, cache, _ = self._spilled_cache(codec=IntQuantCodec(4))
        logical = cache.stats.spilled_blocks * alloc.block_nbytes()
        assert 0 < cache.stats.spilled_wire_bytes < logical // 2


# --------------------------------------------- snapshot hold refcounting


class TestSnapshotHoldRefcounts:
    def test_holds_balanced_across_evict_reinsert_cycles(self):
        """Regression: eviction must release storage holds symmetrically.

        Each insert retains one hold per covering node; each hard eviction
        of a node releases it.  Over repeated evict/re-insert cycles the
        hold count must return to exactly the live-node count instead of
        drifting upward (the pre-fix leak) or underflowing.
        """
        alloc = make_allocator(capacity=8)
        cache = PrefixCache(alloc)  # no spill store: hard eviction path
        tokens = list(range(8))     # 2 blocks
        snap = make_snapshot(num_tokens=8)
        for cycle in range(5):
            paged = fill_chain(alloc, tokens, seed=cycle)
            cache.insert(tokens, paged.table.block_ids,
                         pq_fingerprint="fp", pq_snapshot=snap)
            assert snap.hold_count == 2, f"cycle {cycle}"
            paged.release()
            assert cache.evict(2) == 2
            assert len(cache) == 0
            assert snap.hold_count == 0, f"cycle {cycle}"

    def test_replacement_releases_previous_hold(self):
        alloc = make_allocator(capacity=8)
        cache = PrefixCache(alloc)
        tokens = list(range(8))
        shallow = make_snapshot(num_tokens=4)
        deep = make_snapshot(num_tokens=8)
        paged = fill_chain(alloc, tokens)
        cache.insert(tokens, paged.table.block_ids,
                     pq_fingerprint="fp", pq_snapshot=shallow)
        assert shallow.hold_count == 2
        cache.insert(tokens, paged.table.block_ids,
                     pq_fingerprint="fp", pq_snapshot=deep)
        assert shallow.hold_count == 0  # replaced on both nodes
        assert deep.hold_count == 2
        # A shallower snapshot never replaces a deeper one.
        cache.insert(tokens, paged.table.block_ids,
                     pq_fingerprint="fp", pq_snapshot=shallow)
        assert deep.hold_count == 2 and shallow.hold_count == 0
        paged.release()
        cache.clear()
        assert deep.hold_count == 0

    def test_spilled_nodes_keep_their_holds(self):
        alloc = make_allocator(capacity=8)
        cache = PrefixCache(alloc, spill_store=SwapSpace())
        tokens = list(range(8))
        snap = make_snapshot(num_tokens=8)
        paged = fill_chain(alloc, tokens)
        cache.insert(tokens, paged.table.block_ids,
                     pq_fingerprint="fp", pq_snapshot=snap)
        paged.release()
        assert cache.evict(2) == 2
        assert cache.num_spilled == 2
        assert snap.hold_count == 2  # spilled nodes still hold the snapshot
        cache.clear()
        assert snap.hold_count == 0

    def test_insert_and_import_heal_the_same_spilled_chain(self):
        """``insert`` and ``import_chain`` share one adopt step and one
        deepest-snapshot-wins step: alternate them over the same chain with
        a spill in between and a deeper snapshot arriving each time."""

        class Events:
            def __init__(self):
                self.log = []

            def on_insert(self, key):
                self.log.append(("insert", key))

            def on_spill(self, key):
                self.log.append(("spill", key))

            def on_restore(self, key):
                self.log.append(("restore", key))

            def on_evict(self, key):
                self.log.append(("evict", key))

            def keys(self, kind):
                return [key for event, key in self.log if event == kind]

        tokens = list(range(16))  # 4 blocks
        shallow, deep, deepest = (make_snapshot(num_tokens=n) for n in (8, 12, 16))

        source_alloc = make_allocator(capacity=8)
        source = PrefixCache(source_alloc)
        source_chain = fill_chain(source_alloc, tokens, seed=1)
        source.insert(tokens, source_chain.table.block_ids,
                      pq_fingerprint="fp", pq_snapshot=deep)
        exported = source.export_chain(tokens)
        assert deep.hold_count == 4  # the source's own nodes, throughout

        alloc = make_allocator(capacity=8)
        cache = PrefixCache(alloc, spill_store=SwapSpace())
        cache.observer = events = Events()
        chain_keys = chain_block_keys(tokens, alloc.block_size)

        # insert (shallow) -> spill -> import (deep) heals all four nodes.
        paged = fill_chain(alloc, tokens, seed=1)
        assert cache.insert(tokens, paged.table.block_ids,
                            pq_fingerprint="fp", pq_snapshot=shallow) == 4
        paged.release()
        assert cache.evict(4) == 4 and cache.num_spilled == 4
        assert cache._spilled_snapshot_ids == {id(shallow)}
        assert cache.import_chain(exported) == 4
        assert cache.num_spilled == 0 and cache.spill_store.disk_blocks == 0
        assert (cache.stats.imported_blocks, cache.stats.readopted_blocks) == (4, 0)
        assert events.keys("restore") == chain_keys
        assert shallow.hold_count == 0 and deep.hold_count == 4 + 4
        assert cache._spilled_snapshot_ids == set()

        # spill -> insert (deepest) re-adopts the same four nodes.
        assert cache.evict(4) == 4 and cache.num_spilled == 4
        assert cache._spilled_snapshot_ids == {id(deep)}
        paged = fill_chain(alloc, tokens, seed=1)
        assert cache.insert(tokens, paged.table.block_ids,
                            pq_fingerprint="fp", pq_snapshot=deepest) == 0
        assert cache.num_spilled == 0 and cache.spill_store.disk_blocks == 0
        assert (cache.stats.imported_blocks, cache.stats.readopted_blocks) == (4, 4)
        assert events.keys("restore") == chain_keys * 2
        assert events.keys("insert") == chain_keys  # never re-created
        assert deep.hold_count == 4 and deepest.hold_count == 4
        assert cache._spilled_snapshot_ids == set()
        assert cache.stats.inserted_blocks == 4 and cache.stats.restored_blocks == 0

        # The healed index serves the chain, with the deepest snapshot.
        match = cache.match(tokens, fingerprint="fp")
        assert match.block_ids == paged.table.block_ids
        assert match.pq_snapshot is deepest
        for got, want in zip(match.block_ids, source_chain.table.block_ids):
            assert np.array_equal(alloc.block_keys(got), source_alloc.block_keys(want))
        paged.release()
        cache.clear()
        source.clear()
        assert (shallow.hold_count, deep.hold_count, deepest.hold_count) == (0, 0, 0)

    def test_release_hold_underflow_raises(self):
        snap = make_snapshot()
        with pytest.raises(ConfigurationError):
            snap.release_hold()
