"""Tiered KV placement: SwapSpace unit tests, the latency model's swap
transfers, the prefix cache's disk-spill tier, and the symmetric PQ-snapshot
hold refcounting (regression for the evict/re-insert leak)."""

from __future__ import annotations

import evict_walk_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pqcache import PQSnapshot
from repro.errors import CapacityError, ConfigurationError
from repro.llm import ModelConfig, TransformerLM
from repro.llm.kvcache import BlockAllocator, PagedKVCache, SwapSpace
from repro.memory import HardwareSpec, LatencyModel, Resource
from repro.serve import (
    EngineConfig,
    InferenceEngine,
    PoolConfig,
    PrefixCache,
    PrefixCoverage,
    Request,
    SamplingParams,
    SchedulerConfig,
    chain_block_keys,
)


WIDTHS = [1, 2, 4, 8]


def make_allocator(capacity=None, block_size=4, num_layers=2, h_kv=2, d_h=8,
                   dtype_bytes=2):
    return BlockAllocator(
        num_layers, h_kv, d_h, block_size=block_size, capacity_blocks=capacity,
        dtype_bytes=dtype_bytes,
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
        space = SwapSpace(alloc)
        handle = space.swap_out(ids)
        for bid in ids:
            alloc.decref(bid)
        # Scribble over the recycled blocks to prove restore does not rely
        # on the pool still holding the old contents.
        for bid in fill_blocks(alloc, 3, seed=99):
            pass
        new_ids = space.swap_in(handle)
        assert len(new_ids) == 3
        for new_id, k, v in zip(new_ids, keys, values):
            assert np.array_equal(alloc.block_keys(new_id), k)
            assert np.array_equal(alloc.block_values(new_id), v)
            assert alloc.refcount(new_id) == 1

    def test_handle_is_single_use(self):
        alloc = make_allocator()
        space = SwapSpace(alloc)
        handle = space.swap_out(fill_blocks(alloc, 1))
        space.swap_in(handle)
        with pytest.raises(ConfigurationError):
            space.swap_in(handle)

    def test_eviction_ordering_gpu_cpu_disk(self):
        """Overflowing the CPU tier demotes its *oldest* handle to disk."""
        alloc = make_allocator()
        space = SwapSpace(alloc, cpu_capacity_blocks=3, disk_capacity_blocks=10)
        first = space.swap_out(fill_blocks(alloc, 2, seed=1))
        second = space.swap_out(fill_blocks(alloc, 1, seed=2))
        assert (first.tier, second.tier) == ("cpu", "cpu")
        third = space.swap_out(fill_blocks(alloc, 2, seed=3))
        # first (oldest) demoted to make room; second stayed; third on CPU.
        assert first.tier == "disk"
        assert second.tier == "cpu"
        assert third.tier == "cpu"
        assert space.cpu_blocks == 3 and space.disk_blocks == 2
        assert space.stats.demoted == 2

    def test_direct_disk_spill(self):
        alloc = make_allocator()
        space = SwapSpace(alloc, cpu_capacity_blocks=0)
        handle = space.swap_out(fill_blocks(alloc, 2), tier="disk")
        assert handle.tier == "disk"
        assert space.cpu_blocks == 0 and space.disk_blocks == 2

    def test_all_tiers_exhausted_raises_cleanly(self):
        alloc = make_allocator()
        space = SwapSpace(alloc, cpu_capacity_blocks=2, disk_capacity_blocks=2)
        space.swap_out(fill_blocks(alloc, 2, seed=1))          # CPU full
        space.swap_out(fill_blocks(alloc, 2, seed=2), tier="disk")
        before = space.describe()
        with pytest.raises(CapacityError):
            space.swap_out(fill_blocks(alloc, 1, seed=3))
        # A failed swap-out stores nothing and demotes nothing it cannot fit.
        assert space.describe()["cpu_blocks"] == before["cpu_blocks"]
        assert space.describe()["disk_blocks"] == before["disk_blocks"]

    def test_swap_in_pool_exhaustion_keeps_handle(self):
        alloc = make_allocator(capacity=2)
        space = SwapSpace(alloc)
        handle = space.swap_out(fill_blocks(alloc, 2))
        # Pool still full (refs not dropped): swap-in cannot allocate.
        with pytest.raises(CapacityError):
            space.swap_in(handle)
        assert space.cpu_blocks == 2  # handle still parked
        assert alloc.num_allocated == 2  # no leaked partial allocations

    def test_shared_blocks_are_pinned_not_copied(self):
        """Swap-out of a shared block keeps it GPU-resident by reference."""
        alloc = make_allocator()
        space = SwapSpace(alloc, cpu_capacity_blocks=1)  # room for 1 stored block
        own, shared = fill_blocks(alloc, 2)
        alloc.incref(shared)  # someone else (a prefix cache) holds it too
        handle = space.swap_out([own, shared])
        assert handle.stored_blocks == 1 and handle.pinned_blocks == 1
        assert space.cpu_blocks == 1  # the pinned block occupies no tier room
        assert alloc.refcount(shared) == 3  # other holder + caller + pin
        alloc.decref(own)
        alloc.decref(shared)  # the caller releases its table
        new_ids = space.swap_in(handle)
        assert new_ids[1] == shared  # the very same block comes back
        assert alloc.refcount(shared) == 2  # other holder + restored table
        assert alloc.refcount(new_ids[0]) == 1

    def test_discard_releases_pins(self):
        alloc = make_allocator()
        space = SwapSpace(alloc)
        (shared,) = fill_blocks(alloc, 1)
        alloc.incref(shared)
        handle = space.swap_out([shared])
        alloc.decref(shared)  # caller's table reference
        assert alloc.refcount(shared) == 2  # other holder + pin
        space.discard(handle)
        assert alloc.refcount(shared) == 1  # pin released

    def test_materialize_pins_copies_and_unpins(self):
        alloc = make_allocator()
        space = SwapSpace(alloc)
        (shared,) = fill_blocks(alloc, 1)
        keys = alloc.block_keys(shared).copy()
        alloc.incref(shared)
        handle = space.swap_out([shared])
        alloc.decref(shared)
        assert space.materialize_pins(handle) == (1, 0)  # to cpu, to disk
        assert handle.pinned_blocks == 0 and handle.stored_blocks == 1
        assert alloc.refcount(shared) == 1  # pin gone; other holder remains
        alloc.decref(shared)  # other holder drops it; block id recycled
        new_ids = space.swap_in(handle)
        assert np.array_equal(alloc.block_keys(new_ids[0]), keys)

    def test_discard_and_validation(self):
        alloc = make_allocator()
        space = SwapSpace(alloc)
        handle = space.swap_out(fill_blocks(alloc, 2))
        space.discard(handle)
        assert space.cpu_blocks == 0
        assert space.stats.discarded == 2
        space.discard(handle)  # idempotent
        with pytest.raises(ConfigurationError):
            space.swap_out([], tier="tape")
        with pytest.raises(ConfigurationError):
            SwapSpace(alloc, cpu_capacity_blocks=-1)

    @pytest.mark.parametrize("tier", ["cpu", "disk"])
    def test_negative_capacity_rejected(self, tier):
        with pytest.raises(ConfigurationError):
            SwapSpace(make_allocator(), **{f"{tier}_capacity_blocks": -1})

    @pytest.mark.parametrize("dtype_bytes", WIDTHS)
    def test_round_trip_at_every_width(self, dtype_bytes):
        # The pool's modelled width sizes the transfer, never the contents.
        alloc = make_allocator(dtype_bytes=dtype_bytes)
        ids = fill_blocks(alloc, 2, seed=dtype_bytes)
        keys = [alloc.block_keys(b).copy() for b in ids]
        values = [alloc.block_values(b).copy() for b in ids]
        space = SwapSpace(alloc)
        handle = space.swap_out(ids)
        assert handle.stored_blocks * alloc.block_nbytes() == 2 * alloc.block_nbytes()
        for bid in ids:
            alloc.decref(bid)
        new_ids = space.swap_in(handle)
        for new_id, k, v in zip(new_ids, keys, values):
            assert alloc.block_keys(new_id).tobytes() == k.tobytes()
            assert alloc.block_values(new_id).tobytes() == v.tobytes()
        stats = space.stats
        assert stats.swapped_out_logical_bytes == stats.swapped_in_logical_bytes
        # keys + values x 2 layers x 2 heads x 4 tokens x 8 dims, 2 blocks
        assert stats.swapped_in_logical_bytes == 2 * 2 * 2 * 2 * 4 * 8 * dtype_bytes

    @pytest.mark.parametrize("tier", ["cpu", "disk"])
    def test_round_trip_from_either_tier(self, tier):
        alloc = make_allocator()
        ids = fill_blocks(alloc, 2, seed=4)
        keys = [alloc.block_keys(b).copy() for b in ids]
        space = SwapSpace(alloc)
        handle = space.swap_out(ids, tier=tier)
        assert handle.tier == tier
        assert (space.cpu_blocks, space.disk_blocks) == (
            (2, 0) if tier == "cpu" else (0, 2)
        )
        for bid in ids:
            alloc.decref(bid)
        new_ids = space.swap_in(handle)
        assert space.cpu_blocks == space.disk_blocks == 0
        for new_id, k in zip(new_ids, keys):
            assert np.array_equal(alloc.block_keys(new_id), k)

    def test_demoted_handle_restores_bitwise(self):
        # CPU→disk demotion relabels the parked blocks; it never re-parks them.
        alloc = make_allocator()
        ids = fill_blocks(alloc, 2, seed=5)
        keys = [alloc.block_keys(b).copy() for b in ids]
        space = SwapSpace(alloc, cpu_capacity_blocks=2)
        first = space.swap_out(ids)
        parked = list(first.host_ids)
        space.swap_out(fill_blocks(alloc, 2, seed=6))
        assert first.tier == "disk"
        assert first.host_ids == parked
        assert space.host.num_allocated == 4
        for bid in ids:
            alloc.decref(bid)
        new_ids = space.swap_in(first)
        for new_id, k in zip(new_ids, keys):
            assert np.array_equal(alloc.block_keys(new_id), k)
        assert space.stats.swapped_in_logical_bytes == first.stored_blocks * alloc.block_nbytes()


# ------------------------------------------------------------ byte billing


def dirty_free_blocks(alloc, n, seed=99):
    """Put ``n`` blocks of garbage rows on ``alloc``'s free list."""
    for block_id in fill_blocks(alloc, n, seed=seed):
        alloc.decref(block_id)


def block_rows(alloc, block_ids):
    return [(alloc.block_keys(b).copy(), alloc.block_values(b).copy())
            for b in block_ids]


def assert_same_rows(got, want):
    assert len(got) == len(want)
    for (keys, values), (want_keys, want_values) in zip(got, want):
        assert np.array_equal(keys, want_keys)
        assert np.array_equal(values, want_values)


class TestWholeBlockCopiesIntoRecycledIds:
    """A copy that writes a whole block takes a recycled id without zeroing
    it first; the block must hold exactly the source rows afterwards."""

    def test_copy_on_write(self):
        alloc = make_allocator()
        (source,) = fill_blocks(alloc, 1)
        dirty_free_blocks(alloc, 1)
        free = alloc._free[-1]
        copy = alloc.copy_block(source)
        assert copy == free
        assert_same_rows(block_rows(alloc, [copy]), block_rows(alloc, [source]))

    def test_park_into_recycled_host_blocks(self):
        alloc = make_allocator()
        space = SwapSpace(alloc)
        kept = space.swap_out(fill_blocks(alloc, 2, seed=1))  # keeps the host live
        space.host.decref(space.host.allocate())              # one clean free block
        dirty = space.swap_out(fill_blocks(alloc, 3, seed=2))
        space.discard(dirty)                                  # three dirty ones
        chain = fill_blocks(alloc, 3, seed=3)
        want = block_rows(alloc, chain)
        handle = space.swap_out(chain)
        assert set(handle.host_ids) <= set(dirty.host_ids)
        assert_same_rows(block_rows(space.host, handle.host_ids), want)
        for block_id in chain:
            alloc.decref(block_id)
        assert_same_rows(block_rows(alloc, space.swap_in(handle)), want)
        space.discard(kept)

    def test_swap_in_into_recycled_pool_blocks(self):
        alloc = make_allocator()
        space = SwapSpace(alloc)
        chain = fill_blocks(alloc, 3, seed=4)
        want = block_rows(alloc, chain)
        handle = space.swap_out(chain)
        for block_id in chain:
            alloc.decref(block_id)
        dirty_free_blocks(alloc, 3)  # the same ids, now holding garbage
        restored = space.swap_in(handle)
        assert sorted(restored) == sorted(chain)
        assert_same_rows(block_rows(alloc, restored), want)

    def test_import_chain_into_recycled_pool_blocks(self):
        source = make_allocator(block_size=32)
        cache = PrefixCache(SwapSpace(source))
        tokens = list(range(96))
        paged = fill_chain(source, tokens)
        cache.insert(tokens, paged.table.block_ids)
        want = block_rows(source, paged.table.block_ids)
        paged.release()
        exported = cache.export_chain(tokens)
        target_alloc = make_allocator(block_size=32)
        target = PrefixCache(SwapSpace(target_alloc))
        dirty_free_blocks(target_alloc, 3)
        assert target.import_chain(exported) == 3
        match = target.match(tokens)
        assert target_alloc.num_free == 0  # every imported block was recycled
        assert_same_rows(block_rows(target_alloc, match.block_ids), want)

    def test_appends_still_get_zeroed_blocks(self):
        alloc = make_allocator()
        dirty_free_blocks(alloc, 2)
        paged = PagedKVCache(alloc)
        paged[0].append(np.ones((2, 1, 8)), np.ones((2, 1, 8)))
        (block_id,) = paged.table.block_ids
        assert np.all(alloc.block_keys(block_id)[:, :, 1:] == 0.0)
        assert np.all(alloc.block_values(block_id)[1] == 0.0)


class TestHostStoreShrinks:
    def test_host_planes_drop_once_nothing_is_parked(self):
        alloc = make_allocator()
        space = SwapSpace(alloc)
        first = space.swap_out(fill_blocks(alloc, 3, seed=1))
        second = space.swap_out(fill_blocks(alloc, 2, seed=2))
        space.discard(first)
        assert space.host.layer_planes(0)[0].shape[1] >= 2 * alloc.block_size
        space.swap_in(second)
        assert space.host.num_allocated == 0
        assert space.host.layer_planes(0)[0].shape[1] == 0
        # and it grows again from nothing
        chain = fill_blocks(alloc, 2, seed=3)
        want = block_rows(alloc, chain)
        handle = space.swap_out(chain)
        assert handle.host_ids == [0, 1]
        assert_same_rows(block_rows(space.host, handle.host_ids), want)

    def test_engine_host_store_empties_after_prefix_cache_clear(self):
        """Eight 100-token requests through a 28-block pool (block size 8)
        with swap preemption park and spill rows in the host store; once the
        prefix cache is cleared nothing is parked and its planes are gone."""
        config = ModelConfig(num_layers=2, hidden_dim=32, num_heads=4,
                             num_kv_heads=2, ffn_dim=64, vocab_size=128,
                             name="host-shrink")
        model = TransformerLM(config, seed=7)
        rng = np.random.default_rng(21)
        engine = InferenceEngine(model, EngineConfig(
            scheduler=SchedulerConfig(max_batch_size=4, max_prefill_chunk_tokens=32,
                                      preemption_mode="swap"),
            pool=PoolConfig(block_size=8, blocks=28),
            max_retained_outputs=0,
        ))
        engine.run([
            Request(prompt_ids=rng.integers(4, 128, size=100).tolist(),
                    sampling=SamplingParams(max_new_tokens=4))
            for _ in range(8)
        ])
        host = engine.swap_space.host
        assert engine.metrics.swap_out_blocks > 0
        assert host.layer_planes(0)[0].shape[1] > 0
        engine.prefix_cache.clear()
        assert host.num_allocated == 0
        assert host.layer_planes(0)[0].shape[1] == 0


class TestSwapSpaceCodec:
    def test_logical_counters(self):
        alloc = make_allocator()
        space = SwapSpace(alloc)
        handle = space.swap_out(fill_blocks(alloc, 2))
        stats = space.stats
        logical = handle.stored_blocks * alloc.block_nbytes()
        assert logical == 2 * alloc.block_nbytes()  # keys+values, 2 blocks
        assert stats.swapped_out_logical_bytes == logical
        space.swap_in(handle)
        assert stats.swapped_in_logical_bytes == logical

    def test_host_store_has_the_pool_geometry(self):
        # A parked block is a host-store block of the pool's geometry and
        # modelled width, billed at the pool's ``block_nbytes``.
        alloc = BlockAllocator(2, 2, 8, block_size=4, dtype_bytes=4)
        space = SwapSpace(alloc)
        ids = fill_blocks(alloc, 2)
        handle = space.swap_out(ids)
        assert space.host.block_nbytes() == alloc.block_nbytes()
        assert space.stats.swapped_out_logical_bytes == 2 * alloc.block_nbytes()
        for host_id, block_id in zip(handle.host_ids, ids):
            parked = space.host.block_keys(host_id)
            assert parked.shape == alloc.block_keys(block_id).shape
            assert parked.tobytes() == alloc.block_keys(block_id).tobytes()

    def test_demotion_tracks_bytes(self):
        alloc = make_allocator()
        space = SwapSpace(alloc, cpu_capacity_blocks=2)
        first = space.swap_out(fill_blocks(alloc, 2, seed=1))
        space.swap_out(fill_blocks(alloc, 2, seed=2))
        assert first.tier == "disk"
        assert space.stats.demoted_logical_bytes == first.stored_blocks * alloc.block_nbytes()

    def test_materialize_pins_bills_bytes(self):
        alloc = make_allocator()
        (shared,) = fill_blocks(alloc, 1)
        alloc.incref(shared)
        space = SwapSpace(alloc)
        handle = space.swap_out([shared])
        assert space.stats.swapped_out_logical_bytes == 0  # pin moved nothing
        alloc.decref(shared)
        space.materialize_pins(handle)
        assert space.stats.swapped_out_logical_bytes == alloc.block_nbytes()
        assert handle.stored_blocks * alloc.block_nbytes() == alloc.block_nbytes()

    def test_describe_reports_bytes(self):
        alloc = make_allocator()
        space = SwapSpace(alloc)
        space.swap_out(fill_blocks(alloc, 1))
        info = space.describe()
        assert info["swapped_out_logical_bytes"] == alloc.block_nbytes()

    def test_stored_bytes_count_only_stored_positions(self):
        # A pinned shared block moves nothing, so it bills nothing.
        alloc = make_allocator()
        own, shared = fill_blocks(alloc, 2)
        alloc.incref(shared)
        space = SwapSpace(alloc)
        handle = space.swap_out([own, shared])
        assert handle.host_ids[1] is None and handle.pinned_ids[1] == shared
        assert handle.stored_blocks * alloc.block_nbytes() == alloc.block_nbytes()
        assert space.stats.swapped_out_logical_bytes == alloc.block_nbytes()
        alloc.decref(own)
        alloc.decref(shared)
        space.swap_in(handle)
        assert space.stats.swapped_in_logical_bytes == alloc.block_nbytes()


# ------------------------------------------------- occupancy, by property


def check_occupancy(space):
    """Both tier counters equal a recount over the live handles, and
    together they are the host store's live blocks."""
    live = list(space._handles)
    for tier, counted in (("cpu", space.cpu_blocks), ("disk", space.disk_blocks)):
        assert counted == sum(h.stored_blocks for h in live if h.tier == tier)
    assert space.cpu_blocks + space.disk_blocks == space.host.num_allocated


OPS = st.lists(
    st.tuples(
        st.sampled_from(["cpu", "disk", "demote", "materialize", "swap_in", "discard"]),
        st.integers(0, 2**16),
    ),
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_tier_counters_follow_every_move(ops):
    """Random swap-outs (either tier, chains mixing owned and shared
    blocks), demotions, pin materialisations, swap-ins and discards: after
    each step the counters match the handles, every swap-in restores the
    rows parked, and once every handle is consumed the pool refcounts are
    back where they started and the host store is empty."""
    alloc = make_allocator()
    space = SwapSpace(alloc, cpu_capacity_blocks=5, disk_capacity_blocks=9)
    shared = fill_blocks(alloc, 4, seed=1)  # held by someone else throughout
    start = {block_id: alloc.refcount(block_id) for block_id in shared}
    parked = {}  # handle -> the rows of its chain when it was swapped out

    def consume(handle, restore):
        if restore:
            new_ids = space.swap_in(handle)
            for block_id, keys in zip(new_ids, parked.pop(handle)):
                assert alloc.block_keys(block_id).tobytes() == keys
                alloc.decref(block_id)  # the restored table is released
        else:
            parked.pop(handle)
            space.discard(handle)

    for op, draw in ops:
        rng = np.random.default_rng(draw)
        handles = list(parked)
        if op in ("cpu", "disk"):
            chain = fill_blocks(alloc, int(rng.integers(0, 4)), seed=draw)
            for block_id in rng.choice(shared, int(rng.integers(0, 3)), replace=False):
                alloc.incref(int(block_id))  # the caller's table shares it
                chain.insert(int(rng.integers(len(chain) + 1)), int(block_id))
            rows = [alloc.block_keys(b).tobytes() for b in chain]
            try:
                parked[space.swap_out(chain, tier=op)] = rows
            except CapacityError:
                pass
            for block_id in chain:
                alloc.decref(block_id)  # the caller releases its table
        elif op == "demote":
            try:
                space._make_room_on_cpu(int(rng.integers(1, 6)))
            except CapacityError:
                pass
        elif handles:
            if op == "materialize":  # a handle with pins, if there is one
                handles = [h for h in handles if h.pinned_blocks] or handles
            handle = handles[int(rng.integers(len(handles)))]
            if op == "materialize":
                to_cpu, to_disk = space.materialize_pins(handle)
                assert to_cpu + to_disk <= handle.stored_blocks
            else:
                consume(handle, restore=op == "swap_in")
        check_occupancy(space)

    for index, handle in enumerate(list(parked)):
        consume(handle, restore=index % 2 == 0)
        check_occupancy(space)
    assert {b: alloc.refcount(b) for b in shared} == start
    assert alloc.num_allocated == len(shared)
    assert space.host.num_allocated == 0


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

    def test_migration_links_disk_then_pcie(self, latency):
        timeline = latency.migration_timeline(1e6, disk_bytes=5e5)
        assert len(timeline) == 2  # no CPU stage: the disk read, then PCIe
        assert timeline["swap-h2d"].depends_on == ("swap-disk-read",)
        assert latency.migration_seconds(1e6, 5e5) == latency.swap_in_seconds(1e6, 5e5)

    @pytest.mark.parametrize("kv_bytes, disk_bytes", [
        (1e6, 0.0), (1e6, 5e5), (0.0, 5e5), (0.0, 0.0),
    ])
    @pytest.mark.parametrize("kind", ["swap_out", "swap_in", "migration"])
    def test_parking_timelines_are_serial_links_only(
        self, latency, kind, kv_bytes, disk_bytes
    ):
        """Parking is a copy: every tier transition is its PCIe leg and its
        NVMe leg in series, with no compute stage on either end."""
        timeline = getattr(latency, f"{kind}_timeline")(kv_bytes, disk_bytes)
        links = {Resource.D2H, Resource.H2D, Resource.DISK}
        assert {task.resource for task in timeline.tasks} <= links
        assert len(timeline) == (kv_bytes > 0) + (disk_bytes > 0)
        hardware = latency.hardware
        pcie = hardware.interconnect.transfer_seconds(kv_bytes) if kv_bytes else 0.0
        storage = hardware.storage
        disk_leg = storage.write_seconds if kind == "swap_out" else storage.read_seconds
        disk = disk_leg(disk_bytes) if disk_bytes else 0.0
        assert timeline.makespan == pytest.approx(pcie + disk)
        seconds = getattr(latency, f"{kind}_seconds")(kv_bytes, disk_bytes)
        assert seconds == timeline.makespan

    @pytest.mark.parametrize("leg", ["kv", "disk"])
    @pytest.mark.parametrize("kind", ["swap_out", "swap_in", "migration"])
    def test_negative_bytes_rejected(self, latency, kind, leg):
        kv_bytes, disk_bytes = (-1.0, 0.0) if leg == "kv" else (1.0, -1.0)
        with pytest.raises(ConfigurationError):
            getattr(latency, f"{kind}_timeline")(kv_bytes, disk_bytes)


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
        space = SwapSpace(alloc)
        cache = PrefixCache(space)
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
        assert cache.stats.spilled_payload_bytes >= snap.nbytes(alloc.dtype_bytes)

        match = cache.match(tokens, fingerprint="fp")
        assert match is not None and match.matched_tokens == 16
        assert match.pq_snapshot is snap
        assert cache.stats.restored_blocks == 4
        assert space.disk_blocks == 0
        for new_id, old_id in zip(match.block_ids, order):
            assert np.array_equal(alloc.block_keys(new_id), originals[old_id])

    @pytest.mark.parametrize("dtype_bytes", WIDTHS)
    def test_spill_restore_is_bitwise_and_billed_at_every_width(self, dtype_bytes):
        alloc = make_allocator(capacity=8, dtype_bytes=dtype_bytes)
        space = SwapSpace(alloc)
        cache = PrefixCache(space)
        tokens = list(range(16))
        paged = fill_chain(alloc, tokens, seed=dtype_bytes)
        originals = [
            (alloc.block_keys(b).copy(), alloc.block_values(b).copy())
            for b in paged.table.block_ids
        ]
        cache.insert(tokens, paged.table.block_ids)
        paged.release()
        assert cache.evict(4) == 4
        block = alloc.block_nbytes()
        assert cache.stats.spilled_blocks == 4
        assert space.stats.swapped_out_logical_bytes == 4 * block
        match = cache.match(tokens)
        assert match is not None and match.matched_tokens == 16
        assert cache.stats.restored_blocks == 4
        assert space.stats.swapped_in_logical_bytes == 4 * block
        for new_id, (keys, values) in zip(match.block_ids, originals):
            assert alloc.block_keys(new_id).tobytes() == keys.tobytes()
            assert alloc.block_values(new_id).tobytes() == values.tobytes()

    def test_reinsert_readopts_spilled_nodes_without_disk_read(self):
        alloc = make_allocator(capacity=8)
        space = SwapSpace(alloc)
        cache = PrefixCache(space)
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
        space = SwapSpace(alloc, disk_capacity_blocks=1)
        cache = PrefixCache(space)
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
        space = SwapSpace(alloc, disk_capacity_blocks=1)
        cache = PrefixCache(space)
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
        space = SwapSpace(alloc)
        cache = PrefixCache(space)
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


def residency(cache):
    """The index as ``((key, spilled), ...)`` in insertion order."""
    return tuple((key, node.spilled) for key, node in cache._nodes.items())


def transitions(before, after):
    """Residency transitions between two :func:`residency` snapshots."""
    old, new = dict(before), dict(after)
    kinds = {"evict"} if old.keys() - new.keys() else set()
    for key, spilled in new.items():
        if key not in old:
            kinds.add("insert")
        elif spilled != old[key]:
            kinds.add("spill" if spilled else "restore")
    return kinds


def churn(evict_of, seed, steps=400):
    """Seeded insert/match/evict churn; returns the cache, the residency
    after every operation, and every victim the walk took, in order.

    ``evict_of(cache)`` supplies the walk under test — it serves both the
    explicit evictions and the allocator's eviction hook, so the re-entrant
    calls a restore's own allocation fires go through it too.  A 6-block disk
    tier under a 24-block pool makes spill, hard eviction and the stuck
    "drop the coldest spilled leaf" branch all fire.  Victims are recorded by
    wrapping this cache's own ``_spill`` / ``_remove``, which both walks call.
    """
    rng = np.random.default_rng(seed)
    alloc = make_allocator(capacity=24)
    space = SwapSpace(alloc, disk_capacity_blocks=6)
    cache = PrefixCache(space)
    victims = []
    for name in ("_spill", "_remove"):
        def record(node, _step=getattr(cache, name), _name=name):
            victims.append((_name, node.key))
            return _step(node)
        setattr(cache, name, record)
    evict = evict_of(cache)
    alloc.eviction_hook = evict
    block = alloc.block_size
    roots = [rng.integers(0, 50, size=2 * block).tolist() for _ in range(3)]
    prompts, held, states = [], [], []
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
        states.append(residency(cache))
    return cache, states, victims


class TestEvictWalkAgainstOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_same_victims_same_order_same_counters(self, seed):
        cache, states, victims = churn(lambda cache: cache.evict, seed)
        ref_cache, ref_states, ref_victims = churn(
            lambda cache: lambda n=1: evict_walk_oracle.evict(cache, n), seed
        )
        stats = cache.stats
        # The churn must reach every branch of the walk, or it proves nothing.
        assert stats.spilled_blocks > 0 and stats.restored_blocks > 0
        assert stats.evicted_blocks > 0 and stats.dropped_spilled_blocks > 0
        assert victims == ref_victims
        assert states == ref_states
        seen = set().union(*map(transitions, [()] + states, states))
        assert seen == {"insert", "spill", "restore", "evict"}
        assert stats == ref_cache.stats
        assert list(cache._nodes) == list(ref_cache._nodes)


# ----------------------------------- export / restore double-billing guard


@pytest.fixture()
def restores(monkeypatch):
    """Every handle a swap space brought back into a pool, in order."""
    calls = []
    swap_in = SwapSpace.swap_in

    def recording(space, handle):
        calls.append(handle)
        return swap_in(space, handle)

    monkeypatch.setattr(SwapSpace, "swap_in", recording)
    return calls


def counting_allocations(alloc):
    """Record every block ``alloc`` hands out from now on."""
    handed_out = []
    allocate = alloc.allocate

    def counting(*args, **kwargs):
        handed_out.append(allocate(*args, **kwargs))
        return handed_out[-1]

    alloc.allocate = counting
    return handed_out


class TestExportedSpillBilling:
    def _spilled_cache(self, capacity=8, tokens=128):
        alloc = make_allocator(capacity=capacity, block_size=32)
        space = SwapSpace(alloc)
        cache = PrefixCache(space)
        token_ids = list(range(tokens))
        paged = fill_chain(alloc, token_ids)
        cache.insert(token_ids, paged.table.block_ids)
        paged.release()
        cache.evict(tokens // alloc.block_size)
        return alloc, space, cache, token_ids

    def test_export_ships_parked_form_without_restore(self, restores):
        """Exporting a spilled chain must not read it back through NVMe.

        The exported nodes carry copies of the parked host rows — no
        restore on the owner, no restore-counter mutation — so a later
        local restore of the same chain bills its disk read exactly once.
        """
        alloc, space, cache, tokens = self._spilled_cache()
        assert cache.num_spilled == 4
        exported = cache.export_chain(tokens)
        assert exported is not None and exported.disk_blocks == 4
        # Read off the host store as they lie: zero swap-ins, zero restores.
        assert restores == []
        assert cache.stats.restored_blocks == 0
        assert space.disk_blocks == 4  # owner copy still parked
        # A later local restore of the very same chain bills once, normally.
        match = cache.match(tokens)
        assert match is not None and match.matched_tokens == len(tokens)
        assert cache.stats.restored_blocks == 4
        assert len(restores) == 4

    def test_import_writes_each_block_exactly_once(self):
        alloc, space, cache, tokens = self._spilled_cache()
        exported = cache.export_chain(tokens)
        target_alloc = make_allocator(capacity=8, block_size=32)
        target = PrefixCache(SwapSpace(target_alloc))
        handed_out = counting_allocations(target_alloc)
        written = target.import_chain(exported)
        assert written == 4
        assert len(handed_out) == written  # one pool block per imported block
        assert target.spill_store.host.num_allocated == 0  # nothing parked

    @pytest.mark.parametrize("spilled", range(5))
    def test_mixed_chain_exports_parked_copies_and_imports_bitwise(
        self, spilled, restores
    ):
        """Whatever share of the chain is spilled, export copies the parked
        host rows as they lie and the resident pool rows, each block at the
        pool's geometry, and the importer reproduces the chain."""
        alloc = make_allocator(capacity=8, block_size=32)
        space = SwapSpace(alloc)
        cache = PrefixCache(space)
        tokens = list(range(128))
        paged = fill_chain(alloc, tokens)
        contents = [
            (alloc.block_keys(b).copy(), alloc.block_values(b).copy())
            for b in paged.table.block_ids
        ]
        cache.insert(tokens, paged.table.block_ids)
        paged.release()
        assert cache.evict(spilled) == spilled
        nodes = [cache._nodes[key] for key in chain_block_keys(tokens, 32)]

        exported = cache.export_chain(tokens)
        assert (exported.num_blocks, exported.disk_blocks) == (4, spilled)
        assert restores == [] and cache.stats.restored_blocks == 0
        for node, record in zip(nodes, exported.nodes):
            assert record.from_disk == node.spilled
            store, block_id = (
                (space.host, node.spill_handle.host_ids[0]) if node.spilled
                else (alloc, node.block_id)
            )
            for array, rows in ((record.keys, store.block_keys(block_id)),
                                (record.values, store.block_values(block_id))):
                assert array.shape == (2, 2, 32, 8)  # (layers, h_kv, block, d_h)
                assert array.tobytes() == rows.tobytes()
                assert not np.shares_memory(array, rows)  # a copy, not a view

        target_alloc = make_allocator(capacity=8, block_size=32)
        target = PrefixCache(SwapSpace(target_alloc))
        assert target.import_chain(exported) == 4
        match = target.match(tokens)
        assert match is not None and match.matched_tokens == len(tokens)
        for new_id, (keys, values) in zip(match.block_ids, contents):
            assert target_alloc.block_keys(new_id).tobytes() == keys.tobytes()
            assert target_alloc.block_values(new_id).tobytes() == values.tobytes()


class TestPayloadBilledAtModelledWidth:
    """Artifact payloads (accumulated scores, PQ codebooks) are billed at
    the allocator's ``dtype_bytes`` per float element and PQ codes at their
    integer width — never at the host array's dtype."""

    FLOATS = [np.float64, np.float32, np.float16]

    def _payload(self, float_dtype, tokens=16):
        acc = [np.ones((2, tokens), dtype=float_dtype) for _ in range(2)]
        snap = PQSnapshot(
            codebooks=[np.zeros((2, 2, 4, 4), dtype=float_dtype)] * 2,
            codes=[np.zeros((tokens, 2, 2), dtype=np.uint8)] * 2,
            num_tokens=tokens, sketch_upto=tokens, fingerprint="fp",
        )
        return acc, snap

    @staticmethod
    def _expected(dtype_bytes, tokens=16):
        acc = 2 * (2 * tokens) * dtype_bytes
        codebooks = 2 * (2 * 2 * 4 * 4) * dtype_bytes
        codes = 2 * (tokens * 2 * 2)
        return acc, codebooks + codes

    @pytest.mark.parametrize("dtype_bytes", WIDTHS)
    @pytest.mark.parametrize("float_dtype", FLOATS)
    def test_snapshot_nbytes(self, dtype_bytes, float_dtype):
        _, snap = self._payload(float_dtype)
        assert snap.nbytes(dtype_bytes) == self._expected(dtype_bytes)[1]

    @pytest.mark.parametrize("dtype_bytes", WIDTHS)
    @pytest.mark.parametrize("float_dtype", FLOATS)
    def test_spill_restore_and_export_bill_modelled_width(
        self, dtype_bytes, float_dtype
    ):
        alloc = make_allocator(capacity=8, dtype_bytes=dtype_bytes)
        cache = PrefixCache(SwapSpace(alloc))
        alloc.eviction_hook = cache.evict
        tokens = list(range(16))
        paged = fill_chain(alloc, tokens)
        acc, snap = self._payload(float_dtype)
        cache.insert(tokens, paged.table.block_ids, acc_boundary=16,
                     acc_scores=acc, pq_fingerprint="fp", pq_snapshot=snap)
        paged.release()
        acc_bytes, snap_bytes = self._expected(dtype_bytes)

        exported = cache.export_chain(tokens)
        assert exported.payload_nbytes() == acc_bytes + snap_bytes

        assert cache.evict(4) == 4
        assert cache.stats.spilled_payload_bytes == acc_bytes + snap_bytes
        assert cache.match(tokens, fingerprint="fp").matched_tokens == 16
        assert cache.stats.restored_payload_bytes == acc_bytes + snap_bytes


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
        # no disk room: the hard eviction path
        cache = PrefixCache(SwapSpace(alloc, disk_capacity_blocks=0))
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
        cache = PrefixCache(SwapSpace(alloc))
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
        cache = PrefixCache(SwapSpace(alloc))
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

        tokens = list(range(16))  # 4 blocks
        shallow, deep, deepest = (make_snapshot(num_tokens=n) for n in (8, 12, 16))

        source_alloc = make_allocator(capacity=8)
        source = PrefixCache(SwapSpace(source_alloc))
        source_chain = fill_chain(source_alloc, tokens, seed=1)
        source.insert(tokens, source_chain.table.block_ids,
                      pq_fingerprint="fp", pq_snapshot=deep)
        exported = source.export_chain(tokens)
        assert deep.hold_count == 4  # the source's own nodes, throughout

        alloc = make_allocator(capacity=8)
        cache = PrefixCache(SwapSpace(alloc))
        chain_keys = chain_block_keys(tokens, alloc.block_size)

        # insert (shallow) -> spill -> import (deep) heals all four nodes.
        paged = fill_chain(alloc, tokens, seed=1)
        assert cache.insert(tokens, paged.table.block_ids,
                            pq_fingerprint="fp", pq_snapshot=shallow) == 4
        paged.release()
        nodes = [cache._nodes[key] for key in chain_keys]
        assert cache.evict(4) == 4 and cache.num_spilled == 4
        assert cache.coverage(chain_keys) == PrefixCoverage(0, 4)
        assert cache._spilled_snapshot_ids == {id(shallow)}
        assert cache.import_chain(exported) == 4
        assert cache.num_spilled == 0 and cache.spill_store.disk_blocks == 0
        assert (cache.stats.imported_blocks, cache.stats.readopted_blocks) == (4, 0)
        assert cache.coverage(chain_keys) == PrefixCoverage(4, 4)
        assert [cache._nodes[key] for key in chain_keys] == nodes  # healed
        assert shallow.hold_count == 0 and deep.hold_count == 4 + 4
        assert cache._spilled_snapshot_ids == set()

        # spill -> insert (deepest) re-adopts the same four nodes.
        assert cache.evict(4) == 4 and cache.num_spilled == 4
        assert cache.coverage(chain_keys) == PrefixCoverage(0, 4)
        assert cache._spilled_snapshot_ids == {id(deep)}
        paged = fill_chain(alloc, tokens, seed=1)
        assert cache.insert(tokens, paged.table.block_ids,
                            pq_fingerprint="fp", pq_snapshot=deepest) == 0
        assert cache.num_spilled == 0 and cache.spill_store.disk_blocks == 0
        assert (cache.stats.imported_blocks, cache.stats.readopted_blocks) == (4, 4)
        assert cache.coverage(chain_keys) == PrefixCoverage(4, 4)
        assert [cache._nodes[key] for key in chain_keys] == nodes  # never re-created
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
