"""Key-Value cache: token blocks drawn from a refcounted pool.

The KVCache is the central object that PQCache manages.  Its storage is
fixed-size token *blocks* drawn from a refcounted :class:`BlockAllocator`
(vLLM-style).  A :class:`BlockTable` maps logical token positions to
physical blocks, blocks can be shared between caches (a forked table increfs
them), and writes into a shared block copy it first (copy-on-write) — which
is what lets the serving engine's prefix cache reuse a common prompt prefix
across requests without ever letting one request corrupt another's view.
One store, read through the table: the blocks are the only copy of a
cache's KV.

A :class:`KVCache` built from its geometry (``TransformerLM.prefill``'s
result, a caller's own precomputed prefill) draws from a private, unbounded
pool of its own, allocated in order, so its reads are views.  A
:class:`PagedKVCache` is the same cache over a pool shared with other
requests (the serving engine's).  Every layer of either is a
:class:`LayerKVCache`.

The paper's three-way segmentation of the token axis (initial tokens,
middle tokens, local tokens — §3.4) is :class:`TokenSegments`.

Tiered placement (GPU ↔ CPU pinned ↔ disk)
------------------------------------------
The block pool models *GPU* residency.  Below it, a :class:`SwapSpace` keeps
one *host store*: a private, unbounded :class:`BlockAllocator` with the
pool's plane geometry, whose blocks carry the parked KV of both lower tiers.
Residency is an attribute, not a copy format: a parked chain is a
:class:`SwappedBlocks` handle listing host block ids (and the pool blocks it
pins), tagged ``cpu`` or ``disk``.  Swap-out copies a chain's rows from the
pool planes into host blocks (demoting the oldest CPU handles to disk when
the CPU tier fills) and the caller frees the pool blocks; swap-in copies the
rows back into fresh pool blocks, bitwise.  The same store backs the prefix
cache's disk spill of cold chains and the rows a migrated chain is copied
off.  Exhausting every tier raises :class:`~repro.errors.CapacityError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CapacityError, ConfigurationError, DimensionError
from ..utils import DTYPE

__all__ = [
    "TokenSegments",
    "BlockAllocator",
    "BlockTable",
    "LayerKVCache",
    "KVCache",
    "PagedKVCache",
    "SwappedBlocks",
    "SwapSpace",
]


@dataclass(frozen=True)
class TokenSegments:
    """Partition of the token axis into initial / middle / local segments.

    ``initial`` covers ``[0, num_initial)``, ``local`` covers the most recent
    ``num_local`` tokens, and ``middle`` is everything in between.  Initial
    and local tokens stay GPU-resident and always participate in attention;
    middle tokens are the retrieval candidates.
    """

    seq_len: int
    num_initial: int
    num_local: int

    def __post_init__(self) -> None:
        if self.seq_len < 0:
            raise ConfigurationError("seq_len must be >= 0")
        if self.num_initial < 0 or self.num_local < 0:
            raise ConfigurationError("segment sizes must be >= 0")

    @property
    def middle_range(self) -> tuple[int, int]:
        """The middle segment as a half-open ``(start, stop)`` token range;
        initial is ``[0, start)`` and local ``[stop, seq_len)``."""
        start = min(self.num_initial, self.seq_len)
        return start, max(self.seq_len - self.num_local, start)

    @property
    def initial_indices(self) -> np.ndarray:
        return np.arange(0, self.middle_range[0], dtype=np.int64)

    @property
    def local_indices(self) -> np.ndarray:
        return np.arange(self.middle_range[1], self.seq_len, dtype=np.int64)

    @property
    def middle_indices(self) -> np.ndarray:
        return np.arange(*self.middle_range, dtype=np.int64)

    @property
    def num_middle(self) -> int:
        start, stop = self.middle_range
        return stop - start

    def describe(self) -> dict:
        start, stop = self.middle_range
        return {
            "seq_len": self.seq_len,
            "initial": start,
            "middle": stop - start,
            "local": self.seq_len - stop,
        }


class BlockAllocator:
    """Refcounted pool of fixed-size KV blocks: the serving engine's, shared
    by all its requests, a standalone :class:`KVCache`'s own, or a
    :class:`SwapSpace`'s host store.

    One physical block stores ``block_size`` tokens' keys and values for
    *every* layer — shape ``(num_layers, h_kv, block_size, d_h)`` per tensor —
    so a prefix chain of blocks is layer-agnostic and can be attached to a new
    request wholesale.  Blocks are allocated with refcount 1; sharing
    (:meth:`BlockTable.fork`, the prefix cache) increfs, releases decref, and
    a block whose refcount reaches zero returns to the free list for reuse.

    Block ``b`` is rows ``[b * block_size, (b + 1) * block_size)`` of one
    plane per tensor, ``(num_layers, h_kv, rows, d_h)``.  Growth copies the
    live rows into new planes, so a view of them is only good until the next
    allocation; :meth:`reserve` sizes one growth to a whole step's demand.

    Attributes:
        eviction_hook: optional callable ``(num_blocks) -> int`` invoked when
            an allocation finds the pool exhausted (no free block, capacity
            reached).  The hook should release references (e.g. evict
            prefix-cache entries) and return how many blocks it freed; the
            allocation is retried once afterwards and raises
            :class:`~repro.errors.CapacityError` if the pool is still full.
    """

    def __init__(
        self,
        num_layers: int,
        num_kv_heads: int,
        head_dim: int,
        block_size: int = 64,
        capacity_blocks: int | None = None,
        dtype_bytes: int = 2,
    ) -> None:
        if num_layers <= 0 or num_kv_heads <= 0 or head_dim <= 0:
            raise ConfigurationError(
                "num_layers, num_kv_heads and head_dim must be positive"
            )
        if block_size <= 0:
            raise ConfigurationError("block_size must be positive")
        if capacity_blocks is not None and capacity_blocks <= 0:
            raise ConfigurationError(
                "capacity_blocks must be positive (or None for an unbounded pool)"
            )
        if dtype_bytes not in (1, 2, 4, 8):
            raise ConfigurationError("dtype_bytes must be one of 1, 2, 4, 8")
        #: modelled element width all byte accounting defaults to; the
        #: serving engine sets this from the model config's ``dtype_bytes``
        #: so nothing downstream bills against a hardcoded fp16 baseline
        self.dtype_bytes = dtype_bytes
        self.num_layers = num_layers
        self.num_kv_heads = num_kv_heads
        self.head_dim = head_dim
        self.block_size = block_size
        self.capacity_blocks = capacity_blocks
        self.eviction_hook = None
        self._planes = [self._plane(0), self._plane(0)]  # keys, values
        self._refcounts: dict[int, int] = {}
        self._free: list[int] = []
        self._next_id = 0
        #: lifetime counters (allocations counts fresh + recycled blocks)
        self.allocations = 0
        self.cow_copies = 0

    # ---------------------------------------------------------- accounting

    @property
    def num_allocated(self) -> int:
        """Blocks currently referenced by at least one holder."""
        return len(self._refcounts)

    @property
    def num_free(self) -> int:
        """Recycled blocks immediately available without growing the pool."""
        return len(self._free)

    @property
    def num_available(self) -> int | None:
        """Blocks that could still be handed out (``None`` = unbounded)."""
        if self.capacity_blocks is None:
            return None
        return self.capacity_blocks - self.num_allocated

    def block_nbytes(self, dtype_bytes: "int | None" = None) -> int:
        """Modelled storage cost of one block (defaults to the pool's width)."""
        if dtype_bytes is None:
            dtype_bytes = self.dtype_bytes
        return (
            2 * self.num_layers * self.num_kv_heads * self.block_size
            * self.head_dim * dtype_bytes
        )

    def nbytes(self, dtype_bytes: "int | None" = None) -> int:
        """Modelled storage cost of every live block."""
        return self.num_allocated * self.block_nbytes(dtype_bytes)

    # ---------------------------------------------------------- allocation

    def _plane(self, blocks: int) -> np.ndarray:
        return np.zeros((self.num_layers, self.num_kv_heads,
                         blocks * self.block_size, self.head_dim), dtype=DTYPE)

    def reserve(self, blocks: int) -> None:
        """Make room for ``blocks`` more allocations in at most one growth
        (each growth copies every live row).  Capacity is not checked here:
        allocation still refuses blocks past ``capacity_blocks``."""
        fresh = blocks - len(self._free)
        if fresh > 0:
            self._grow(self._next_id + fresh)

    def _grow(self, blocks: int) -> None:
        """Planes for at least ``blocks`` blocks: the demand plus a quarter of
        headroom, at least double the current size, at most the capacity.
        The new planes are ``np.zeros`` (untouched pages cost no memory) and
        only the live rows are copied."""
        have = self._planes[0].shape[2] // self.block_size
        if blocks <= have:
            return
        size = max(blocks + blocks // 4, 2 * have)
        if self.capacity_blocks is not None:
            size = min(size, self.capacity_blocks)
        rows = have * self.block_size
        planes = [self._plane(size), self._plane(size)]
        for new, old in zip(planes, self._planes):
            new[:, :, :rows] = old
        self._planes = planes

    #: blocks requested from the eviction hook per exhaustion event; freeing
    #: a small batch amortises the hook's scan over the next allocations (a
    #: multi-block admission would otherwise fire it once per block).
    _EVICTION_BATCH = 8

    def allocate(self) -> int:
        """Hand out one block with refcount 1.

        Reuses a freed block when possible; otherwise grows the pool up to
        ``capacity_blocks``.  On exhaustion the :attr:`eviction_hook` gets one
        chance to free blocks before :class:`~repro.errors.CapacityError`.
        """
        block_id = self._try_allocate()
        if block_id is None and self.eviction_hook is not None:
            self.eviction_hook(self._EVICTION_BATCH)
            block_id = self._try_allocate()
        if block_id is None:
            raise CapacityError(
                f"KV block pool exhausted: {self.num_allocated}/"
                f"{self.capacity_blocks} blocks in use and nothing evictable"
            )
        return block_id

    def _try_allocate(self) -> int | None:
        if self._free:
            block_id = self._free.pop()
            for plane in self._planes:
                plane[:, :, self._rows(block_id)] = 0.0
        elif self.capacity_blocks is None or self._next_id < self.capacity_blocks:
            block_id = self._next_id
            self._next_id += 1
            self._grow(self._next_id)
        else:
            return None
        self._refcounts[block_id] = 1
        self.allocations += 1
        return block_id

    def _require_live(self, block_id: int) -> None:
        if block_id not in self._refcounts:
            raise ConfigurationError(f"block {block_id} is not allocated")

    def refcount(self, block_id: int) -> int:
        self._require_live(block_id)
        return self._refcounts[block_id]

    def incref(self, block_id: int) -> None:
        self._require_live(block_id)
        self._refcounts[block_id] += 1

    def decref(self, block_id: int) -> bool:
        """Drop one reference; returns True when the block was freed.

        Raises :class:`~repro.errors.ConfigurationError` on refcount
        underflow (decref of a block that is already free) — that is always a
        double-release bug in the caller, never a recoverable condition.
        """
        self._require_live(block_id)
        count = self._refcounts[block_id] - 1
        if count < 0:  # pragma: no cover - _require_live catches first
            raise ConfigurationError(f"refcount underflow on block {block_id}")
        if count == 0:
            del self._refcounts[block_id]
            self._free.append(block_id)
            return True
        self._refcounts[block_id] = count
        return False

    def copy_block(self, block_id: int) -> int:
        """Copy-on-write helper: clone a block's contents into a fresh block.

        The caller still holds its reference on the source block and is
        expected to :meth:`decref` it after swapping its table entry.
        """
        self._require_live(block_id)
        new_id = self.allocate()
        self.copy_blocks([new_id], self, [block_id])
        self.cow_copies += 1
        return new_id

    def copy_blocks(
        self, block_ids: "list[int]", source: "BlockAllocator", source_ids: "list[int]"
    ) -> None:
        """Write blocks ``source_ids`` of ``source`` (this pool, or one of
        the same geometry) into ``block_ids``, in order: one slice copy per
        plane where both lists are runs of consecutive ids, else one gather."""
        if block_ids:
            rows, source_rows = self._span(block_ids), source._span(source_ids)
            for plane, other in zip(self._planes, source._planes):
                plane[:, :, rows] = other[:, :, source_rows]

    # ------------------------------------------------------------- storage

    def _rows(self, block_id: int) -> slice:
        return slice(block_id * self.block_size, (block_id + 1) * self.block_size)

    def rows(self, block_ids: "list[int]") -> np.ndarray:
        """Plane row of every token slot of ``block_ids``, in order: slot
        ``i`` of block ``b`` at row ``b * block_size + i``."""
        ids = np.asarray(block_ids, dtype=np.int64)
        return (ids[:, None] * self.block_size + np.arange(self.block_size)).ravel()

    def _span(self, block_ids: "list[int]") -> "slice | np.ndarray":
        """:meth:`rows`, as one slice when the ids are a consecutive run."""
        first, size = block_ids[0], self.block_size
        if block_ids == list(range(first, first + len(block_ids))):
            return slice(first * size, (first + len(block_ids)) * size)
        return self.rows(block_ids)

    def block_keys(self, block_id: int) -> np.ndarray:
        """Key storage of a block: ``(num_layers, h_kv, block_size, d_h)``."""
        self._require_live(block_id)
        return self._planes[0][:, :, self._rows(block_id)]

    def block_values(self, block_id: int) -> np.ndarray:
        """Value storage of a block: ``(num_layers, h_kv, block_size, d_h)``."""
        self._require_live(block_id)
        return self._planes[1][:, :, self._rows(block_id)]

    def layer_planes(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """One layer's key and value planes, ``(h_kv, rows, d_h)`` each."""
        return self._planes[0][layer], self._planes[1][layer]


class BlockTable:
    """Ordered mapping of logical token blocks to physical block ids.

    The table *owns* one allocator reference per listed block; :meth:`fork`
    produces a copy-on-write shallow copy (increfs every block), and
    :meth:`release` drops all references exactly once (idempotent).  Its
    plane-row map (:meth:`rows`) is cached: extended by :meth:`append_new`,
    dropped by every other change of the entries.
    """

    def __init__(
        self, allocator: BlockAllocator, block_ids: "list[int] | None" = None
    ) -> None:
        self.allocator = allocator
        self.block_ids: list[int] = list(block_ids or [])
        self._released = False
        self._rows: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.block_ids)

    @property
    def capacity_tokens(self) -> int:
        return len(self.block_ids) * self.allocator.block_size

    @classmethod
    def fork_from(
        cls, allocator: BlockAllocator, block_ids: "list[int]"
    ) -> "BlockTable":
        """Build a table sharing existing blocks (increfs each of them)."""
        for block_id in block_ids:
            allocator.incref(block_id)
        return cls(allocator, list(block_ids))

    def fork(self) -> "BlockTable":
        """Copy-on-write clone of this table."""
        self._require_live()
        return BlockTable.fork_from(self.allocator, self.block_ids)

    def rows(self) -> np.ndarray:
        """Plane row of every token slot the table spans, in token order:
        ``(len(self) * block_size,)``, slot ``i`` of block ``b`` at row
        ``b * block_size + i``."""
        if self._rows is None:
            self._rows = self.allocator.rows(self.block_ids)
        return self._rows

    def append_new(self) -> int:
        """Allocate and append a fresh block; returns its id."""
        self._require_live()
        block_id = self.allocator.allocate()
        self.block_ids.append(block_id)
        if self._rows is not None:
            first = block_id * self.allocator.block_size
            self._rows = np.concatenate(
                [self._rows, np.arange(first, first + self.allocator.block_size)]
            )
        return block_id

    def prepare_write(self, start: int, stop: int) -> None:
        """Own the blocks of tokens ``[start, stop)``: copy the shared ones
        (copy-on-write) and append fresh ones, all after at most one pool
        growth.  Fresh blocks are handed back if the pool runs dry, so the
        table keeps matching the length it had."""
        if start >= stop:
            return
        allocator, block_size = self.allocator, self.allocator.block_size
        end = -(-stop // block_size)
        shared = [
            index for index in range(start // block_size, min(len(self), end))
            if allocator.refcount(self.block_ids[index]) > 1
        ]
        fresh = end - len(self)
        allocator.reserve(len(shared) + max(fresh, 0))
        for index in shared:
            self.replace(index, allocator.copy_block(self.block_ids[index]))
        had = len(self)
        try:
            for _ in range(fresh):
                self.append_new()
        except CapacityError:
            self.truncate(had)
            raise

    def truncate(self, length: int) -> None:
        """Drop the entries past ``length`` and their references."""
        while len(self.block_ids) > length:
            self.allocator.decref(self.block_ids.pop())
        self._rows = None

    def replace(self, index: int, new_block_id: int) -> None:
        """Swap entry ``index`` for an already-owned block (COW bookkeeping).

        The old block's reference is dropped; the new block's reference is
        assumed to be held already (e.g. from :meth:`BlockAllocator.copy_block`).
        """
        self._require_live()
        old = self.block_ids[index]
        self.block_ids[index] = new_block_id
        self._rows = None
        self.allocator.decref(old)

    def release(self) -> None:
        """Drop every block reference held by this table (idempotent)."""
        if self._released:
            return
        self._released = True
        for block_id in self.block_ids:
            self.allocator.decref(block_id)
        self.block_ids = []
        self._rows = None

    @property
    def released(self) -> bool:
        return self._released

    def _require_live(self) -> None:
        if self._released:
            raise ConfigurationError("BlockTable has been released")


class LayerKVCache:
    """One layer of a :class:`KVCache`: a length, read and written through
    the cache's block table (it owns no KV array), ``(num_kv_heads, seq,
    head_dim)``.  Token ``i`` is row ``table[i // block_size] * block_size +
    i % block_size`` of the allocator's planes for this layer; a token range
    over blocks with consecutive ids is one slice of those planes."""

    def __init__(self, table: BlockTable, layer_index: int, length: int) -> None:
        allocator = table.allocator
        self.num_kv_heads, self.head_dim = allocator.num_kv_heads, allocator.head_dim
        #: modelled element width the byte accounting defaults to
        self.dtype_bytes = allocator.dtype_bytes
        self.table, self._layer_index, self._length = table, layer_index, length

    def __len__(self) -> int:
        return self._length

    def _layer_planes(self) -> tuple[np.ndarray, np.ndarray]:
        if self.table.released:
            raise ConfigurationError("KVCache has been released")
        return self.table.allocator.layer_planes(self._layer_index)

    def _row_runs(self, start: int, stop: int) -> list[slice]:
        """Plane rows of the tokens ``[start, stop)`` as slices, one per run
        of table entries with consecutive block ids."""
        block_size = self.table.allocator.block_size
        ids = self.table.block_ids
        runs = []
        while start < stop:
            first = end = start // block_size
            while (end + 1) * block_size < stop and ids[end + 1] == ids[end] + 1:
                end += 1
            row = ids[first] * block_size + start % block_size
            width = min(stop, (end + 1) * block_size) - start
            runs.append(slice(row, row + width))
            start += width
        return runs or [slice(0, 0)]

    def _checked_stop(self, start: int, stop: "int | None") -> int:
        """``stop`` (default: the length) of a token range inside the cache."""
        stop = self._length if stop is None else stop
        if not 0 <= start <= stop <= self._length:
            raise DimensionError(f"token range [{start}, {stop}) outside [0, {self._length})")
        return stop

    def append(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Append one or more tokens' keys and values.

        Accepts ``(h_kv, t, d_h)`` or ``(h_kv, d_h)`` (single token).
        """
        # Cast by the write into the planes: a float64 operand (synthesized
        # KV) then needs no float32 temporary.
        keys, values = np.asarray(keys), np.asarray(values)
        if keys.ndim == 2:
            keys = keys[:, None, :]
        if values.ndim == 2:
            values = values[:, None, :]
        if keys.shape != values.shape:
            raise DimensionError("keys and values must have identical shapes")
        if (keys.ndim != 3 or keys.shape[0] != self.num_kv_heads
                or keys.shape[2] != self.head_dim):
            raise DimensionError(
                f"expected (h_kv={self.num_kv_heads}, t, d_h={self.head_dim}), "
                f"got {keys.shape}"
            )
        stop = self._length + keys.shape[1]
        self.table.prepare_write(self._length, stop)
        planes = self._layer_planes()
        offset = 0
        for rows in self._row_runs(self._length, stop):
            width = rows.stop - rows.start
            for plane, new in zip(planes, (keys, values)):
                plane[:, rows] = new[:, offset: offset + width]
            offset += width
        self._length = stop

    def read(self, start: int = 0, stop: "int | None" = None) -> tuple[np.ndarray, np.ndarray]:
        """Keys and values of tokens ``[start, stop)`` (default: all), each
        ``(h_kv, t, d_h)`` of C-contiguous ``(t, d_h)`` rows per head: views
        of the planes when the range lies in consecutive blocks, good until
        the next allocation; else a copy, taken through the table."""
        planes = self._layer_planes()
        runs = self._row_runs(start, self._checked_stop(start, stop))
        if len(runs) == 1:
            return tuple(plane[:, runs[0]] for plane in planes)
        return tuple(
            np.concatenate([plane[:, rows] for rows in runs], axis=1) for plane in planes
        )

    @property
    def keys(self) -> np.ndarray:
        """The stored keys, ``(h_kv, len(self), d_h)`` (see ``read``)."""
        return self.read()[0]

    @property
    def values(self) -> np.ndarray:
        """The stored values, ``(h_kv, len(self), d_h)`` (see ``read``)."""
        return self.read()[1]

    def decode_view(self, selected):
        """``(keys, values, selection)`` operands of
        :class:`~repro.llm.attention.GroupedDecodeAttention`: the layer's planes,
        ``selected`` (any form the kernel accepts) mapped to their rows.  The
        mapping checks the token indices (``[-len, len)``, negatives from the
        end, else :class:`IndexError`), the kernel the rows."""
        keys, values = self._layer_planes()
        rows = self.table.rows()[: self._length]
        if selected is None:
            return keys, values, rows
        if isinstance(selected, (list, tuple)):
            return keys, values, [rows[np.asarray(s, dtype=np.int64)] for s in selected]
        return keys, values, rows[np.asarray(selected, dtype=np.int64)]

    def gather(self, token_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Keys and values of the given token indices: ``(h_kv, k, d_h)``."""
        token_indices = np.asarray(token_indices, dtype=np.int64)
        if token_indices.size and (
            token_indices.min() < 0 or token_indices.max() >= self._length
        ):
            raise DimensionError("token index out of range")
        keys, values, rows = self.decode_view(token_indices)
        return np.take(keys, rows, axis=1), np.take(values, rows, axis=1)

    def nbytes(self, dtype_bytes: "int | None" = None) -> int:
        """Modelled storage cost at ``dtype_bytes`` per element; defaults to
        the width configured at construction (the model config's), not fp16."""
        if dtype_bytes is None:
            dtype_bytes = self.dtype_bytes
        return 2 * self.num_kv_heads * self._length * self.head_dim * dtype_bytes


class KVCache:
    """The keys and values of one sequence, every layer, in token blocks.

    One store, read through the table: the allocator's blocks are the only
    copy of the cache's keys and values, and all layers share one
    :class:`BlockTable`.  Built from its geometry, the cache draws its
    blocks from a private, unbounded :class:`BlockAllocator` (default block
    size) and is freed with its last reference.  :meth:`release` drops the
    block references: the cache keeps its length, and reading it raises
    :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(
        self, num_layers: int, num_kv_heads: int, head_dim: int,
        dtype_bytes: int = 2,
    ) -> None:
        allocator = BlockAllocator(
            num_layers, num_kv_heads, head_dim, dtype_bytes=dtype_bytes
        )
        self._attach(allocator, BlockTable(allocator), 0)

    def _attach(self, allocator: BlockAllocator, table: BlockTable, length: int) -> None:
        self.allocator = allocator
        self.num_layers = allocator.num_layers
        self.layers = [
            LayerKVCache(table, layer, length) for layer in range(self.num_layers)
        ]

    @property
    def table(self) -> BlockTable:
        """The block table every layer reads through.  Assigning a table
        (a swapped-out chain restored into fresh blocks) re-points every
        layer at it; it must already own its block references."""
        return self.layers[0].table

    @table.setter
    def table(self, table: BlockTable) -> None:
        for layer in self.layers:
            layer.table = table

    def __getitem__(self, layer: int) -> LayerKVCache:
        return self.layers[layer]

    def __len__(self) -> int:
        return len(self.layers[0])

    @property
    def seq_len(self) -> int:
        return len(self)

    def segments(self, num_initial: int, num_local: int) -> TokenSegments:
        """Current initial/middle/local partition of the token axis."""
        return TokenSegments(
            seq_len=self.seq_len, num_initial=num_initial, num_local=num_local
        )

    def nbytes(self, dtype_bytes: "int | None" = None) -> int:
        return sum(layer.nbytes(dtype_bytes) for layer in self.layers)

    def release(self) -> None:
        """Drop the block references; the cache becomes unreadable."""
        self.table.release()

    @property
    def released(self) -> bool:
        return self.table.released


class PagedKVCache(KVCache):
    """A :class:`KVCache` drawing its blocks from a shared allocator.

    A physical block holds its token range for every layer, so a cached
    prefix chain attaches in one step: construction with ``prefix_table`` /
    ``prefix_len`` starts the cache ``prefix_len`` tokens long on the shared
    blocks, copying nothing (the prefix-cache hit path).  The table passed
    in must already own its block references (e.g. via
    :meth:`BlockTable.fork_from`) and is owned by this cache from then on.
    """

    def __init__(
        self,
        allocator: BlockAllocator,
        prefix_table: BlockTable | None = None,
        prefix_len: int = 0,
    ) -> None:
        if prefix_len < 0:
            raise ConfigurationError("prefix_len must be >= 0")
        if prefix_len > 0:
            if prefix_table is None:
                raise ConfigurationError("prefix_len > 0 requires a prefix_table")
            if prefix_table.capacity_tokens < prefix_len:
                raise ConfigurationError(
                    f"prefix_table holds {prefix_table.capacity_tokens} tokens, "
                    f"prefix_len={prefix_len} requested"
                )
        table = prefix_table if prefix_table is not None else BlockTable(allocator)
        self._attach(allocator, table, prefix_len)


# -------------------------------------------------------------------- tiers


@dataclass(eq=False)  # identity semantics: a handle is a unique ticket
class SwappedBlocks:
    """Handle to a block chain whose contents left the GPU pool.

    Two kinds of chain positions coexist:

    * **stored** — the block was exclusively owned by the swapped request
      (refcount 1), so freeing it reclaims pool space; its rows were copied
      into a block of the swap space's host store (``host_ids[i]``) and are
      copied back into a freshly allocated pool block on swap-in.
    * **pinned** — the block is *shared* (prefix cache, a forked sibling, a
      retained output), so it stays GPU-resident regardless of this request;
      the handle takes one extra reference (``pinned_ids[i]``), no bytes
      move, and swap-in hands the reference straight back to the new table.
      This keeps sharing intact across a preemption — restoring a shared
      4k-token prefix must not duplicate it.

    The handle is single-use: :meth:`SwapSpace.swap_in` consumes it.

    Attributes:
        host_ids: per-position host-store block id (``None`` at pinned ones).
        pinned_ids: per-position pinned pool block id (``None`` at stored
            ones).
        tier: residency of the stored positions — ``"cpu"`` or ``"disk"``.
            A handle created on the CPU tier may be demoted to ``"disk"``
            while parked; demotion moves the whole handle.
    """

    host_ids: "list[int | None]"
    pinned_ids: "list[int | None]"
    tier: str

    @property
    def num_blocks(self) -> int:
        """Chain length (stored + pinned positions)."""
        return len(self.host_ids)

    @property
    def stored_blocks(self) -> int:
        """Positions whose contents are parked in the host store."""
        return sum(1 for host_id in self.host_ids if host_id is not None)

    @property
    def pinned_blocks(self) -> int:
        """Positions held as extra references on GPU-resident shared blocks."""
        return len(self.host_ids) - self.stored_blocks


@dataclass
class SwapSpaceStats:
    """Lifetime transfer counters of one :class:`SwapSpace`.

    Block counters count chain positions; byte counters count the modelled
    size of the stored blocks (``block_nbytes()`` each), which is what
    crosses the links.
    """

    swapped_out: int = 0
    swapped_in: int = 0
    demoted: int = 0
    discarded: int = 0
    swapped_out_logical_bytes: int = 0
    swapped_in_logical_bytes: int = 0
    #: bytes of CPU-parked handles that cascaded onward to the disk tier
    demoted_logical_bytes: int = 0


class SwapSpace:
    """Two lower tiers of the KV hierarchy, CPU pinned memory and disk, over
    one host store bound to ``allocator`` (the GPU pool).

    A chain swapped out of the pool lands in the CPU tier when there is
    room; when the CPU tier is full, the *oldest parked* CPU handle is
    demoted to disk to make room (GPU → CPU → disk, strictly downward).  A
    chain may also be placed directly on the disk tier (the prefix cache's
    cold-chain spill).  When the target tier — after demotion — still cannot
    hold the chain, :class:`~repro.errors.CapacityError` is raised and
    nothing is stored.

    Both tiers park rows in :attr:`host`, a private, unbounded
    :class:`BlockAllocator` of the pool's geometry (its free list and growth
    are the pool's code), so every move is a row copy between two sets of
    planes and every restore is exact.  A handle's ``tier`` tag drives the
    byte accounting the latency model charges for PCIe and NVMe traffic.
    Capacities are in blocks; ``None`` means unbounded (host memory and disk
    are both effectively unbounded relative to a GPU pool, but tests and
    capacity planning can bound them).  Occupancy is one counter per tier.
    """

    def __init__(
        self,
        allocator: BlockAllocator,
        cpu_capacity_blocks: int | None = None,
        disk_capacity_blocks: int | None = None,
    ) -> None:
        if cpu_capacity_blocks is not None and cpu_capacity_blocks < 0:
            raise ConfigurationError("cpu_capacity_blocks must be >= 0 or None")
        if disk_capacity_blocks is not None and disk_capacity_blocks < 0:
            raise ConfigurationError("disk_capacity_blocks must be >= 0 or None")
        self.allocator = allocator
        self.host = BlockAllocator(
            allocator.num_layers, allocator.num_kv_heads, allocator.head_dim,
            block_size=allocator.block_size, dtype_bytes=allocator.dtype_bytes,
        )
        self.cpu_capacity_blocks = cpu_capacity_blocks
        self.disk_capacity_blocks = disk_capacity_blocks
        self._blocks = {"cpu": 0, "disk": 0}
        #: parked handles in arrival order (oldest first) — demotion order
        self._handles: dict[SwappedBlocks, None] = {}
        self.stats = SwapSpaceStats()

    # ---------------------------------------------------------- accounting

    @property
    def cpu_blocks(self) -> int:
        """Blocks currently parked on the CPU tier."""
        return self._blocks["cpu"]

    @property
    def disk_blocks(self) -> int:
        """Blocks currently parked on the disk tier."""
        return self._blocks["disk"]

    def _fits(self, tier: str, blocks: int) -> bool:
        capacity = (self.cpu_capacity_blocks if tier == "cpu"
                    else self.disk_capacity_blocks)
        return capacity is None or self._blocks[tier] + blocks <= capacity

    # ------------------------------------------------------------ movement

    def _make_room_on_cpu(self, needed: int) -> None:
        """Demote oldest CPU handles to disk until ``needed`` blocks fit.

        Raises :class:`~repro.errors.CapacityError` when demotion cannot
        create enough room (the disk tier fills up first).
        """
        while not self._fits("cpu", needed):
            candidate = next(
                (h for h in self._handles if h.tier == "cpu" and h.stored_blocks),
                None,
            )
            if candidate is None:
                raise CapacityError(
                    f"swap space exhausted: CPU tier holds {self.cpu_blocks}/"
                    f"{self.cpu_capacity_blocks} blocks and nothing is demotable"
                )
            moved = candidate.stored_blocks
            if not self._fits("disk", moved):
                raise CapacityError(
                    f"swap space exhausted: disk tier holds {self.disk_blocks}/"
                    f"{self.disk_capacity_blocks} blocks, cannot absorb a "
                    f"{moved}-block demotion"
                )
            candidate.tier = "disk"
            self._blocks["cpu"] -= moved
            self._blocks["disk"] += moved
            self.stats.demoted += moved
            self.stats.demoted_logical_bytes += moved * self.allocator.block_nbytes()

    def _park(self, tier: str, pool_ids: "list[int]") -> "list[int]":
        """Copy pool blocks into fresh host blocks on ``tier``; their ids."""
        self.host.reserve(len(pool_ids))
        host_ids = [self.host.allocate() for _ in pool_ids]
        self.host.copy_blocks(host_ids, self.allocator, pool_ids)
        self._blocks[tier] += len(pool_ids)
        self.stats.swapped_out += len(pool_ids)
        self.stats.swapped_out_logical_bytes += (
            len(pool_ids) * self.allocator.block_nbytes()
        )
        return host_ids

    def _unpark(self, handle: SwappedBlocks) -> None:
        """Forget a handle and free its host blocks."""
        del self._handles[handle]
        for host_id in handle.host_ids:
            if host_id is not None:
                self.host.decref(host_id)
        self._blocks[handle.tier] -= handle.stored_blocks

    def swap_out(self, block_ids: "list[int]", tier: str = "cpu") -> SwappedBlocks:
        """Move a chain out of the pool into a lower tier.

        Exclusively-owned blocks (refcount 1) are copied into the host store
        — they are the ones whose release reclaims pool space.  *Shared*
        blocks (refcount > 1: the prefix cache or another request keeps
        them GPU-resident anyway) are pinned by reference instead: no bytes
        move and swap-in returns the very same block, preserving sharing.

        The caller's own pool references are *not* released here — it is
        expected to drop them (release the :class:`BlockTable`) once the
        handle exists, so a failed swap leaves the chain untouched.

        Args:
            block_ids: chain to move, in order.
            tier: ``"cpu"`` (default; demotes older entries to disk under
                pressure) or ``"disk"`` (direct cold spill).

        Returns:
            A single-use :class:`SwappedBlocks` handle.

        Raises:
            CapacityError: when neither tier can absorb the stored blocks.
        """
        if tier not in ("cpu", "disk"):
            raise ConfigurationError(f"unknown swap tier {tier!r}")
        pool = self.allocator
        pinned_ids = [b if pool.refcount(b) > 1 else None for b in block_ids]
        stored = [b for b, pinned in zip(block_ids, pinned_ids) if pinned is None]
        if tier == "cpu":
            self._make_room_on_cpu(len(stored))
        if not self._fits(tier, len(stored)):
            raise CapacityError(
                f"swap space exhausted: {tier} tier cannot hold {len(stored)} "
                "more blocks"
            )
        host_ids = iter(self._park(tier, stored))
        handle = SwappedBlocks(
            host_ids=[None if pinned is not None else next(host_ids)
                      for pinned in pinned_ids],
            pinned_ids=pinned_ids,
            tier=tier,
        )
        for pinned in pinned_ids:
            if pinned is not None:
                pool.incref(pinned)
        self._handles[handle] = None
        return handle

    def swap_in(self, handle: SwappedBlocks) -> "list[int]":
        """Restore a parked chain into the pool.

        Consumes the handle.  Stored positions get freshly allocated blocks
        with the parked rows copied back; pinned positions hand their
        (still GPU-resident) block reference straight to the caller.
        Allocation happens first and may raise
        :class:`~repro.errors.CapacityError` (pool full, nothing evictable);
        already-allocated blocks are returned to the pool in that case, so a
        failed swap-in leaves both the pool and the handle consistent.

        Returns:
            The block ids, in chain order, with one reference each owned by
            the caller.
        """
        if handle not in self._handles:
            raise ConfigurationError("swap-in of an unknown or consumed handle")
        pool = self.allocator
        fresh: list[int] = []
        try:
            for _ in range(handle.stored_blocks):
                fresh.append(pool.allocate())
        except CapacityError:
            for block_id in fresh:
                pool.decref(block_id)
            raise
        pool.copy_blocks(
            fresh, self.host, [h for h in handle.host_ids if h is not None]
        )
        self._unpark(handle)
        self.stats.swapped_in += len(fresh)
        self.stats.swapped_in_logical_bytes += len(fresh) * pool.block_nbytes()
        fresh_ids = iter(fresh)
        # A pinned position's reference transfers over.
        return [next(fresh_ids) if pinned is None else pinned
                for pinned in handle.pinned_ids]

    def materialize_pins(self, handle: SwappedBlocks) -> "tuple[int, int]":
        """Convert a parked handle's pinned positions into stored copies.

        Dropping a pin releases the handle's reference on a shared block so
        the *other* holder (typically the prefix cache) regains the power to
        evict or spill it — the engine calls this under extreme pool
        pressure, when keeping swapped requests' shared blocks GPU-resident
        would block an older request.  Positions are materialised one at a
        time until the tier runs out of room.

        Returns:
            The blocks written straight to the CPU tier and straight to the
            disk tier.  Making CPU room may demote this very handle midway,
            so blocks written to the CPU tier can reach the disk through
            that demotion (``stats.demoted``), never through this count.
        """
        if handle not in self._handles:
            raise ConfigurationError("unknown or consumed handle")
        written = {"cpu": 0, "disk": 0}
        for index, pinned in enumerate(handle.pinned_ids):
            if pinned is None:
                continue
            # Re-read the tier each iteration: making room can demote this
            # very handle from cpu to disk mid-loop.
            if handle.tier == "cpu":
                try:
                    self._make_room_on_cpu(1)
                except CapacityError:
                    break
            if not self._fits(handle.tier, 1):
                break
            (handle.host_ids[index],) = self._park(handle.tier, [pinned])
            handle.pinned_ids[index] = None
            self.allocator.decref(pinned)
            written[handle.tier] += 1
        return written["cpu"], written["disk"]

    def discard(self, handle: SwappedBlocks) -> None:
        """Drop a parked chain without restoring it (abort/teardown path).

        Pinned positions release their extra block reference back to the
        pool; stored blocks go back to the host store's free list.
        """
        if handle in self._handles:
            self._unpark(handle)
            for pinned in handle.pinned_ids:
                if pinned is not None:
                    self.allocator.decref(pinned)
            self.stats.discarded += handle.num_blocks

    def describe(self) -> dict:
        return {
            "cpu_blocks": self.cpu_blocks,
            "disk_blocks": self.disk_blocks,
            "cpu_capacity_blocks": self.cpu_capacity_blocks,
            "disk_capacity_blocks": self.disk_capacity_blocks,
            "swapped_out": self.stats.swapped_out,
            "swapped_in": self.stats.swapped_in,
            "demoted": self.stats.demoted,
            "discarded": self.stats.discarded,
            "swapped_out_logical_bytes": self.stats.swapped_out_logical_bytes,
            "swapped_in_logical_bytes": self.stats.swapped_in_logical_bytes,
            "demoted_logical_bytes": self.stats.demoted_logical_bytes,
        }
