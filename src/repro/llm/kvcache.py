"""Key-Value cache data structures: monolithic and paged (block-based).

The KVCache is the central object that PQCache manages.  Two storage designs
coexist:

* **Monolithic** — one :class:`LayerKVCache` per transformer layer holding
  ``(h_kv, s, d_h)`` arrays of keys and values with amortised-growth append
  semantics.  This is the default for standalone generation: the cache is
  private to one sequence and freed with it.
* **Paged** — a :class:`PagedKVCache` whose physical storage is fixed-size
  token *blocks* drawn from a shared, refcounted :class:`BlockAllocator`
  (vLLM-style).  A :class:`BlockTable` maps logical token positions to
  physical blocks, blocks can be shared between requests (a forked table
  increfs them), and writes into a shared block copy it first
  (copy-on-write) — which is what lets the serving engine's prefix cache
  reuse a common prompt prefix across requests without ever letting one
  request corrupt another's view.  Each layer additionally keeps a
  contiguous *assembled mirror* of its tokens so the NumPy attention kernels
  read the exact same ``(h_kv, s, d_h)`` views as the monolithic cache —
  paged and monolithic storage are bitwise interchangeable for compute.

Both designs share the three-way segmentation the paper uses (initial
tokens, middle tokens, local tokens — §3.4) via :class:`TokenSegments`.

Tiered placement (GPU ↔ CPU pinned ↔ disk)
------------------------------------------
The block pool models *GPU* residency.  Under pool pressure the serving
engine moves whole block chains down the memory hierarchy through a
:class:`SwapSpace`: swap-out copies a chain's block contents into a CPU
tier (demoting cold entries onward to a disk tier when the CPU tier fills),
frees the pool blocks, and returns a :class:`SwappedBlocks` handle; swap-in
allocates fresh pool blocks and restores the contents bitwise.  The same
store backs the prefix cache's disk spill of cold chains.  Exhausting every
tier raises :class:`~repro.errors.CapacityError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import CapacityError, ConfigurationError, DimensionError
from .kvcodec import EncodedKV, KVBlockCodec, RawCodec

__all__ = [
    "TokenSegments",
    "LayerKVCache",
    "KVCache",
    "BlockAllocator",
    "BlockTable",
    "PagedLayerKVCache",
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


class LayerKVCache:
    """Keys and values of one layer: ``(num_kv_heads, seq, head_dim)``.

    Storage grows by chunked re-allocation, which keeps the append path cheap
    enough for NumPy-based decoding loops.
    """

    _GROWTH = 256

    def __init__(
        self, num_kv_heads: int, head_dim: int, dtype_bytes: int = 2
    ) -> None:
        if num_kv_heads <= 0 or head_dim <= 0:
            raise ConfigurationError("num_kv_heads and head_dim must be positive")
        if dtype_bytes not in (1, 2, 4, 8):
            raise ConfigurationError("dtype_bytes must be one of 1, 2, 4, 8")
        self.num_kv_heads = num_kv_heads
        self.head_dim = head_dim
        #: modelled element width the byte accounting defaults to
        self.dtype_bytes = dtype_bytes
        self._keys = np.zeros((num_kv_heads, 0, head_dim), dtype=np.float64)
        self._values = np.zeros((num_kv_heads, 0, head_dim), dtype=np.float64)
        self._length = 0

    # ------------------------------------------------------------ capacity

    def __len__(self) -> int:
        return self._length

    @property
    def keys(self) -> np.ndarray:
        """View of the stored keys, shape ``(h_kv, len(self), d_h)``."""
        return self._keys[:, : self._length, :]

    @property
    def values(self) -> np.ndarray:
        """View of the stored values, shape ``(h_kv, len(self), d_h)``."""
        return self._values[:, : self._length, :]

    def _ensure_capacity(self, extra: int) -> None:
        needed = self._length + extra
        capacity = self._keys.shape[1]
        if needed <= capacity:
            return
        # Doubling, with ``_GROWTH`` rows to spare past what is asked for: a
        # prefilled cache (one bulk append) would otherwise sit exactly full
        # and copy itself whole for the first decoded token.
        new_capacity = max(needed + self._GROWTH, capacity * 2)
        # Uninitialised storage, live rows copied: rows past ``_length`` are
        # never read (``keys`` / ``values`` slice to it) and, never touched,
        # cost address space only; zero-filling them would touch every page
        # of a buffer twice the live size.
        self._keys = self._regrown(self._keys, new_capacity)
        self._values = self._regrown(self._values, new_capacity)

    def _regrown(self, buffer: np.ndarray, capacity: int) -> np.ndarray:
        grown = np.empty(
            (self.num_kv_heads, capacity, self.head_dim), dtype=np.float64
        )
        grown[:, : self._length] = buffer[:, : self._length]
        return grown

    # -------------------------------------------------------------- append

    def _validate_append(
        self, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Normalise append operands to ``(h_kv, t, d_h)`` and check shapes."""
        keys = np.asarray(keys, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if keys.ndim == 2:
            keys = keys[:, None, :]
        if values.ndim == 2:
            values = values[:, None, :]
        if keys.shape != values.shape:
            raise DimensionError("keys and values must have identical shapes")
        if keys.shape[0] != self.num_kv_heads or keys.shape[2] != self.head_dim:
            raise DimensionError(
                f"expected (h_kv={self.num_kv_heads}, t, d_h={self.head_dim}), "
                f"got {keys.shape}"
            )
        return keys, values

    def _store(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Write already-validated ``(h_kv, t, d_h)`` operands."""
        t = keys.shape[1]
        self._ensure_capacity(t)
        self._keys[:, self._length: self._length + t, :] = keys
        self._values[:, self._length: self._length + t, :] = values
        self._length += t

    def append(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Append one or more tokens' keys and values.

        Accepts ``(h_kv, t, d_h)`` or ``(h_kv, d_h)`` (single token).
        """
        keys, values = self._validate_append(keys, values)
        self._store(keys, values)

    def gather(self, token_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Keys and values of the given token indices: ``(h_kv, k, d_h)``."""
        token_indices = np.asarray(token_indices, dtype=np.int64)
        if token_indices.size and (
            token_indices.min() < 0 or token_indices.max() >= self._length
        ):
            raise DimensionError("token index out of range")
        return (
            self.keys[:, token_indices, :],
            self.values[:, token_indices, :],
        )

    def nbytes(self, dtype_bytes: "int | None" = None) -> int:
        """Modelled storage cost at the given element width.

        Defaults to the width configured at construction (the model
        config's ``dtype_bytes``), so byte accounting follows the modelled
        storage dtype instead of assuming fp16.
        """
        if dtype_bytes is None:
            dtype_bytes = self.dtype_bytes
        return 2 * self.num_kv_heads * self._length * self.head_dim * dtype_bytes


class KVCache:
    """Per-layer collection of :class:`LayerKVCache` objects."""

    def __init__(
        self, num_layers: int, num_kv_heads: int, head_dim: int,
        dtype_bytes: int = 2,
    ) -> None:
        if num_layers <= 0:
            raise ConfigurationError("num_layers must be positive")
        self.num_layers = num_layers
        self.layers = [
            LayerKVCache(num_kv_heads, head_dim, dtype_bytes)
            for _ in range(num_layers)
        ]

    def __getitem__(self, layer: int) -> LayerKVCache:
        return self.layers[layer]

    def __len__(self) -> int:
        return len(self.layers[0]) if self.layers else 0

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


# --------------------------------------------------------------------- paged


class BlockAllocator:
    """Refcounted pool of fixed-size KV blocks shared by all requests.

    One physical block stores ``block_size`` tokens' keys and values for
    *every* layer — shape ``(num_layers, h_kv, block_size, d_h)`` per tensor —
    so a prefix chain of blocks is layer-agnostic and can be attached to a new
    request wholesale.  Blocks are allocated with refcount 1; sharing
    (:meth:`BlockTable.fork`, the prefix cache) increfs, releases decref, and
    a block whose refcount reaches zero returns to the free list for reuse.

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
        self._keys: dict[int, np.ndarray] = {}
        self._values: dict[int, np.ndarray] = {}
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

    def _block_shape(self) -> tuple[int, int, int, int]:
        return (self.num_layers, self.num_kv_heads, self.block_size, self.head_dim)

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
            self._keys[block_id].fill(0.0)
            self._values[block_id].fill(0.0)
        elif self.capacity_blocks is None or self._next_id < self.capacity_blocks:
            block_id = self._next_id
            self._next_id += 1
            self._keys[block_id] = np.zeros(self._block_shape())
            self._values[block_id] = np.zeros(self._block_shape())
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
        self._keys[new_id][...] = self._keys[block_id]
        self._values[new_id][...] = self._values[block_id]
        self.cow_copies += 1
        return new_id

    # ------------------------------------------------------------- storage

    def block_keys(self, block_id: int) -> np.ndarray:
        """Key storage of a block: ``(num_layers, h_kv, block_size, d_h)``."""
        self._require_live(block_id)
        return self._keys[block_id]

    def block_values(self, block_id: int) -> np.ndarray:
        """Value storage of a block: ``(num_layers, h_kv, block_size, d_h)``."""
        self._require_live(block_id)
        return self._values[block_id]


class BlockTable:
    """Ordered mapping of logical token blocks to physical block ids.

    The table *owns* one allocator reference per listed block; :meth:`fork`
    produces a copy-on-write shallow copy (increfs every block), and
    :meth:`release` drops all references exactly once (idempotent).
    """

    def __init__(
        self, allocator: BlockAllocator, block_ids: "list[int] | None" = None
    ) -> None:
        self.allocator = allocator
        self.block_ids: list[int] = list(block_ids or [])
        self._released = False

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

    def append_new(self) -> int:
        """Allocate and append a fresh block; returns its id."""
        self._require_live()
        block_id = self.allocator.allocate()
        self.block_ids.append(block_id)
        return block_id

    def replace(self, index: int, new_block_id: int) -> None:
        """Swap entry ``index`` for an already-owned block (COW bookkeeping).

        The old block's reference is dropped; the new block's reference is
        assumed to be held already (e.g. from :meth:`BlockAllocator.copy_block`).
        """
        self._require_live()
        old = self.block_ids[index]
        self.block_ids[index] = new_block_id
        self.allocator.decref(old)

    def release(self) -> None:
        """Drop every block reference held by this table (idempotent)."""
        if self._released:
            return
        self._released = True
        for block_id in self.block_ids:
            self.allocator.decref(block_id)
        self.block_ids = []

    @property
    def released(self) -> bool:
        return self._released

    def _require_live(self) -> None:
        if self._released:
            raise ConfigurationError("BlockTable has been released")


class PagedLayerKVCache(LayerKVCache):
    """One layer of a :class:`PagedKVCache`.

    Behaves exactly like :class:`LayerKVCache` for readers (``keys`` /
    ``values`` / ``gather`` are contiguous assembled views), but every append
    is also written through to the owning cache's shared block storage, where
    copy-on-write protects blocks shared with other requests.
    """

    def __init__(self, owner: "PagedKVCache", layer_index: int) -> None:
        super().__init__(owner.allocator.num_kv_heads, owner.allocator.head_dim,
                         owner.allocator.dtype_bytes)
        self._owner = owner
        self._layer_index = layer_index

    def append(self, keys: np.ndarray, values: np.ndarray) -> None:
        keys, values = self._validate_append(keys, values)
        # Blocks first: allocation can fail on a bounded pool, and in that
        # case the assembled mirror must not have advanced.
        self._owner._write_blocks(self._layer_index, self._length, keys, values)
        self._store(keys, values)

    def _mirror_append(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Append to the assembled mirror only (prefix attach path)."""
        super().append(keys, values)


class PagedKVCache(KVCache):
    """Block-based KVCache drawing storage from a shared allocator.

    All layers share one :class:`BlockTable`: a physical block holds the
    keys/values of its token range for every layer, so a cached prefix chain
    attaches in one step.  Construction with ``prefix_table`` /
    ``prefix_len`` starts the cache pre-filled with the first ``prefix_len``
    tokens read out of the shared blocks (the prefix-cache hit path); the
    table passed in must already own its block references (e.g. via
    :meth:`BlockTable.fork_from`) and is owned by this cache from then on.

    Call :meth:`release` when the request no longer needs the shared storage:
    the block references are dropped (blocks whose refcount reaches zero
    return to the allocator's free list) while the assembled per-layer
    mirrors stay readable, so retained outputs keep working after release.
    """

    def __init__(
        self,
        allocator: BlockAllocator,
        prefix_table: BlockTable | None = None,
        prefix_len: int = 0,
    ) -> None:
        self.allocator = allocator
        self.num_layers = allocator.num_layers
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
        self.table = prefix_table if prefix_table is not None else BlockTable(allocator)
        self.cached_prefix_len = prefix_len
        self.layers = [
            PagedLayerKVCache(self, layer) for layer in range(self.num_layers)
        ]
        if prefix_len > 0:
            self._attach_prefix(prefix_len)

    # ------------------------------------------------------------- prefix

    def _attach_prefix(self, prefix_len: int) -> None:
        """Assemble the first ``prefix_len`` tokens from the shared blocks.

        Appends block slices straight into each layer's mirror — one copy
        per element, no concatenated all-layers temporary — since this runs
        on every prefix-cache hit.
        """
        block_size = self.allocator.block_size
        num_blocks = -(-prefix_len // block_size)
        for layer_index, layer in enumerate(self.layers):
            remaining = prefix_len
            for block_id in self.table.block_ids[:num_blocks]:
                take = min(block_size, remaining)
                layer._mirror_append(
                    self.allocator.block_keys(block_id)[layer_index, :, :take, :],
                    self.allocator.block_values(block_id)[layer_index, :, :take, :],
                )
                remaining -= take

    # ------------------------------------------------------------- writes

    def _write_blocks(
        self, layer_index: int, start: int, keys: np.ndarray, values: np.ndarray
    ) -> None:
        """Write one layer's token span ``[start, start+t)`` into the blocks.

        Extends the shared table as the leading layer crosses block
        boundaries and performs copy-on-write on any block that is shared
        with another holder (refcount > 1).
        """
        block_size = self.allocator.block_size
        t = keys.shape[1]
        pos = start
        while pos < start + t:
            block_index = pos // block_size
            offset = pos % block_size
            take = min(block_size - offset, start + t - pos)
            if block_index >= len(self.table.block_ids):
                self.table.append_new()
            block_id = self.table.block_ids[block_index]
            if self.allocator.refcount(block_id) > 1:
                block_id = self.allocator.copy_block(block_id)
                self.table.replace(block_index, block_id)
            rel = pos - start
            self.allocator.block_keys(block_id)[
                layer_index, :, offset: offset + take, :
            ] = keys[:, rel: rel + take, :]
            self.allocator.block_values(block_id)[
                layer_index, :, offset: offset + take, :
            ] = values[:, rel: rel + take, :]
            pos += take

    # ------------------------------------------------------------ release

    def release(self) -> None:
        """Drop the shared block references (mirrors remain readable)."""
        self.table.release()

    @property
    def released(self) -> bool:
        return self.table.released


# -------------------------------------------------------------------- tiers


@dataclass(eq=False)  # identity semantics: a handle is a unique ticket
class SwappedBlocks:
    """Handle to a block chain whose contents left the GPU pool.

    Two kinds of chain positions coexist:

    * **stored** — the block was exclusively owned by the swapped request
      (refcount 1), so freeing it reclaims pool space; its contents are
      *encoded* through the handle's codec into the handle
      (``keys[i]``/``values[i]`` hold :class:`~repro.llm.kvcodec.EncodedKV`
      payloads) and decoded into a freshly allocated block on swap-in.  The
      encoded form is what occupies the tier and crosses the PCIe/NVMe
      links — the handle's ``stored_wire_nbytes`` is the transfer size the
      engine bills, while ``stored_logical_nbytes`` is what the raw tiers
      would have moved.
    * **pinned** — the block is *shared* (prefix cache, a forked sibling, a
      retained output), so it stays GPU-resident regardless of this request;
      the handle takes one extra reference (``pinned_ids[i]``), no bytes
      move, and swap-in hands the reference straight back to the new table.
      This keeps sharing intact across a preemption — restoring a shared
      4k-token prefix must not duplicate it.

    The handle is single-use: :meth:`SwapSpace.swap_in` consumes it.

    Attributes:
        keys: per-position encoded key payloads (``None`` at pinned ones).
        values: per-position encoded value payloads (``None`` at pinned ones).
        pinned_ids: per-position pinned block id (``None`` at stored ones).
        allocator: pool the pinned references live in.
        tier: current residency of the stored copies — ``"cpu"`` or
            ``"disk"``.  A handle created on the CPU tier may be demoted to
            ``"disk"`` while parked.
        codec: the :class:`~repro.llm.kvcodec.KVBlockCodec` the stored
            positions were encoded with (pins materialised later reuse it).
    """

    keys: "list[EncodedKV | None]"
    values: "list[EncodedKV | None]"
    pinned_ids: "list[int | None]"
    allocator: "BlockAllocator"
    tier: str
    codec: "KVBlockCodec"

    @property
    def num_blocks(self) -> int:
        """Chain length (stored + pinned positions)."""
        return len(self.keys)

    @property
    def stored_blocks(self) -> int:
        """Positions whose contents are parked in the swap space."""
        return sum(1 for k in self.keys if k is not None)

    @property
    def pinned_blocks(self) -> int:
        """Positions held as extra references on GPU-resident shared blocks."""
        return len(self.keys) - self.stored_blocks

    @property
    def stored_wire_nbytes(self) -> int:
        """Encoded bytes the stored positions occupy (transfer size)."""
        return sum(
            k.wire_nbytes + v.wire_nbytes
            for k, v in zip(self.keys, self.values) if k is not None
        )

    @property
    def stored_logical_nbytes(self) -> int:
        """Modelled raw bytes of the stored positions (pre-codec size)."""
        return sum(
            k.logical_nbytes + v.logical_nbytes
            for k, v in zip(self.keys, self.values) if k is not None
        )


@dataclass
class SwapSpaceStats:
    """Lifetime transfer counters of one :class:`SwapSpace`.

    Block counters count chain positions; the byte counters distinguish
    *logical* bytes (the modelled raw size a codec-less tier would move)
    from *wire* bytes (the encoded size that actually occupies the tier and
    crosses the link) so achieved compression ratios fall straight out of
    their quotient.
    """

    swapped_out: int = 0
    swapped_in: int = 0
    demoted: int = 0
    discarded: int = 0
    swapped_out_logical_bytes: int = 0
    swapped_out_wire_bytes: int = 0
    swapped_in_logical_bytes: int = 0
    swapped_in_wire_bytes: int = 0
    #: bytes of CPU-parked handles that cascaded onward to the disk tier
    demoted_logical_bytes: int = 0
    demoted_wire_bytes: int = 0


class SwapSpace:
    """Two lower tiers of the KV hierarchy: CPU pinned memory and disk.

    The GPU block pool (:class:`BlockAllocator`) is the top tier.  A chain
    swapped out of it lands in the CPU tier when there is room; when the CPU
    tier is full, the *oldest parked* CPU handle is demoted to disk to make
    room (GPU → CPU → disk, strictly downward).  A chain may also be placed
    directly on the disk tier (the prefix cache's cold-chain spill).  When
    the target tier — after demotion — still cannot hold the chain,
    :class:`~repro.errors.CapacityError` is raised and nothing is stored.

    Capacities are expressed in blocks of the owning allocator's geometry;
    ``None`` means unbounded (host memory and disk are both effectively
    unbounded relative to a GPU pool, but tests and capacity planning can
    bound them).  All arrays live in process memory either way — the *tier*
    tag drives the byte accounting the latency model charges for PCIe and
    NVMe traffic.

    Every chain passes through a :class:`~repro.llm.kvcodec.KVBlockCodec`
    on the way down: the default (or per-call) codec encodes stored block
    copies into :class:`~repro.llm.kvcodec.EncodedKV` payloads whose
    ``wire_nbytes`` is what the links actually carry.  The default
    :class:`~repro.llm.kvcodec.RawCodec` keeps wire == logical, so a
    codec-less configuration bills exactly what it always did.
    """

    def __init__(
        self,
        cpu_capacity_blocks: int | None = None,
        disk_capacity_blocks: int | None = None,
        codec: "KVBlockCodec | None" = None,
    ) -> None:
        if cpu_capacity_blocks is not None and cpu_capacity_blocks < 0:
            raise ConfigurationError("cpu_capacity_blocks must be >= 0 or None")
        if disk_capacity_blocks is not None and disk_capacity_blocks < 0:
            raise ConfigurationError("disk_capacity_blocks must be >= 0 or None")
        self.cpu_capacity_blocks = cpu_capacity_blocks
        self.disk_capacity_blocks = disk_capacity_blocks
        #: codec applied to stored copies unless ``swap_out`` overrides it
        self.codec: KVBlockCodec = codec if codec is not None else RawCodec()
        #: parked handles in arrival order (oldest first) — demotion order
        self._handles: list[SwappedBlocks] = []
        self.stats = SwapSpaceStats()

    # ---------------------------------------------------------- accounting

    def _tier_blocks(self, tier: str) -> int:
        return sum(h.stored_blocks for h in self._handles if h.tier == tier)

    @property
    def cpu_blocks(self) -> int:
        """Blocks currently parked on the CPU tier."""
        return self._tier_blocks("cpu")

    @property
    def disk_blocks(self) -> int:
        """Blocks currently parked on the disk tier."""
        return self._tier_blocks("disk")

    def nbytes(self, block_nbytes: int) -> int:
        """Modelled bytes parked across both tiers."""
        return (self.cpu_blocks + self.disk_blocks) * block_nbytes

    def _tier_room(self, tier: str, capacity: int | None) -> int | None:
        if capacity is None:
            return None
        return capacity - self._tier_blocks(tier)

    # ------------------------------------------------------------ movement

    def _make_room_on_cpu(self, needed: int) -> int:
        """Demote oldest CPU handles to disk until ``needed`` blocks fit.

        Returns the number of blocks demoted.  Raises
        :class:`~repro.errors.CapacityError` when demotion cannot create
        enough room (the disk tier fills up first).
        """
        demoted = 0
        room = self._tier_room("cpu", self.cpu_capacity_blocks)
        while room is not None and room < needed:
            candidate = next(
                (h for h in self._handles if h.tier == "cpu" and h.stored_blocks),
                None,
            )
            if candidate is None:
                raise CapacityError(
                    f"swap space exhausted: CPU tier holds {self.cpu_blocks}/"
                    f"{self.cpu_capacity_blocks} blocks and nothing is demotable"
                )
            disk_room = self._tier_room("disk", self.disk_capacity_blocks)
            if disk_room is not None and disk_room < candidate.stored_blocks:
                raise CapacityError(
                    f"swap space exhausted: disk tier holds {self.disk_blocks}/"
                    f"{self.disk_capacity_blocks} blocks, cannot absorb a "
                    f"{candidate.stored_blocks}-block demotion"
                )
            candidate.tier = "disk"
            demoted += candidate.stored_blocks
            self.stats.demoted += candidate.stored_blocks
            self.stats.demoted_logical_bytes += candidate.stored_logical_nbytes
            self.stats.demoted_wire_bytes += candidate.stored_wire_nbytes
            room = self._tier_room("cpu", self.cpu_capacity_blocks)
        return demoted

    def swap_out(
        self,
        allocator: BlockAllocator,
        block_ids: "list[int]",
        tier: str = "cpu",
        codec: "KVBlockCodec | None" = None,
    ) -> SwappedBlocks:
        """Move a chain out of the pool into a lower tier.

        Exclusively-owned blocks (refcount 1) are encoded through the codec
        and copied into the tier — they are the ones whose release reclaims
        pool space.  *Shared* blocks (refcount > 1: the prefix cache or
        another request keeps them GPU-resident anyway) are pinned by
        reference instead: no bytes move and swap-in returns the very same
        block, preserving sharing.

        The caller's own pool references are *not* released here — it is
        expected to drop them (release the :class:`BlockTable`) once the
        handle exists, so a failed swap leaves the chain untouched.

        Args:
            allocator: the pool the blocks live in.
            block_ids: chain to move, in order.
            tier: ``"cpu"`` (default; demotes older entries to disk under
                pressure) or ``"disk"`` (direct cold spill).
            codec: overrides the space's default codec for this chain (the
                prefix cache uses this for lossy-on-spill configs).

        Returns:
            A single-use :class:`SwappedBlocks` handle.

        Raises:
            CapacityError: when neither tier can absorb the stored copies.
        """
        if tier not in ("cpu", "disk"):
            raise ConfigurationError(f"unknown swap tier {tier!r}")
        codec = codec if codec is not None else self.codec
        shared = [allocator.refcount(b) > 1 for b in block_ids]
        needed = sum(1 for s in shared if not s)
        if tier == "cpu":
            self._make_room_on_cpu(needed)
        room = self._tier_room(tier, self.cpu_capacity_blocks if tier == "cpu"
                               else self.disk_capacity_blocks)
        if room is not None and room < needed:
            raise CapacityError(
                f"swap space exhausted: {tier} tier cannot hold {needed} "
                "more blocks"
            )
        handle = SwappedBlocks(
            keys=[None if s else codec.encode(allocator.block_keys(b))
                  for b, s in zip(block_ids, shared)],
            values=[None if s else codec.encode(allocator.block_values(b))
                    for b, s in zip(block_ids, shared)],
            pinned_ids=[b if s else None for b, s in zip(block_ids, shared)],
            allocator=allocator,
            tier=tier,
            codec=codec,
        )
        for block_id, is_shared in zip(block_ids, shared):
            if is_shared:
                allocator.incref(block_id)
        self._handles.append(handle)
        self.stats.swapped_out += needed
        self.stats.swapped_out_logical_bytes += handle.stored_logical_nbytes
        self.stats.swapped_out_wire_bytes += handle.stored_wire_nbytes
        return handle

    def swap_in(
        self, handle: SwappedBlocks, allocator: BlockAllocator
    ) -> "list[int]":
        """Restore a parked chain into the pool.

        Consumes the handle.  Stored positions get freshly allocated blocks
        with the parked contents copied back; pinned positions hand their
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
        fresh: list[int] = []
        try:
            for _ in range(handle.stored_blocks):
                fresh.append(allocator.allocate())
        except CapacityError:
            for block_id in fresh:
                allocator.decref(block_id)
            raise
        restored_logical = handle.stored_logical_nbytes
        restored_wire = handle.stored_wire_nbytes
        new_ids: list[int] = []
        fresh_iter = iter(fresh)
        for keys, values, pinned in zip(
            handle.keys, handle.values, handle.pinned_ids
        ):
            if pinned is not None:
                new_ids.append(pinned)  # the pin reference transfers over
                continue
            block_id = next(fresh_iter)
            allocator.block_keys(block_id)[...] = keys.decode()
            allocator.block_values(block_id)[...] = values.decode()
            new_ids.append(block_id)
        self._handles.remove(handle)
        self.stats.swapped_in += len(fresh)
        self.stats.swapped_in_logical_bytes += restored_logical
        self.stats.swapped_in_wire_bytes += restored_wire
        return new_ids

    def materialize_pins(self, handle: SwappedBlocks) -> int:
        """Convert a parked handle's pinned positions into stored copies.

        Dropping a pin releases the handle's reference on a shared block so
        the *other* holder (typically the prefix cache) regains the power to
        evict or spill it — the engine calls this under extreme pool
        pressure, when keeping swapped requests' shared blocks GPU-resident
        would block an older request.  Positions are materialised one at a
        time until the tier runs out of room; returns how many were copied.
        """
        if handle not in self._handles:
            raise ConfigurationError("unknown or consumed handle")
        materialised = 0
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
            capacity = (self.cpu_capacity_blocks if handle.tier == "cpu"
                        else self.disk_capacity_blocks)
            room = self._tier_room(handle.tier, capacity)
            if room is not None and room < 1:
                break
            enc_keys = handle.codec.encode(handle.allocator.block_keys(pinned))
            enc_values = handle.codec.encode(
                handle.allocator.block_values(pinned)
            )
            handle.keys[index] = enc_keys
            handle.values[index] = enc_values
            handle.pinned_ids[index] = None
            handle.allocator.decref(pinned)
            materialised += 1
            self.stats.swapped_out += 1
            self.stats.swapped_out_logical_bytes += (
                enc_keys.logical_nbytes + enc_values.logical_nbytes
            )
            self.stats.swapped_out_wire_bytes += (
                enc_keys.wire_nbytes + enc_values.wire_nbytes
            )
        return materialised

    def peek_encoded(
        self, handle: SwappedBlocks
    ) -> "tuple[list[EncodedKV], list[EncodedKV]]":
        """Read a parked chain's *encoded* payloads without decoding.

        The migration path ships the wire form as-is: the owning worker
        reads encoded bytes off its tier and the importer decodes exactly
        once — no decode/re-encode round trip, and the parked copy stays
        valid for a later local restore (which is billed independently by
        its own swap-in).  Stored positions return the parked
        :class:`~repro.llm.kvcodec.EncodedKV` objects themselves (they are
        immutable-by-convention); pinned positions encode the live block
        through the handle's codec on the fly.
        """
        if handle not in self._handles:
            raise ConfigurationError("peek of an unknown or consumed handle")
        keys: list[EncodedKV] = []
        values: list[EncodedKV] = []
        for k, v, pinned in zip(handle.keys, handle.values, handle.pinned_ids):
            if pinned is not None:
                keys.append(handle.codec.encode(
                    handle.allocator.block_keys(pinned)))
                values.append(handle.codec.encode(
                    handle.allocator.block_values(pinned)))
            else:
                keys.append(k)
                values.append(v)
        return keys, values

    def discard(self, handle: SwappedBlocks) -> None:
        """Drop a parked chain without restoring it (abort/teardown path).

        Pinned positions release their extra block reference back to the
        pool; stored copies are simply forgotten.
        """
        if handle in self._handles:
            self._handles.remove(handle)
            for pinned in handle.pinned_ids:
                if pinned is not None:
                    handle.allocator.decref(pinned)
            self.stats.discarded += handle.num_blocks

    def describe(self) -> dict:
        return {
            "cpu_blocks": self.cpu_blocks,
            "disk_blocks": self.disk_blocks,
            "cpu_capacity_blocks": self.cpu_capacity_blocks,
            "disk_capacity_blocks": self.disk_capacity_blocks,
            "codec": self.codec.name,
            "swapped_out": self.stats.swapped_out,
            "swapped_in": self.stats.swapped_in,
            "demoted": self.stats.demoted,
            "discarded": self.stats.discarded,
            "swapped_out_logical_bytes": self.stats.swapped_out_logical_bytes,
            "swapped_out_wire_bytes": self.stats.swapped_out_wire_bytes,
            "swapped_in_logical_bytes": self.stats.swapped_in_logical_bytes,
            "swapped_in_wire_bytes": self.stats.swapped_in_wire_bytes,
            "demoted_logical_bytes": self.stats.demoted_logical_bytes,
            "demoted_wire_bytes": self.stats.demoted_wire_bytes,
        }
