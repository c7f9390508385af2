"""Shared-prefix cache over the paged KV block pool.

Concurrent requests that share a prompt prefix (a system prompt, a multi-turn
history) should not redo its prefill, k-means clustering, or PQ encoding.
This module provides the engine-side index that makes that reuse safe:

* Prompts are hashed **per block** with parent chaining (vLLM-style): the key
  of block *i* is ``H(key_{i-1}, tokens_i)``, so equal keys identify equal
  whole prefixes, not just equal blocks.  Every node additionally stores its
  raw token ids and verifies them on lookup — a hash collision therefore
  degrades to a cache miss (cold prefill), never to silent corruption.
* Each cached node holds one reference on its physical block in the
  :class:`~repro.llm.kvcache.BlockAllocator`; an attaching request forks the
  matched chain (increfs), and copy-on-write in
  :class:`~repro.llm.kvcache.PagedKVCache` protects the shared contents.
* Nodes can carry two kinds of *artifact payloads* beyond raw KV:
  accumulated-attention-score snapshots (the exact resume state policies
  that read prefill aggregates need) and per-policy
  :class:`~repro.core.pqcache.PQSnapshot` objects (sketch codebooks + codes,
  reused by reference instead of re-clustered).
* Eviction is LRU over leaf nodes: when the block pool runs dry mid-admission
  the allocator calls :meth:`PrefixCache.evict`, which walks least-recently
  used chains tail-first and drops nodes whose blocks nobody else references.
* With a *spill store* (:class:`~repro.llm.kvcache.SwapSpace`), eviction
  demotes cold chains to the disk tier instead of freeing them: the block
  contents (and, by reference, the attached artifact payloads) survive on
  NVMe, the pool block is returned, and a later match restores the chain
  into fresh pool blocks bitwise — or *re-adopts* the inserting request's
  own blocks for free when the same prompt comes back through ``insert``.
  PQ snapshots ride along nearly for free (codes are ~1/64th the KV bytes).
* Artifact payloads are reference-counted symmetrically: every node that
  stores a :class:`~repro.core.pqcache.PQSnapshot` takes a storage hold
  (:meth:`~repro.core.pqcache.PQSnapshot.retain`) and releases it when the
  node is evicted or the snapshot is replaced by a deeper one, so
  ``hold_count`` audits exactly the live cache references across arbitrary
  evict/re-insert cycles.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from ..errors import CapacityError, ConfigurationError
from ..llm.kvcache import BlockAllocator, SwapSpace
from ..llm.kvcodec import EncodedKV, KVBlockCodec, RawCodec

__all__ = [
    "PrefixCache",
    "PrefixCacheStats",
    "PrefixMatch",
    "ExportedChain",
    "ExportedChainNode",
    "chain_block_keys",
]


def _default_hash(parent_key: bytes, tokens: np.ndarray) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(parent_key)
    digest.update(tokens.astype(np.int64).tobytes())
    return digest.digest()


_ROOT_KEY = b"root"


def _chain(
    token_ids: np.ndarray,
    block_size: int,
    hash_fn: "Callable[[bytes, np.ndarray], bytes]",
):
    """``(key, tokens)`` of a prompt's full blocks, in order: block ``i``'s
    key is ``H(key_{i-1}, tokens_i)``, starting from the root sentinel."""
    key = _ROOT_KEY
    for pos in range(0, token_ids.size - block_size + 1, block_size):
        tokens = token_ids[pos: pos + block_size]
        key = hash_fn(key, tokens)
        yield key, tokens


def chain_block_keys(
    token_ids: Sequence[int],
    block_size: int,
    hash_fn: "Callable[[bytes, np.ndarray], bytes] | None" = None,
) -> list[bytes]:
    """Chain keys of a prompt's full blocks, in order.

    This is the *public* form of the cache's internal hashing, so the
    returned keys are exactly the ones :class:`PrefixCache` publishes through
    its observer events.  A router can therefore score candidate workers'
    prefix coverage against a shared fingerprint directory without touching
    any worker's cache internals.
    """
    token_ids = np.asarray(list(token_ids), dtype=np.int64)
    hash_fn = hash_fn or _default_hash
    return [key for key, _ in _chain(token_ids, block_size, hash_fn)]


class _Node:
    """One cached block: chain position, physical block, artifact payloads."""

    __slots__ = (
        "key", "parent", "children", "block_id", "depth", "token_ids",
        "last_used", "acc_scores", "pq_snapshots", "spill_handle",
    )

    def __init__(
        self,
        key: bytes,
        parent: "_Node | None",
        block_id: int,
        depth: int,
        token_ids: np.ndarray,
    ) -> None:
        self.key = key
        self.parent = parent
        self.children = 0
        self.block_id = block_id
        self.depth = depth            # blocks from the root, inclusive of self
        self.token_ids = token_ids    # this block's tokens (collision check)
        self.last_used = 0
        #: per-layer (num_heads, end_pos) accumulated-score snapshot valid at
        #: exactly this node's end position, or None
        self.acc_scores = None
        #: fingerprint -> PQSnapshot (sketch codebooks + codes)
        self.pq_snapshots: dict = {}
        #: :class:`~repro.llm.kvcache.SwappedBlocks` handle while the node's
        #: block content is parked on the disk tier (``block_id`` is invalid
        #: then), else None
        self.spill_handle = None

    @property
    def spilled(self) -> bool:
        return self.spill_handle is not None

    def end_pos(self, block_size: int) -> int:
        return self.depth * block_size


_last_used = attrgetter("last_used")


@dataclass
class PrefixMatch:
    """Longest cached chain matching a prompt, plus reusable payloads.

    Attributes:
        matched_tokens: full-block prefix length found in the cache.
        block_ids: physical blocks of the matched chain (not yet increfed —
            fork them via :meth:`~repro.llm.kvcache.BlockTable.fork_from`).
        acc_boundaries: boundary → per-layer accumulated-score snapshots
            available inside the matched region.
        pq_snapshot: the PQ snapshot with the requested fingerprint whose
            *valid* coverage on this chain is deepest, or ``None``.  A
            snapshot stored on a shallow node is truncated to that node's
            end position — its deeper codes describe the producer's own
            diverging continuation, never this prompt.
    """

    matched_tokens: int
    block_ids: list[int]
    acc_boundaries: dict[int, list] = field(default_factory=dict)
    pq_snapshot: object = None


@dataclass
class ExportedChainNode:
    """One block of an exported chain: tokens, KV contents, payloads.

    ``keys``/``values`` are the block's contents in *wire* form — one
    :class:`~repro.llm.kvcodec.EncodedKV` each (original shape
    ``(num_layers, h_kv, block_size, d_h)``).  Spilled source nodes ship
    their parked encoded payload as-is (no decode on the export side);
    resident nodes are encoded through the exporter's migration codec.
    ``from_disk`` records whether the source node was spilled (the exporter
    read it off the NVMe tier — a migration bills that leg).  Artifact
    payloads travel by reference, like every other sharing path in the
    cache.
    """

    token_ids: np.ndarray
    keys: EncodedKV
    values: EncodedKV
    from_disk: bool
    acc_scores: "list | None" = None
    pq_snapshots: dict = field(default_factory=dict)

    @property
    def wire_nbytes(self) -> int:
        """Encoded KV bytes this node puts on the wire."""
        return self.keys.wire_nbytes + self.values.wire_nbytes

    @property
    def logical_nbytes(self) -> int:
        """Modelled raw KV bytes of this node (pre-codec size)."""
        return self.keys.logical_nbytes + self.values.logical_nbytes


@dataclass
class ExportedChain:
    """A prefix chain packaged for migration to another worker's cache.

    Produced by :meth:`PrefixCache.export_chain` on the owning worker and
    consumed by :meth:`PrefixCache.import_chain` on the target; under a
    lossless codec the contents decode to exact copies, so an import
    followed by a match reproduces the source chain bitwise (a lossy codec
    restores within its declared per-element error bound instead).
    """

    block_size: int
    nodes: "list[ExportedChainNode]" = field(default_factory=list)

    @property
    def num_blocks(self) -> int:
        return len(self.nodes)

    @property
    def num_tokens(self) -> int:
        return len(self.nodes) * self.block_size

    @property
    def disk_blocks(self) -> int:
        """Blocks the exporter read from the source's disk spill tier."""
        return sum(1 for node in self.nodes if node.from_disk)

    @property
    def kv_wire_nbytes(self) -> int:
        """Encoded KV bytes the chain puts on the wire (all nodes)."""
        return sum(node.wire_nbytes for node in self.nodes)

    @property
    def kv_logical_nbytes(self) -> int:
        """Modelled raw KV bytes of the chain (what raw tiers would move)."""
        return sum(node.logical_nbytes for node in self.nodes)

    @property
    def disk_wire_nbytes(self) -> int:
        """Encoded KV bytes read off the source's NVMe tier."""
        return sum(node.wire_nbytes for node in self.nodes if node.from_disk)

    @property
    def resident_logical_nbytes(self) -> int:
        """Raw bytes of GPU-resident nodes the exporter encoded on the fly.

        Spilled nodes travel in their parked encoded form — only these
        resident nodes cost an encode pass on the source worker's CPU.
        """
        return sum(
            node.logical_nbytes for node in self.nodes if not node.from_disk
        )

    def decode_flops(self) -> float:
        """CPU FLOPs the importer spends decoding every node exactly once.

        Each payload knows the codec that produced it (spilled nodes may
        carry a different codec than resident ones), so the estimate sums
        per-node decode rates rather than assuming one codec chain-wide.
        """
        flops = 0.0
        for node in self.nodes:
            flops += node.keys.decoder.decode_flops(node.keys.logical_nbytes)
            flops += node.values.decoder.decode_flops(
                node.values.logical_nbytes
            )
        return flops

    def payload_nbytes(self) -> int:
        """Modelled artifact-payload bytes riding along (acc + PQ, deduped)."""
        nbytes = 0
        seen: set[int] = set()
        for node in self.nodes:
            if node.acc_scores is not None:
                nbytes += int(
                    sum(np.asarray(a).nbytes for a in node.acc_scores)
                )
            for snap in node.pq_snapshots.values():
                if id(snap) not in seen:
                    seen.add(id(snap))
                    nbytes += snap.nbytes()
        return nbytes


@dataclass
class PrefixCacheStats:
    """*Index-level* counters: what the hash-chain lookups matched.

    These count matches as seen by :meth:`PrefixCache.match` — the full
    matched block chain per lookup.  The engine may then reuse *fewer*
    tokens than matched (policy aggregate constraints, the
    ``len(prompt) - 1`` cap) or none at all; what was actually attached is
    what :class:`~repro.serve.EngineMetrics` ``prefix_cache_*`` counters
    record.  Compare the two to see how much matched prefix the reuse
    policy left on the table.
    """

    queries: int = 0
    hits: int = 0
    hit_tokens: int = 0
    lookup_tokens: int = 0
    inserted_blocks: int = 0
    evicted_blocks: int = 0
    collisions: int = 0
    #: cold-chain blocks demoted to the disk spill tier (pool block freed,
    #: contents kept) instead of being dropped outright
    spilled_blocks: int = 0
    #: spilled blocks brought back into fresh pool blocks on a later match
    restored_blocks: int = 0
    #: spilled nodes healed by re-insertion of the same prompt (adopting the
    #: inserting request's identical block — no disk read needed)
    readopted_blocks: int = 0
    #: spilled nodes dropped permanently to relieve a full disk tier
    dropped_spilled_blocks: int = 0
    #: modelled artifact-payload bytes that accompanied spills / restores
    #: (accumulated-score snapshots + PQ snapshots, counted once per
    #: residency transition)
    spilled_payload_bytes: int = 0
    restored_payload_bytes: int = 0
    #: encoded (wire) KV bytes spilled to / restored from the disk tier —
    #: the logical counterpart is ``spilled/restored_blocks * block bytes``;
    #: the quotient is the spill codec's achieved ratio
    spilled_wire_bytes: int = 0
    restored_wire_bytes: int = 0
    #: cross-worker migration traffic: blocks copied out of this cache for
    #: another worker, and blocks written into this cache from another
    #: worker's exported chain (new nodes + healed spilled nodes)
    exported_blocks: int = 0
    imported_blocks: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that matched at least one block."""
        if self.queries == 0:
            return 0.0
        return self.hits / self.queries

    @property
    def token_hit_rate(self) -> float:
        """Fraction of looked-up prompt tokens found in the index.

        An upper bound on the engine's ``prefix_token_hit_rate`` (which
        counts only the tokens actually reused).
        """
        if self.lookup_tokens == 0:
            return 0.0
        return self.hit_tokens / self.lookup_tokens


class PrefixCache:
    """Hash-chained index of cached prompt-prefix blocks.

    Args:
        allocator: the paged-KV block pool the cached chains live in; the
            cache holds one reference per cached block.
        hash_fn: ``(parent_key, tokens) -> bytes`` chain hash; injectable so
            tests can force collisions and exercise the verification
            fallback.  Collisions are detected by comparing stored token ids
            and resolved as misses (first chain wins the slot).
        spill_store: optional :class:`~repro.llm.kvcache.SwapSpace`; when
            set, eviction spills cold chains to its disk tier (contents
            preserved, pool block freed) and later matches restore them.
            Without it eviction frees cold chains permanently, as before.
        spill_codec: :class:`~repro.llm.kvcodec.KVBlockCodec` applied to
            spilled chains on the way down (``None`` uses the spill store's
            default codec).  Spilled prefix chains are the one downward
            path where *lossy* codecs are permitted: a restore then differs
            from the original within the codec's declared per-element error
            bound, trading exact byte identity on cache hits for NVMe
            bandwidth.

    Attributes:
        observer: optional residency-event subscriber (duck-typed; the
            cluster layer's fingerprint directory is the canonical one).
            Called with the node's chain key on every residency transition:
            ``on_insert(key)`` when a block enters the index resident,
            ``on_spill(key)`` when its content demotes to the disk tier,
            ``on_restore(key)`` when a spilled block becomes resident again
            (disk restore, re-adoption, or migration import), and
            ``on_evict(key)`` when the node leaves the index entirely.
    """

    def __init__(
        self,
        allocator: BlockAllocator,
        hash_fn: "Callable[[bytes, np.ndarray], bytes] | None" = None,
        spill_store: SwapSpace | None = None,
        spill_codec: "KVBlockCodec | None" = None,
    ) -> None:
        self.allocator = allocator
        self.block_size = allocator.block_size
        self._hash = hash_fn or _default_hash
        self._nodes: dict[bytes, _Node] = {}
        self._tick = 0
        self.stats = PrefixCacheStats()
        self.spill_store = spill_store
        self.spill_codec = spill_codec
        self.observer = None
        #: ids of PQSnapshots whose payload is currently accounted as
        #: disk-resident (so a snapshot shared by many spilled nodes is
        #: charged once per residency transition, not once per node)
        self._spilled_snapshot_ids: set[int] = set()
        #: chain keys currently being swapped back in by a match — the
        #: re-entrant eviction a restore's own allocation can trigger must
        #: not remove these nodes (or discard their in-flight handles)
        self._restoring: set[bytes] = set()

    def __len__(self) -> int:
        """Number of cached blocks (resident + spilled)."""
        return len(self._nodes)

    @property
    def num_resident(self) -> int:
        """Cached blocks currently backed by a pool block."""
        return sum(1 for node in self._nodes.values() if not node.spilled)

    @property
    def num_spilled(self) -> int:
        """Cached blocks currently parked on the disk spill tier."""
        return len(self._nodes) - self.num_resident

    def _notify(self, event: str, key: bytes) -> None:
        """Publish one residency event to the observer (if any)."""
        if self.observer is not None:
            getattr(self.observer, "on_" + event)(key)

    # --------------------------------------------------------------- match

    def _collides(self, node: "_Node | None", tokens: np.ndarray) -> bool:
        """Hash collision: the slot belongs to a different chain.  Counted,
        and a miss to every walk — correctness never depends on the hash."""
        if node is None or np.array_equal(node.token_ids, tokens):
            return False
        self.stats.collisions += 1
        return True

    def _walk(self, token_ids: np.ndarray) -> list[_Node]:
        """Longest chain of cached nodes matching the prompt's full blocks."""
        nodes: list[_Node] = []
        for key, tokens in _chain(token_ids, self.block_size, self._hash):
            node = self._nodes.get(key)
            if node is None or self._collides(node, tokens):
                break
            nodes.append(node)
        return nodes

    def match(
        self,
        token_ids: Sequence[int],
        fingerprint: object = None,
        max_useful_tokens: "int | None" = None,
    ) -> PrefixMatch | None:
        """Longest-prefix lookup for an incoming prompt.

        Args:
            token_ids: the request's prompt token ids.
            fingerprint: policy fingerprint to select PQ snapshots with
                (``None`` returns no PQ payload).
            max_useful_tokens: upper bound on the tokens the caller can
                actually reuse (a policy's aggregate-boundary or
                ``len(prompt) - 1`` cap).  Nodes entirely beyond it are
                dropped from the match *before* any spilled block is
                restored from disk — a long cold chain must not charge NVMe
                reads and pool allocations for blocks the caller will never
                attach.  ``None`` matches (and restores) the full chain.

        Returns:
            A :class:`PrefixMatch`, or ``None`` on a complete miss.
        """
        token_ids = np.asarray(list(token_ids), dtype=np.int64)
        self.stats.queries += 1
        self.stats.lookup_tokens += int(token_ids.size)
        nodes = self._walk(token_ids)
        if max_useful_tokens is not None:
            nodes = [
                node for node in nodes
                if node.end_pos(self.block_size) - self.block_size
                < max_useful_tokens
            ]
        if not nodes:
            return None
        self._tick += 1
        for node in nodes:
            node.last_used = self._tick
        nodes = self._restore_chain(nodes)
        if not nodes:
            return None
        matched = nodes[-1].end_pos(self.block_size)
        acc: dict[int, list] = {}
        best_pq = None
        best_valid = 0
        best_end = 0
        for node in nodes:
            end = node.end_pos(self.block_size)
            if node.acc_scores is not None:
                acc[end] = node.acc_scores
            if fingerprint is not None:
                snap = node.pq_snapshots.get(fingerprint)
                if snap is None:
                    continue
                # A snapshot is only trustworthy up to the end of the node
                # holding it: its deeper codes were built from the producer's
                # *own* continuation, which may diverge from this prompt
                # right after the node.  Rank candidates by that effective
                # coverage — never by their raw length — and skip any whose
                # usable prefix does not even cover its own sketch.
                valid = min(snap.num_tokens, end)
                if valid >= snap.sketch_upto and valid > best_valid:
                    best_pq, best_valid, best_end = snap, valid, end
        if (
            best_pq is not None
            and best_end < matched
            and best_pq.num_tokens > best_valid
        ):
            # Found on a shallow node of a longer match: clamp the handout so
            # a consumer can never adopt codes of the foreign continuation.
            # (On the deepest node this is unnecessary — reuse is capped at
            # ``matched_tokens`` anyway — and skipping it keeps the original
            # snapshot object, with its attach accounting, in circulation.)
            best_pq = best_pq.truncated(best_valid)
        self.stats.hits += 1
        self.stats.hit_tokens += matched
        return PrefixMatch(
            matched_tokens=matched,
            block_ids=[node.block_id for node in nodes],
            acc_boundaries=acc,
            pq_snapshot=best_pq,
        )

    def _restore_chain(self, nodes: "list[_Node]") -> "list[_Node]":
        """Bring a matched chain's spilled nodes back into pool blocks.

        Every spilled node on the chain is swapped in from the disk tier into
        a freshly allocated block (the cache takes over the new block's
        reference).  Allocation may evict/spill *other* cold chains through
        the allocator's eviction hook; the chain under restoration is
        shielded by a temporary extra reference on each already-restored
        block so a re-entrant eviction cannot cannibalise it.  When the pool
        cannot fit the whole chain the match is truncated at the first
        non-restorable node (a shorter hit, never an error).
        """
        if all(not node.spilled for node in nodes):
            return nodes
        assert self.spill_store is not None
        pinned: list[int] = []
        restored_upto = len(nodes)
        self._restoring = {node.key for node in nodes}
        try:
            for index, node in enumerate(nodes):
                if node.key not in self._nodes:
                    # A re-entrant eviction (fired by an earlier swap-in's
                    # allocation, with the disk tier full) hard-removed this
                    # node: its block id is stale — possibly already handed
                    # back out.  Truncate the match here; the visited prefix
                    # is pinned and safe.
                    restored_upto = index
                    break
                if node.spilled:
                    restored_wire = node.spill_handle.stored_wire_nbytes
                    try:
                        new_ids = self.spill_store.swap_in(
                            node.spill_handle, self.allocator
                        )
                    except CapacityError:
                        restored_upto = index
                        break
                    node.block_id = new_ids[0]
                    node.spill_handle = None
                    self.stats.restored_blocks += 1
                    self.stats.restored_wire_bytes += restored_wire
                    self._account_payload(node, spilled=False)
                    self._notify("restore", node.key)
                self.allocator.incref(node.block_id)
                pinned.append(node.block_id)
        finally:
            self._restoring = set()
            for block_id in pinned:
                self.allocator.decref(block_id)
        return nodes[:restored_upto]

    def _account_payload(self, node: _Node, spilled: bool) -> None:
        """Charge artifact payload bytes for one residency transition.

        Accumulated-score snapshots are node-private and charged per node;
        PQ snapshots are shared across the nodes they cover and charged once
        per transition of the *snapshot* (tracked by identity), which models
        spilling the artifact file once per chain rather than per block —
        PQ codes being ~1/64th of the KV bytes, this rides along nearly free.
        """
        nbytes = 0
        if node.acc_scores is not None:
            nbytes += int(sum(np.asarray(a).nbytes for a in node.acc_scores))
        for snap in node.pq_snapshots.values():
            if spilled and id(snap) not in self._spilled_snapshot_ids:
                self._spilled_snapshot_ids.add(id(snap))
                nbytes += snap.nbytes()
            elif not spilled and id(snap) in self._spilled_snapshot_ids:
                self._spilled_snapshot_ids.discard(id(snap))
                nbytes += snap.nbytes()
        if spilled:
            self.stats.spilled_payload_bytes += nbytes
        else:
            self.stats.restored_payload_bytes += nbytes

    # -------------------------------------------------------------- insert

    def insert(
        self,
        token_ids: Sequence[int],
        block_ids: Sequence[int],
        acc_boundary: int = 0,
        acc_scores: "list | None" = None,
        pq_fingerprint: object = None,
        pq_snapshot: object = None,
    ) -> int:
        """Cache a request's full prompt/output blocks and artifact payloads.

        Walks the chain, reusing existing nodes (two identical cold prompts
        racing keep the first request's blocks) and increfing + indexing the
        request's blocks for the new tail.  Artifact payloads are attached to
        the chain where valid: the accumulated-score snapshot at its exact
        boundary node, the PQ snapshot on every node it covers (deepest
        snapshot wins when several producers share a chain).

        Args:
            token_ids: the tokens backing ``block_ids`` (prompt, optionally
                followed by generated tokens); only full blocks are cached.
            block_ids: the request's block table entries for those tokens.
            acc_boundary: block-aligned position of ``acc_scores`` (0 = none).
            acc_scores: per-layer ``(num_heads, acc_boundary)`` snapshots.
            pq_fingerprint: policy fingerprint keying ``pq_snapshot``.
            pq_snapshot: :class:`~repro.core.pqcache.PQSnapshot` to share.

        Returns:
            Number of newly cached blocks.
        """
        token_ids = np.asarray(list(token_ids), dtype=np.int64)
        block = self.block_size
        num_full = int(token_ids.size) // block
        if acc_boundary and acc_boundary % block != 0:
            raise ConfigurationError(
                f"acc_boundary ({acc_boundary}) must be block-aligned ({block})"
            )
        if len(block_ids) * block < num_full * block:
            raise ConfigurationError(
                f"{len(block_ids)} blocks cannot back {num_full} full "
                "token blocks"
            )
        self._tick += 1
        parent: _Node | None = None
        created = 0
        chain = _chain(token_ids, block, self._hash)
        for (key, tokens), block_id in zip(chain, map(int, block_ids)):
            node = self._nodes.get(key)
            if self._collides(node, tokens):
                # Stop caching here rather than evict the resident chain
                # (first writer wins).
                break
            if node is None or node.spilled:
                # A spilled node means the same prompt came back with its
                # own freshly computed blocks: adopt the inserting request's
                # block instead of reading the spilled copy back from disk —
                # prefill is deterministic, so the contents are bitwise
                # identical, and no disk read is charged.
                self.allocator.incref(block_id)
                if node is None:
                    created += 1
                else:
                    self.stats.readopted_blocks += 1
                node = self._adopt(node, key, tokens, parent, block_id)
            node.last_used = self._tick
            if acc_scores is not None and node.end_pos(block) == acc_boundary:
                node.acc_scores = acc_scores
            if pq_snapshot is not None and pq_fingerprint is not None:
                self._hold_snapshot(node, pq_fingerprint, pq_snapshot)
            parent = node
        return created

    def _adopt(
        self,
        node: "_Node | None",
        key: bytes,
        tokens: np.ndarray,
        parent: "_Node | None",
        block_id: int,
    ) -> _Node:
        """Give chain slot ``key`` the resident ``block_id`` (the cache's
        reference on it already taken): a new node under ``parent``, or the
        spilled ``node`` healed — its parked copy dropped and its snapshots
        marked RAM-resident again for future spill charges."""
        if node is None:
            depth = (parent.depth if parent is not None else 0) + 1
            node = _Node(key, parent, block_id, depth, tokens.copy())
            self._nodes[key] = node
            if parent is not None:
                parent.children += 1
            self.stats.inserted_blocks += 1
            self._notify("insert", key)
        else:
            assert self.spill_store is not None
            self.spill_store.discard(node.spill_handle)
            node.spill_handle = None
            node.block_id = block_id
            for snap in node.pq_snapshots.values():
                self._spilled_snapshot_ids.discard(id(snap))
            self._notify("restore", key)
        return node

    def _hold_snapshot(self, node: _Node, fingerprint: object, snapshot) -> None:
        """Store ``snapshot`` on ``node`` unless it holds one at least as
        deep.  The node takes a hold on what it stores and releases the one
        it replaces (eviction releases the rest), so ``hold_count`` stays
        balanced across arbitrary evict/re-insert cycles."""
        existing = node.pq_snapshots.get(fingerprint)
        if existing is not None:
            if snapshot.num_tokens <= existing.num_tokens:
                return
            existing.release_hold()
            if existing.hold_count == 0:
                # No node holds the replaced snapshot anymore: forget its
                # disk-residency marker before CPython can recycle its id()
                # for a new snapshot.
                self._spilled_snapshot_ids.discard(id(existing))
        snapshot.retain()
        node.pq_snapshots[fingerprint] = snapshot

    # ----------------------------------------------------------- migration

    def export_chain(
        self,
        token_ids: Sequence[int],
        codec: "KVBlockCodec | None" = None,
    ) -> "ExportedChain | None":
        """Package this cache's longest chain matching a prompt for migration.

        A pure read: resident blocks are encoded through ``codec`` (``None``
        means the raw identity codec), spilled blocks ship their *parked
        encoded payload* as-is through
        :meth:`~repro.llm.kvcache.SwapSpace.peek_encoded` — no decode on the
        export side, and the parked copy stays valid, so a later local
        restore of the same chain is billed independently by its own
        swap-in; the export itself never touches the restore counters.
        Artifact payloads travel by reference.  The caller bills the
        transfer: ``disk_wire_nbytes`` of the result crossed the source's
        NVMe, ``kv_wire_nbytes`` cross PCIe into the importing worker's
        pool, and the importer decodes each block exactly once.

        Returns ``None`` when the prompt matches nothing.
        """
        token_ids = np.asarray(list(token_ids), dtype=np.int64)
        nodes = self._walk(token_ids)
        if not nodes:
            return None
        if codec is None:
            codec = RawCodec(self.allocator.dtype_bytes)
        exported = ExportedChain(block_size=self.block_size)
        for node in nodes:
            if node.spilled:
                assert self.spill_store is not None
                keys, values = self.spill_store.peek_encoded(node.spill_handle)
                key_block, value_block = keys[0], values[0]
            else:
                key_block = codec.encode(
                    self.allocator.block_keys(node.block_id)
                )
                value_block = codec.encode(
                    self.allocator.block_values(node.block_id)
                )
            exported.nodes.append(
                ExportedChainNode(
                    token_ids=node.token_ids.copy(),
                    keys=key_block,
                    values=value_block,
                    from_disk=node.spilled,
                    acc_scores=node.acc_scores,
                    pq_snapshots=dict(node.pq_snapshots),
                )
            )
            self.stats.exported_blocks += 1
        return exported

    def import_chain(self, exported: ExportedChain) -> int:
        """Adopt another worker's exported chain into this cache.

        Walks the chain like :meth:`insert`, but the blocks are allocated
        *here* and written from the decoded exported payloads — bitwise for
        lossless codecs, within the declared per-element error bound for
        lossy ones; each block decodes exactly once: missing nodes
        are created, locally *spilled* nodes are healed with the migrated
        bytes (cheaper than a local disk read that the caller would have to
        bill separately), and already-resident nodes are left untouched.
        Artifact payloads attach as in :meth:`insert` (deepest snapshot
        wins), so sharing snapshots across workers keeps ``hold_count``
        auditable.

        Allocation pressure truncates rather than fails: a
        :class:`~repro.errors.CapacityError` mid-import leaves a valid
        shorter prefix in the index (everything already written stays).

        Returns:
            Number of blocks actually written into this cache's pool.
        """
        if exported.block_size != self.block_size:
            raise ConfigurationError(
                f"imported chain has block size {exported.block_size}, "
                f"this cache uses {self.block_size}"
            )
        self._tick += 1
        key = _ROOT_KEY
        parent: _Node | None = None
        written = 0
        for record in exported.nodes:
            tokens = np.asarray(record.token_ids, dtype=np.int64)
            key = self._hash(key, tokens)
            node = self._nodes.get(key)
            if self._collides(node, tokens):
                break
            if node is None or node.spilled:
                try:
                    block_id = self.allocator.allocate()
                except CapacityError:
                    break  # a shorter imported prefix is still a valid chain
                if parent is not None and parent.key not in self._nodes:
                    # The allocator's eviction hook reclaimed the chain head
                    # mid-import (a pool this tight cannot host the chain);
                    # attaching a child to a removed parent would leave
                    # unreachable index entries, so stop at the valid prefix.
                    self.allocator.decref(block_id)
                    break
                self.allocator.block_keys(block_id)[...] = record.keys.decode()
                self.allocator.block_values(block_id)[...] = (
                    record.values.decode()
                )
                node = self._adopt(node, key, tokens, parent, block_id)
                written += 1
                self.stats.imported_blocks += 1
            node.last_used = self._tick
            if record.acc_scores is not None and node.acc_scores is None:
                node.acc_scores = record.acc_scores
            for fingerprint, snapshot in record.pq_snapshots.items():
                self._hold_snapshot(node, fingerprint, snapshot)
            parent = node
        return written

    # ------------------------------------------------------------ eviction

    def evict(self, num_blocks: int = 1) -> int:
        """Free at least ``num_blocks`` pool blocks by demoting cold chains.

        With a spill store, a cold node's block content moves to the disk
        tier (the node stays in the index and a later match restores it);
        the structural leaf-only constraint does not apply because nothing
        is removed.  Without one — or when the disk tier is full — nodes are
        dropped outright, and then only *leaf* nodes (no cached children)
        are candidates, since dropping an interior node would orphan its
        descendants' chain keys.  Either way only nodes whose block nobody
        but the cache references actually free pool space.  Candidates are
        taken least-recently-used first; freeing a leaf may expose its
        parent, so the walk continues until the target is met or nothing
        evictable remains.

        Returns:
            Number of blocks actually returned to the allocator's free list.
        """
        freed = 0
        # One LRU-sorted snapshot per call; chains are walked tail-first by
        # re-passing over it (freeing a leaf exposes its parent, which sits
        # nearby in LRU order since a chain is touched as a unit), instead
        # of a full fresh scan per freed block.  Only resident nodes go in:
        # nothing inside this call makes a spilled node resident again.
        candidates = sorted(
            (node for node in self._nodes.values() if node.spill_handle is None),
            key=_last_used,
        )
        whole_index = None
        progressed = True
        spill_full = self.spill_store is None
        while freed < num_blocks and progressed:
            progressed = False
            for node in candidates:
                if freed >= num_blocks:
                    break
                if node.key not in self._nodes or node.spilled:
                    continue
                if self.allocator.refcount(node.block_id) != 1:
                    continue  # an active request still holds the block
                if not spill_full:
                    try:
                        self._spill(node)
                    except CapacityError:
                        spill_full = True  # disk tier full: hard-evict instead
                    else:
                        freed += 1
                        progressed = True
                        continue
                if node.children or node.key in self._restoring:
                    continue  # must not orphan descendants / break a restore
                self._remove(node)
                freed += 1
                self.stats.evicted_blocks += 1
                progressed = True
            if not progressed and self.spill_store is not None:
                # Stuck with a full disk tier: every resident candidate has a
                # *spilled* descendant blocking its hard removal.  Drop the
                # coldest spilled leaf permanently — that frees disk room
                # (spilling works again next pass) and exposes its parent —
                # rather than wedging the pool on cold disk data.  This is
                # the one place the spilled nodes' LRU order matters, so the
                # whole index is sorted here, once, and not on every call
                # (a resident node may yet spill and become that leaf).
                if whole_index is None:
                    whole_index = sorted(self._nodes.values(), key=_last_used)
                for node in whole_index:
                    if (
                        node.key in self._nodes
                        and node.spilled
                        and node.children == 0
                        and node.key not in self._restoring
                    ):
                        self._remove(node)
                        self.stats.dropped_spilled_blocks += 1
                        spill_full = False
                        progressed = True
                        break
        return freed

    def _spill(self, node: _Node) -> None:
        """Demote one resident node's block content to the disk tier."""
        assert self.spill_store is not None
        handle = self.spill_store.swap_out(
            self.allocator, [node.block_id], tier="disk",
            codec=self.spill_codec,
        )
        self.allocator.decref(node.block_id)
        node.block_id = -1
        node.spill_handle = handle
        self.stats.spilled_blocks += 1
        self.stats.spilled_wire_bytes += handle.stored_wire_nbytes
        self._account_payload(node, spilled=True)
        self._notify("spill", node.key)

    def clear(self) -> int:
        """Drop every cached node (releases all cache-held block refs)."""
        dropped = 0
        while self._nodes:
            for node in list(self._nodes.values()):
                if node.children == 0:
                    self._remove(node)
                    dropped += 1
        return dropped

    def _remove(self, node: _Node) -> None:
        del self._nodes[node.key]
        if node.parent is not None:
            node.parent.children -= 1
        if node.spilled:
            assert self.spill_store is not None
            self.spill_store.discard(node.spill_handle)
            node.spill_handle = None
        else:
            self.allocator.decref(node.block_id)
        # Symmetric artifact-refcount release: the node's storage holds die
        # with it.  Before this, repeated evict/re-insert cycles leaked one
        # hold per cycle and ``hold_count`` could never reach zero again.
        for snap in node.pq_snapshots.values():
            snap.release_hold()
            if snap.hold_count == 0:
                self._spilled_snapshot_ids.discard(id(snap))
        node.pq_snapshots = {}
        self._notify("evict", node.key)

    # ----------------------------------------------------------- reporting

    def describe(self) -> dict:
        return {
            "blocks": len(self._nodes),
            "resident_blocks": self.num_resident,
            "spilled_blocks_now": self.num_spilled,
            "block_size": self.block_size,
            "queries": self.stats.queries,
            "hit_rate": self.stats.hit_rate,
            "token_hit_rate": self.stats.token_hit_rate,
            "inserted_blocks": self.stats.inserted_blocks,
            "evicted_blocks": self.stats.evicted_blocks,
            "spilled_blocks": self.stats.spilled_blocks,
            "restored_blocks": self.stats.restored_blocks,
            "readopted_blocks": self.stats.readopted_blocks,
            "collisions": self.stats.collisions,
        }
