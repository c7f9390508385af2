"""KVCache memory and transfer cost model (Figure 1 and §3.2 accounting).

Figure 1 of the paper shows how KVCache memory grows with batch size, model
size, and sequence length, and the theoretical CPU→GPU transfer latency over
PCIe Gen 5.  This module reproduces those curves analytically from model
geometry and interconnect bandwidth, and also provides the §3.2 complexity
formulas so benchmarks can check the asymptotic claims (PQ overhead is linear
in ``s`` with a small multiplier ``h_kv * m``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pqcache import PQCacheConfig
from repro.llm.config import ModelConfig
from repro.memory.devices import InterconnectSpec, StorageSpec

__all__ = ["KVCacheCostModel", "ComplexityModel"]

_GIB = float(1024 ** 3)


@dataclass(frozen=True)
class KVCacheCostModel:
    """Memory/transfer accounting for a model's KVCache.

    ``storage`` is optional: capacity planning for a single instance only
    needs the interconnect, but cluster-level planning (cross-worker chain
    migration, disk spill) also prices the NVMe leg.
    """

    model: ModelConfig
    interconnect: InterconnectSpec
    storage: "StorageSpec | None" = None

    def kvcache_gib(self, seq_len: int, batch_size: int = 1) -> float:
        """KVCache size in GiB for a batch of sequences."""
        return self.model.kvcache_bytes(seq_len, batch_size) / _GIB

    def transfer_seconds(self, seq_len: int, batch_size: int = 1) -> float:
        """Time to move the whole KVCache across the interconnect once."""
        num_bytes = self.model.kvcache_bytes(seq_len, batch_size)
        return self.interconnect.transfer_seconds(num_bytes)

    def migration_seconds(
        self, seq_len: int, batch_size: int = 1, from_disk: bool = False
    ) -> float:
        """Time to migrate a chain's KV to another worker once.

        The PCIe leg always applies (the bytes enter the target GPU's
        pool); ``from_disk`` adds the owning worker's NVMe read of a
        spilled chain, serialised before the transfer — the same
        dependency shape :meth:`~repro.memory.LatencyModel.migration_timeline`
        bills inside the serving cluster.
        """
        num_bytes = self.model.kvcache_bytes(seq_len, batch_size)
        seconds = self.interconnect.transfer_seconds(num_bytes)
        if from_disk:
            if self.storage is None:
                raise ValueError(
                    "from_disk migration accounting needs a StorageSpec"
                )
            seconds += self.storage.read_seconds(num_bytes)
        return seconds

    def fits_in_gpu(self, seq_len: int, batch_size: int, gpu_memory_gib: float) -> bool:
        """Whether the KVCache alone fits in ``gpu_memory_gib``."""
        return self.kvcache_gib(seq_len, batch_size) <= gpu_memory_gib

    def sweep(self, seq_lens, batch_sizes) -> list[dict]:
        """Grid of (seq_len, batch) -> memory and transfer latency rows."""
        rows = []
        for batch in batch_sizes:
            for seq_len in seq_lens:
                rows.append(
                    {
                        "model": self.model.name,
                        "batch_size": int(batch),
                        "seq_len": int(seq_len),
                        "kvcache_gib": self.kvcache_gib(seq_len, batch),
                        "transfer_seconds": self.transfer_seconds(seq_len, batch),
                    }
                )
        return rows


@dataclass(frozen=True)
class ComplexityModel:
    """Closed-form operation counts from §3.2 of the paper."""

    model: ModelConfig
    pq: PQCacheConfig

    def prefill_attention_ops(self, seq_len: int) -> float:
        """O(s^2 d / h + s d^2): per-layer prefill matmul operations."""
        d = self.model.hidden_dim
        h = self.model.num_heads
        return float(seq_len) ** 2 * d / h + float(seq_len) * d * d

    def kmeans_ops(self, seq_len: int, iterations: int) -> float:
        """O(s h_kv m d_m 2^b T): clustering work for one layer."""
        d_m = self.model.head_dim // self.pq.num_partitions
        return (
            float(seq_len)
            * self.model.num_kv_heads
            * self.pq.num_partitions
            * d_m
            * (1 << self.pq.num_bits)
            * iterations
        )

    def decode_original_ops(self, seq_len: int) -> float:
        """O(s d + d^2): per-layer decode work with full attention."""
        d = self.model.hidden_dim
        return float(seq_len) * d + d * d

    def decode_pq_ops(self, seq_len: int, k: int) -> float:
        """O(2^b d^2/(h m) + h_kv m s + k d + d^2): PQCache decode work."""
        d = self.model.hidden_dim
        h = self.model.num_heads
        m = self.pq.num_partitions
        return (
            (1 << self.pq.num_bits) * d * d / (h * m)
            + self.model.num_kv_heads * m * float(seq_len)
            + float(k) * d
            + d * d
        )

    def pq_memory_elements(self, seq_len: int) -> float:
        """O(h_kv m s + h_kv 2^b d_h): PQ codes + centroids element count."""
        return (
            self.model.num_kv_heads * self.pq.num_partitions * float(seq_len)
            + self.model.num_kv_heads * (1 << self.pq.num_bits) * self.model.head_dim
        )

    def seq_multiplier_ratio(self) -> float:
        """Ratio of the decode-time sequence-length multiplier of PQCache
        (``h_kv * m``) to the original attention multiplier (``d``).

        §3.2 argues this is much smaller than 1 (e.g. 8*2/4096 for a 7B
        model), which is why PQ search is cheap relative to dense attention.
        """
        return (
            self.model.num_kv_heads * self.pq.num_partitions
            / float(self.model.hidden_dim)
        )
