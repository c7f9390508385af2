"""Device models for the GPU-CPU memory hierarchy (paper §2.3).

The paper's efficiency experiments run on an RTX 4090 connected to two Xeon
Gold 6330 CPUs over PCIe 1.0 x16.  Without that hardware, latency results are
reproduced with an analytical model parameterised by published device
characteristics: sustained compute throughput, memory bandwidth, and
interconnect bandwidth.  Absolute numbers will differ from the paper's
measurements; the *shapes* (what scales linearly vs quadratically, what can
overlap with what) are what the benchmarks check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError

__all__ = ["GpuSpec", "CpuSpec", "InterconnectSpec", "StorageSpec", "HardwareSpec"]


@dataclass(frozen=True)
class GpuSpec:
    """GPU compute/memory characteristics.

    Attributes:
        name: label used in reports.
        tflops: sustained half-precision throughput in TFLOP/s (matmul-bound
            kernels rarely exceed ~60-70% of peak; use a sustained figure).
        memory_gb: device memory capacity.
        memory_bandwidth_gbps: HBM/GDDR bandwidth in GB/s.
    """

    name: str
    tflops: float
    memory_gb: float
    memory_bandwidth_gbps: float

    def __post_init__(self) -> None:
        if self.tflops <= 0 or self.memory_gb <= 0 or self.memory_bandwidth_gbps <= 0:
            raise ConfigurationError("GPU spec values must be positive")

    def compute_seconds(self, flops: float) -> float:
        """Time to execute ``flops`` floating-point operations."""
        return float(flops) / (self.tflops * 1e12)

    def memory_seconds(self, num_bytes: float) -> float:
        """Time to stream ``num_bytes`` through device memory."""
        return float(num_bytes) / (self.memory_bandwidth_gbps * 1e9)

    @classmethod
    def rtx4090(cls) -> "GpuSpec":
        return cls("rtx-4090", tflops=82.6 * 0.6, memory_gb=24.0,
                   memory_bandwidth_gbps=1008.0)

    @classmethod
    def a100_80g(cls) -> "GpuSpec":
        return cls("a100-80g", tflops=312.0 * 0.55, memory_gb=80.0,
                   memory_bandwidth_gbps=2039.0)


@dataclass(frozen=True)
class CpuSpec:
    """Host CPU characteristics relevant to K-Means clustering.

    Attributes:
        name: label.
        cores: physical cores available for clustering workers.
        gflops_per_core: sustained per-core throughput for the distance
            computations (memory-bound K-Means rarely exceeds a few GFLOP/s).
        memory_gb: host memory capacity (holds the offloaded KVCache).
    """

    name: str
    cores: int
    gflops_per_core: float
    memory_gb: float

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.gflops_per_core <= 0 or self.memory_gb <= 0:
            raise ConfigurationError("CPU spec values must be positive")

    def compute_seconds(self, flops: float, parallel_workers: int | None = None) -> float:
        """Time to execute ``flops`` across ``parallel_workers`` cores."""
        workers = self.cores if parallel_workers is None else min(parallel_workers, self.cores)
        return float(flops) / (workers * self.gflops_per_core * 1e9)

    @classmethod
    def dual_xeon_6330(cls) -> "CpuSpec":
        # 2 sockets x 28 cores; K-Means distance kernels run at a few GFLOP/s
        # per core in practice.
        return cls("2x-xeon-gold-6330", cores=56, gflops_per_core=3.0, memory_gb=500.0)


@dataclass(frozen=True)
class InterconnectSpec:
    """CPU-GPU interconnect characteristics.

    Attributes:
        name: label.
        bandwidth_gbps: sustained unidirectional bandwidth in GB/s.
        latency_us: per-transfer fixed latency in microseconds.
    """

    name: str
    bandwidth_gbps: float
    latency_us: float = 10.0

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0 or self.latency_us < 0:
            raise ConfigurationError("interconnect spec values must be positive")

    def transfer_seconds(self, num_bytes: float, num_transfers: int = 1) -> float:
        """Time to move ``num_bytes`` split across ``num_transfers`` copies."""
        return (
            float(num_bytes) / (self.bandwidth_gbps * 1e9)
            + num_transfers * self.latency_us * 1e-6
        )

    @classmethod
    def pcie1_x16(cls) -> "InterconnectSpec":
        """PCIe 1.0 x16 (~4 GB/s), the paper's default interconnect."""
        return cls("pcie-1.0-x16", bandwidth_gbps=4.0)

    @classmethod
    def pcie4_x16(cls) -> "InterconnectSpec":
        return cls("pcie-4.0-x16", bandwidth_gbps=32.0)

    @classmethod
    def pcie5_x16(cls) -> "InterconnectSpec":
        """PCIe 5.0 x16 (~64 GB/s), used for the Figure 1 transfer estimate."""
        return cls("pcie-5.0-x16", bandwidth_gbps=64.0)


@dataclass(frozen=True)
class StorageSpec:
    """Local storage (NVMe SSD) backing the disk tier of the KV hierarchy.

    Attributes:
        name: label.
        read_gbps: sustained sequential read bandwidth in GB/s.
        write_gbps: sustained sequential write bandwidth in GB/s.
        latency_us: per-operation fixed latency in microseconds (an NVMe
            round-trip is orders of magnitude above a PCIe doorbell, which is
            why disk is strictly the *cold* tier).
    """

    name: str
    read_gbps: float
    write_gbps: float
    latency_us: float = 80.0

    def __post_init__(self) -> None:
        if self.read_gbps <= 0 or self.write_gbps <= 0 or self.latency_us < 0:
            raise ConfigurationError("storage spec values must be positive")

    def read_seconds(self, num_bytes: float, num_ops: int = 1) -> float:
        """Time to read ``num_bytes`` from the device."""
        return float(num_bytes) / (self.read_gbps * 1e9) + num_ops * self.latency_us * 1e-6

    def write_seconds(self, num_bytes: float, num_ops: int = 1) -> float:
        """Time to write ``num_bytes`` to the device."""
        return float(num_bytes) / (self.write_gbps * 1e9) + num_ops * self.latency_us * 1e-6

    @classmethod
    def nvme_gen4(cls) -> "StorageSpec":
        """Consumer PCIe 4.0 NVMe drive (~7/5 GB/s sequential)."""
        return cls("nvme-gen4", read_gbps=7.0, write_gbps=5.0)


@dataclass(frozen=True)
class HardwareSpec:
    """A complete host: GPU + CPU + interconnect + local storage."""

    gpu: GpuSpec
    cpu: CpuSpec
    interconnect: InterconnectSpec
    storage: StorageSpec = field(default_factory=StorageSpec.nvme_gen4)

    @classmethod
    def paper_testbed(cls) -> "HardwareSpec":
        """RTX 4090 + dual Xeon 6330 + PCIe 1.0 x16 (paper §4.1.4)."""
        return cls(GpuSpec.rtx4090(), CpuSpec.dual_xeon_6330(), InterconnectSpec.pcie1_x16())

    @classmethod
    def a100_host(cls) -> "HardwareSpec":
        return cls(GpuSpec.a100_80g(), CpuSpec.dual_xeon_6330(), InterconnectSpec.pcie4_x16())
