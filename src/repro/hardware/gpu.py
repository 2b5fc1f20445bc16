"""GPU data-movement model: HBM, host link, GPUDirect RDMA, Unified Memory.

Section 5 of the paper distinguishes three ways MPI data reaches the NIC on
a GPU node:

* **manual staging** -- cudaMemcpy to the host, MPI from host buffers;
* **CUDA-aware MPI + GPUDirect (CA)** -- the NIC DMAs device memory
  directly (no staging, works with ``cudaMalloc`` memory, no MemMap);
* **Unified Memory / ATS (UM)** -- host-allocated, page-fault-migrated
  memory usable by both CPU and GPU; MemMap works here because the mapping
  lives in the host page tables.

The model charges each path exactly the bytes it moves over each link, plus
a per-page fault cost for UM (64 KiB pages on Summit's Power9 hosts).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GpuModel"]


@dataclass(frozen=True)
class GpuModel:
    """Single-GPU data movement capability.

    Parameters
    ----------
    hbm_bw:
        Device memory bandwidth, bytes/s (V100: 828.8 GB/s).
    peak_flops:
        Device double-precision peak, flop/s (V100: 7.8 Tflop/s).
    host_link_bw:
        CPU<->GPU transfer bandwidth per direction, bytes/s (NVLink2 on
        Summit: ~50 GB/s).
    host_link_latency:
        Fixed cost per explicit cudaMemcpy call.
    rdma_efficiency:
        Fraction of the network's peak bandwidth GPUDirect RDMA achieves
        (reading HBM over PCIe/NVLink from the NIC loses a little).
    page_size:
        Unified-Memory page granularity in bytes (Summit: 64 KiB).
    fault_overhead:
        Fixed cost of servicing one UM page fault (GPU or CPU side);
        ATS/NVLink2 fault batching makes this sub-microsecond in the
        steady state (calibrated so MemMap_UM's achieved bandwidth stays
        near-flat, Table 2).
    um_bw:
        Migration bandwidth for batched faulted pages, bytes/s.
    """

    hbm_bw: float = 828.8e9
    peak_flops: float = 7.8e12
    host_link_bw: float = 50e9
    host_link_latency: float = 10e-6
    rdma_efficiency: float = 0.95
    page_size: int = 64 * 1024
    fault_overhead: float = 0.5e-6
    um_bw: float = 60e9

    def __post_init__(self) -> None:
        if min(self.hbm_bw, self.peak_flops, self.host_link_bw, self.um_bw) <= 0:
            raise ValueError("bandwidths and peak flops must be positive")
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if not 0 < self.rdma_efficiency <= 1:
            raise ValueError("rdma_efficiency must be in (0, 1]")

    # ------------------------------------------------------------------
    def staged_copy_time(self, nbytes: int, ncopies: int = 1) -> float:
        """Explicit cudaMemcpy of *nbytes* split over *ncopies* calls."""
        if nbytes < 0 or ncopies < 0:
            raise ValueError("sizes must be non-negative")
        if nbytes == 0 or ncopies == 0:
            return 0.0
        return ncopies * self.host_link_latency + nbytes / self.host_link_bw
