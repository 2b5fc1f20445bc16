"""Simulated GPU data movement (paper Section 5).

No CUDA device exists in this environment, so the GPU experiments run the
same executed exchange paths as the CPU ones while a *transport* strategy
charges the modelled cost of getting MPI data to and from the (simulated)
device:

* :class:`CudaAwareTransport` -- GPUDirect RDMA: the NIC DMAs device
  memory, no staging, no page faults (``Layout_CA``; MemMap is unsupported
  on ``cudaMalloc`` memory, matching the paper's footnote on cuMemMap).
* :class:`UnifiedMemoryTransport` -- ATS/UM: host-allocated pages migrate
  on fault; MPI on UM pointers pays per-page fault + migration costs, and
  the GPU pays first-touch costs after receives (``Layout_UM``,
  ``MemMap_UM``, ``MPI_Types_UM``).
* :class:`StagedTransport` -- classic manual cudaMemcpy staging through
  host buffers (the pre-CUDA-aware world the paper's prior work measured).
"""

from repro.gpu.transports import (
    CudaAwareTransport,
    GpuTransport,
    StagedTransport,
    UnifiedMemoryTransport,
)

__all__ = [
    "CudaAwareTransport",
    "GpuTransport",
    "StagedTransport",
    "UnifiedMemoryTransport",
]
