"""GPU transport strategies: how MPI bytes reach the device.

Each transport turns an exchange's message schedule into three modelled
quantities:

* ``extra_wait(sends, recvs)`` -- time added inside the MPI wait (page
  faults servicing the NIC for UM, nothing for CUDA-aware);
* ``move(sends, recvs)`` -- explicit CPU-GPU staging copies (manual mode
  only; the paper's point is that Layout/MemMap + CA/UM make this zero);
* ``compute_penalty(recv_specs)`` -- first-touch cost the *next kernel*
  pays to fault received pages onto the GPU.  This reproduces Figure 15:
  page-aligned MemMap regions fault cleanly, unaligned Layout_UM /
  MPI_Types_UM regions straddle extra pages.

``network()`` returns the (possibly derated) network model to price the
wire itself; :func:`make_transport` picks a method's transport.
"""

from __future__ import annotations

import abc
from dataclasses import replace
from typing import Optional, Sequence

from repro.exchange.schedule import MessageSpec
from repro.hardware.gpu import GpuModel
from repro.hardware.network import NetworkModel
from repro.util.indexing import ceil_div

__all__ = [
    "GpuTransport",
    "CudaAwareTransport",
    "UnifiedMemoryTransport",
    "StagedTransport",
    "make_transport",
]


class GpuTransport(abc.ABC):
    """Strategy pricing GPU-side data movement for one exchange."""

    #: suffix used in method names, e.g. "ca" -> "layout_ca"
    suffix = "abstract"
    #: whether MemMap's stitched views work over this memory kind
    supports_memmap = False

    def __init__(self, net: NetworkModel, gpu: GpuModel) -> None:
        self.base_net = net
        self.gpu = gpu

    @abc.abstractmethod
    def network(self) -> NetworkModel:
        """Network model seen by MPI on this memory kind."""

    def extra_wait(
        self, sends: Sequence[MessageSpec], recvs: Sequence[MessageSpec]
    ) -> float:
        return 0.0

    def move(
        self, sends: Sequence[MessageSpec], recvs: Sequence[MessageSpec]
    ) -> float:
        return 0.0

    def compute_penalty(self, recvs: Sequence[MessageSpec]) -> float:
        return 0.0

    # ------------------------------------------------------------------
    def _pages(self, nbytes: int) -> int:
        return ceil_div(nbytes, self.gpu.page_size)


class CudaAwareTransport(GpuTransport):
    """GPUDirect RDMA on cudaMalloc memory (``*_CA``).

    The NIC reads/writes HBM directly: no staging, no faults.  Reading
    device memory over the peer link costs a small bandwidth derate.
    MemMap is unsupported: cudaMalloc memory has no host-page-table
    mappings to stitch (paper footnote: cuMemMap is not available on
    Summit).
    """

    suffix = "ca"
    supports_memmap = False

    def network(self) -> NetworkModel:
        return replace(
            self.base_net, bw_peak=self.base_net.bw_peak * self.gpu.rdma_efficiency
        )


class UnifiedMemoryTransport(GpuTransport):
    """Unified Memory / ATS (``*_UM``): host pointers usable by the GPU.

    MPI runs on host-resident pages; pages the GPU last touched must fault
    back before the NIC can read them (charged in ``extra_wait``), and the
    received pages fault onto the GPU at next kernel launch (charged as a
    compute penalty).  Page-aligned messages (MemMap) fault exactly their
    pages; unaligned ones straddle one extra page per mapped run and pay a
    partial-page inefficiency -- the Figure 15 effect.
    """

    suffix = "um"
    supports_memmap = True

    #: Multiplier on the fault cost of page-*unaligned* regions.  A region
    #: that does not start/end on a page boundary shares pages with its
    #: neighbors in storage: the fault handler must merge partial-page
    #: writes (read-modify-write) instead of migrating whole pages, which
    #: is why Figure 15 shows Layout_UM / MPI_Types_UM computing slower
    #: than the page-aligned MemMap_UM.
    unaligned_penalty = 3.0

    def network(self) -> NetworkModel:
        # The NIC streams UM pages at most at the migration bandwidth.
        return replace(
            self.base_net, bw_peak=min(self.base_net.bw_peak, self.gpu.um_bw)
        )

    def _fault_cost(self, specs: Sequence[MessageSpec]) -> float:
        g = self.gpu
        total = 0.0
        for m in specs:
            pages = self._pages(m.wire_bytes)
            per_page = g.fault_overhead + g.page_size / g.um_bw
            if m.wire_bytes % g.page_size:
                # Unaligned regions migrate less efficiently throughout
                # (partial pages defeat fault batching: 1.5x per page) and
                # additionally straddle one extra page per mapped run,
                # each paying a read-modify-write merge.
                total += pages * per_page * 1.5
                total += m.nmappings * per_page * self.unaligned_penalty
            else:
                total += pages * per_page
        return total

    def extra_wait(
        self, sends: Sequence[MessageSpec], recvs: Sequence[MessageSpec]
    ) -> float:
        # Send-side pages migrate GPU -> host for the NIC to read them.
        return self._fault_cost(sends)

    def compute_penalty(self, recvs: Sequence[MessageSpec]) -> float:
        # Received pages fault host -> GPU on the next kernel.
        return self._fault_cost(recvs)


class StagedTransport(GpuTransport):
    """Manual cudaMemcpy staging through host buffers (pre-CA baseline)."""

    suffix = "staged"
    supports_memmap = False

    def network(self) -> NetworkModel:
        return self.base_net

    def move(
        self, sends: Sequence[MessageSpec], recvs: Sequence[MessageSpec]
    ) -> float:
        down = self.gpu.staged_copy_time(
            sum(m.payload_bytes for m in sends), len(sends)
        )
        up = self.gpu.staged_copy_time(
            sum(m.payload_bytes for m in recvs), len(recvs)
        )
        return down + up


def make_transport(info, profile) -> Optional[GpuTransport]:
    """The GPU transport of method *info* (a
    :class:`~repro.core.methods.MethodInfo`) on *profile*, or ``None``
    for CPU methods."""
    if info.transport is None:
        return None
    if profile.gpu is None:
        raise ValueError(
            f"method {info.name!r} needs a GPU profile; {profile.name} has none"
        )
    cls = {
        "ca": CudaAwareTransport,
        "um": UnifiedMemoryTransport,
        "staged": StagedTransport,
    }[info.transport]
    return cls(profile.network, profile.gpu)
