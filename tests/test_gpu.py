"""GPU transport strategies."""

import pytest

from repro.exchange.schedule import MessageSpec
from repro.gpu.transports import (
    CudaAwareTransport,
    StagedTransport,
    UnifiedMemoryTransport,
)
from repro.hardware.gpu import GpuModel
from repro.hardware.network import NetworkModel
from repro.util.bitset import BitSet


@pytest.fixture
def gpu():
    return GpuModel()


@pytest.fixture
def net():
    return NetworkModel(1.5e-6, 23e9, 65536, 1e-6, 1e-6)


def spec(nbytes, wire=None, nmappings=1):
    return MessageSpec(
        BitSet([1]), nbytes, wire or nbytes, nmappings=nmappings
    )


class TestCudaAware:
    def test_deratess_bandwidth_only(self, net, gpu):
        t = CudaAwareTransport(net, gpu)
        assert t.network().bw_peak == pytest.approx(net.bw_peak * 0.95)
        assert t.network().alpha == net.alpha

    def test_no_extra_costs(self, net, gpu):
        t = CudaAwareTransport(net, gpu)
        msgs = [spec(1 << 20)]
        assert t.extra_wait(msgs, msgs) == 0.0
        assert t.move(msgs, msgs) == 0.0
        assert t.compute_penalty(msgs) == 0.0

    def test_memmap_unsupported(self, net, gpu):
        assert not CudaAwareTransport(net, gpu).supports_memmap


class TestUnifiedMemory:
    def test_supports_memmap(self, net, gpu):
        assert UnifiedMemoryTransport(net, gpu).supports_memmap

    def test_extra_wait_scales_with_pages(self, net, gpu):
        t = UnifiedMemoryTransport(net, gpu)
        small = t.extra_wait([spec(gpu.page_size)], [])
        big = t.extra_wait([spec(16 * gpu.page_size)], [])
        assert big > 4 * small

    def test_aligned_cheaper_than_unaligned(self, net, gpu):
        """Figure 15: page-aligned (MemMap) regions fault cleanly;
        unaligned (Layout_UM) ones straddle extra pages."""
        t = UnifiedMemoryTransport(net, gpu)
        aligned = t.compute_penalty([spec(gpu.page_size, gpu.page_size)])
        unaligned = t.compute_penalty(
            [spec(gpu.page_size - 512, gpu.page_size - 512)]
        )
        assert unaligned > aligned

    def test_no_explicit_move(self, net, gpu):
        t = UnifiedMemoryTransport(net, gpu)
        assert t.move([spec(1 << 20)], [spec(1 << 20)]) == 0.0


class TestStaged:
    def test_move_cost_both_directions(self, net, gpu):
        t = StagedTransport(net, gpu)
        msgs = [spec(1 << 20)] * 4
        m = t.move(msgs, msgs)
        assert m == pytest.approx(2 * gpu.staged_copy_time(4 << 20, 4))

    def test_network_undeterred(self, net, gpu):
        assert StagedTransport(net, gpu).network() is net
