"""GPU link and Unified-Memory cost model."""

import pytest

from repro.hardware.gpu import GpuModel


@pytest.fixture
def v100():
    return GpuModel()  # defaults are the Summit V100 numbers


class TestStagedCopies:
    def test_latency_plus_bandwidth(self, v100):
        t = v100.staged_copy_time(1 << 30, 1)
        assert t == pytest.approx(10e-6 + (1 << 30) / 50e9)

    def test_many_small_copies_latency_bound(self, v100):
        t = v100.staged_copy_time(26 * 4096, 26)
        assert t > 26 * v100.host_link_latency * 0.99

    def test_zero(self, v100):
        assert v100.staged_copy_time(0, 0) == 0.0

    def test_negative(self, v100):
        with pytest.raises(ValueError):
            v100.staged_copy_time(-1, 1)


class TestUnifiedMemory:
    def test_paper_padding_example(self, v100):
        """Section 7.2: an 8^3 double brick is 1/16 of a 64 KiB UM page."""
        assert 8**3 * 8 * 16 == v100.page_size


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            GpuModel(hbm_bw=0)
        with pytest.raises(ValueError):
            GpuModel(page_size=0)
        with pytest.raises(ValueError):
            GpuModel(rdma_efficiency=1.5)
