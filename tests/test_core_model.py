"""Modelled per-timestep costs: internal consistency and paper shapes."""

import pytest

from repro.core.model import compute_time, exchange_breakdown, model_timestep
from repro.core.methods import method_info
from repro.stencil.spec import CUBE125, SEVEN_POINT


class TestComputeTime:
    def test_bricks_faster_than_yask_small_boxes(self, theta):
        small = (16, 16, 16)
        y = compute_time(theta, method_info("yask"), 16**3, SEVEN_POINT)
        b = compute_time(theta, method_info("layout"), 16**3, SEVEN_POINT)
        assert b < y

    def test_gpu_needs_gpu_profile(self, theta):
        with pytest.raises(ValueError):
            compute_time(theta, method_info("layout_ca"), 100, SEVEN_POINT)

    def test_gpu_roofline(self, summit):
        t = compute_time(summit, method_info("layout_ca"), 512**3, SEVEN_POINT)
        assert t >= 512**3 * 16 / summit.gpu.hbm_bw


class TestExchangeBreakdown:
    def test_pack_only_for_packing_methods(self, theta):
        ext = (64, 64, 64)
        for method, packs in [
            ("yask", True), ("mpi_types", False), ("layout", False),
            ("memmap", False), ("basic", False), ("shift", True),
        ]:
            bd = exchange_breakdown(theta, method, ext)
            assert (bd.pack > 0) == packs, method

    def test_mpi_types_wait_dominates(self, theta):
        """The datatype engine makes MPI_Types orders of magnitude worse
        than the pack-free schemes (paper: up to 460x vs MemMap)."""
        ext = (16, 16, 16)
        t = exchange_breakdown(theta, "mpi_types", ext).comm
        m = exchange_breakdown(theta, "memmap", ext).comm
        assert t / m > 50

    def test_network_is_floor(self, theta):
        """No scheme beats the raw network time (Fig. 9's Network line)."""
        ext = (64, 64, 64)
        floor = exchange_breakdown(theta, "network", ext).comm
        for method in ("yask", "mpi_types", "layout", "memmap", "basic"):
            assert exchange_breakdown(theta, method, ext).comm >= floor * 0.999

    def test_memmap_close_to_network_on_theta(self, theta):
        """MemMap 'essentially eliminates on-node data movement with no
        discernible added cost' (K1 discussion): within ~2x of Network."""
        for n in (64, 32, 16):
            ext = (n, n, n)
            floor = exchange_breakdown(theta, "network", ext).comm
            mm = exchange_breakdown(theta, "memmap", ext).comm
            assert mm <= 2.0 * floor

    def test_layout_slightly_above_memmap_small_boxes(self, theta):
        """42 messages vs 26: Layout pays more per-message overhead."""
        ext = (16, 16, 16)
        lay = exchange_breakdown(theta, "layout", ext).comm
        mm = exchange_breakdown(theta, "memmap", ext).comm
        assert lay >= mm

    def test_basic_worse_than_layout(self, theta):
        ext = (16, 16, 16)
        assert (
            exchange_breakdown(theta, "basic", ext).comm
            > exchange_breakdown(theta, "layout", ext).comm
        )

    def test_memmap_padding_hurts_on_large_pages(self, theta):
        ext = (32, 32, 32)
        p4k = exchange_breakdown(theta, "memmap", ext, page_size=4096).comm
        p64k = exchange_breakdown(theta, "memmap", ext, page_size=65536).comm
        assert p64k > p4k

    def test_gpu_staged_charges_move(self, summit):
        bd = exchange_breakdown(summit, "layout_staged", (64, 64, 64))
        assert bd.move > 0

    def test_gpu_ca_no_move(self, summit):
        bd = exchange_breakdown(summit, "layout_ca", (64, 64, 64))
        assert bd.move == 0.0


class TestModelTimestep:
    def test_overlap_hides_wait(self, theta):
        """YASK-OL reduces visible wait but keeps pack (Fig. 8: little
        difference for small subdomains where packing dominates)."""
        big = (128, 128, 128)
        plain = model_timestep(theta, "yask", big, SEVEN_POINT)
        ol = model_timestep(theta, "yask_ol", big, SEVEN_POINT)
        assert plain.calc > 0 and plain.wait > 0
        # The kernel hides wire time: the visible wait drops by calc.
        assert ol.wait == pytest.approx(max(0.0, plain.wait - ol.calc))
        assert ol.wait < plain.wait
        assert ol.pack == plain.pack
        assert ol.total < plain.total

    def test_calc_independent_of_cpu_exchange_method(self, theta):
        ext = (64, 64, 64)
        calcs = {
            model_timestep(theta, m, ext, SEVEN_POINT).calc
            for m in ("layout", "memmap", "basic", "network")
        }
        assert len(calcs) == 1

    def test_125pt_more_compute(self, theta):
        # Large enough that the roofline, not launch overhead, dominates:
        # 125-pt is compute-bound (AI 8.7) vs the bandwidth-bound 7-pt.
        # The roofline bound: c125/c7 -> AI_125 / machine-balance ~ 1.8x
        # on KNL (139 flops vs the 16-byte bandwidth term of the 7-pt).
        ext = (256, 256, 256)
        c7 = model_timestep(theta, "memmap", ext, SEVEN_POINT).calc
        c125 = model_timestep(theta, "memmap", ext, CUBE125).calc
        assert 1.5 * c7 < c125 < 3 * c7

    def test_um_compute_penalty(self, summit):
        """Figure 15: Layout_UM computes slower than Layout_CA because
        received unaligned regions fault onto the GPU."""
        ext = (64, 64, 64)
        ca = model_timestep(summit, "layout_ca", ext, SEVEN_POINT).calc
        um = model_timestep(summit, "layout_um", ext, SEVEN_POINT).calc
        assert um > ca

    def test_memmap_um_computes_faster_than_layout_um(self, summit):
        """Figure 15: page-aligned MemMap_UM regions fault cleanly."""
        ext = (64, 64, 64)
        mm = model_timestep(summit, "memmap_um", ext, SEVEN_POINT).calc
        lay = model_timestep(summit, "layout_um", ext, SEVEN_POINT).calc
        assert mm < lay

    def test_communication_dominates_small_subdomains(self, theta):
        """Figure 1's motivation: comm time exceeds compute well before
        the smallest subdomain."""
        bd = model_timestep(theta, "yask", (32, 32, 32), SEVEN_POINT)
        assert bd.comm > bd.calc
