"""Per-size checks of the paper's orderings, one case per subdomain or page size.

tests/test_paper_claims.py pins the same orderings as rows of the rendered
figures; the cases here read the model directly, so a failure names the
size at which an ordering breaks.
"""

import pytest

from repro.core.model import model_timestep
from repro.hardware.profiles import summit_v100, theta_knl
from repro.stencil.spec import SEVEN_POINT

SIZES = (512, 256, 128, 64, 32, 16)


def comm(profile, method, n, stencil=SEVEN_POINT, **kw):
    return model_timestep(profile, method, (n, n, n), stencil, **kw).comm


class TestK1Ordering:
    """Figs. 8-9: MemMap ~ Layout ~ Network << YASK << MPI_Types."""

    @pytest.mark.parametrize("n", SIZES)
    def test_ordering_every_size(self, n):
        theta = theta_knl()
        network = comm(theta, "network", n)
        memmap = comm(theta, "memmap", n)
        layout = comm(theta, "layout", n)
        yask = comm(theta, "yask", n)
        types = comm(theta, "mpi_types", n)
        assert network <= memmap <= layout * 1.05
        assert layout < yask
        assert yask < types


class TestV1Gpu:
    """Figs. 13-15: Summit, 8 V100s."""

    @pytest.mark.parametrize("n", SIZES)
    def test_pack_free_beats_mpi_types(self, n):
        summit = summit_v100()
        types = comm(summit, "mpi_types_um", n)
        for method in ("layout_ca", "layout_um", "memmap_um"):
            assert comm(summit, method, n) < types


class TestFig18PageSize:
    """Fig. 18: even 64 KiB pages leave MemMap ahead of YASK/MPI_Types."""

    @pytest.mark.parametrize("page", [4096, 16384, 65536])
    def test_memmap_beats_baselines_any_page_size(self, page):
        theta = theta_knl()
        for n in SIZES:
            mm = comm(theta, "memmap", n, page_size=page)
            assert mm < comm(theta, "yask", n)
            assert mm < comm(theta, "mpi_types", n)
