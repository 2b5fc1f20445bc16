"""Shared fixtures for the test suite."""

import zlib

import numpy as np
import pytest

from repro.brick.decomp import BrickDecomp
from repro.core.problem import StencilProblem
from repro.exchange import schedule_template
from repro.hardware.profiles import generic_host, summit_v100, theta_knl
from repro.stencil.cbackend import mover_kernel
from repro.stencil.spec import SEVEN_POINT, star_stencil


@pytest.fixture(scope="session", autouse=True)
def kernel_cache_home(tmp_path_factory):
    """The session's kernel cache: a temporary ``XDG_CACHE_HOME``, so no
    test -- nor any process a test starts -- writes the developer's."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture
def empty_kernel_cache(monkeypatch, tmp_path):
    """An empty kernel cache, for a test whose count of compiler runs
    means one per unit: every unit it loads is a miss."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))
    return tmp_path / "xdg-cache" / "repro" / "kernels"


@pytest.fixture
def theta():
    return theta_knl()


@pytest.fixture
def summit():
    return summit_v100()


@pytest.fixture
def host():
    return generic_host()


@pytest.fixture
def small_decomp():
    """32^3 subdomain, 8^3 bricks, ghost 8: grid 4^3 with real interior."""
    return BrickDecomp((32, 32, 32), (8, 8, 8), 8)


@pytest.fixture
def tiny_decomp():
    """16^3 subdomain: degenerate grid 2^3 (all bricks are corners)."""
    return BrickDecomp((16, 16, 16), (8, 8, 8), 8)


@pytest.fixture
def decomp2d():
    """2-D decomposition: 32x32 elements, 4x4 bricks, ghost 4."""
    return BrickDecomp((32, 32), (4, 4), 4)


@pytest.fixture
def small_problem():
    """8 ranks over a 32^3 periodic cube (16^3 subdomains)."""
    return StencilProblem(
        global_extent=(32, 32, 32),
        rank_dims=(2, 2, 2),
        stencil=SEVEN_POINT,
        brick_dim=(8, 8, 8),
        ghost=8,
    )


@pytest.fixture
def medium_problem():
    """8 ranks over a 64^3 periodic cube (32^3 subdomains, real interior)."""
    return StencilProblem(
        global_extent=(64, 64, 64),
        rank_dims=(2, 2, 2),
        stencil=SEVEN_POINT,
        brick_dim=(8, 8, 8),
        ghost=8,
    )


@pytest.fixture
def star5_2d():
    return star_stencil(2, 1, name="5pt-2d")


def brick_sends(base, grid, width, layout=None, page=None):
    """The send specs of *base*'s :func:`schedule_template` over a
    subdomain of *grid* float64 bricks of 8 elements per axis and a
    *width*-brick ghost zone, on the slot assignment a run of that
    method binds (page-aligned for *page*, plain without)."""
    ndim = len(grid)
    decomp = BrickDecomp(tuple(8 * g for g in grid), (8,) * ndim, 8 * width, layout)
    asn = decomp.assignment(1 if page is None else decomp.alignment_for_page(page))
    template = schedule_template(
        base, decomp.extent, decomp.ghost_elems, 8, decomp, asn, page
    )
    return [m.spec for m in template.sends]


def wire_copy(srcs, dsts):
    """The wire copy ``ExchangeChannel`` hands a fabric's bound request:
    the C movers' ``copy_list`` binder."""
    return mover_kernel().copy_list(srcs, dsts)


def zlib_crcs(views) -> bytes:
    """``zlib.crc32`` of every view, packed as the C movers' CRC calls
    return them (native ``uint32``, one ``bytes``)."""
    return np.array([zlib.crc32(v) for v in views], dtype=np.uint32).tobytes()


def crc_lengths_match_zlib(movers):
    """*movers*' CRC pair against ``zlib.crc32`` at every length 0-1100
    and every start offset 0-15, plus 4 KiB and 16 KiB: each fold
    stage's entry and exit (64 B for the 128-bit lanes, 256 B for the
    512-bit ones), whole and with every tail."""
    pool = np.random.default_rng(42).integers(0, 256, 16_400, dtype=np.uint8)
    lengths = list(range(1101)) + [4096, 16_384]
    for start in range(16):
        views = [pool[start : start + n] for n in lengths]
        want = zlib_crcs(views)
        assert movers.crc_list(views)() == want, start
        landed = [np.full(n, 0xA5, dtype=np.uint8) for n in lengths]
        assert movers.copy_crc_list(views, landed)() == want, start
        assert all(a.tobytes() == b.tobytes() for a, b in zip(landed, views))
