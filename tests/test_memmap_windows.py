"""MemMap binds each buffer through two stitched windows.

One send window holds every send chunk of the plan in plan order, one
receive window every receive chunk; a neighbour's wire buffer is its
consecutive slice.  Counted here through a proxy of the real mapping
path's libc: per exchanger two reservations, one ``mmap`` per run of
file-contiguous chunks (the 26 ghost sections are one run), two
``munmap`` calls at close -- while the arena still charges every
requested chunk against ``vm.max_map_count``.  The slices alias the
brick storage with no ``refresh`` / ``flush``, and a zero-copy exchange
runs no hooks.
"""

import numpy as np
import pytest

from repro.core.geometry import RunGeometry
from repro.core.problem import StencilProblem
from repro.exchange.layout_ex import neighbor_sections
from repro.simmpi.comm import CartComm
from repro.simmpi.fabric import SimFabric
from repro.stencil.spec import SEVEN_POINT
from repro.vmem import realmap

pytestmark = pytest.mark.skipif(
    not realmap.realmap_available(),
    reason="memfd_create/mmap(MAP_FIXED) unavailable",
)

RANK_DIMS = (2, 2, 2)


class _CountingLibc:
    """Forwards ``mmap`` / ``munmap`` and counts them: an anonymous
    ``mmap`` is a window's reservation, a file-backed one maps chunks."""

    def __init__(self, libc) -> None:
        self._libc = libc
        self.reserves = self.maps = self.unmaps = 0

    def mmap(self, addr, length, prot, flags, fd, offset):
        if fd == -1:
            self.reserves += 1
        else:
            self.maps += 1
        return self._libc.mmap(addr, length, prot, flags, fd, offset)

    def munmap(self, addr, length):
        self.unmaps += 1
        return self._libc.munmap(addr, length)


def _geometry(extent):
    problem = StencilProblem(
        (extent,) * 3, RANK_DIMS, SEVEN_POINT, brick_dim=(8, 8, 8), ghost=8
    )
    return RunGeometry(problem, "memmap")


def _bind(geometry, storage):
    """Rank 0's MemMap exchanger over *storage*; binding maps the
    windows and touches no fabric, so no other rank has to run."""
    comm = CartComm(SimFabric(8), 0, RANK_DIMS)
    return geometry.bind("memmap", comm, storage)


@pytest.mark.parametrize(
    "extent, chunk_maps, mappings",
    [(32, 36, 62), (96, 43, 69)],
    ids=["16^3", "48^3"],
)
def test_two_reservations_one_mmap_per_file_run(
    extent, chunk_maps, mappings, monkeypatch
):
    geometry = _geometry(extent)
    storage = geometry.decomp.mmap_alloc(geometry.page_size)[0]
    libc = _CountingLibc(realmap._LIBC)
    monkeypatch.setattr(realmap, "_LIBC", libc)
    try:
        ex = _bind(geometry, storage)
        assert (libc.reserves, libc.maps, libc.unmaps) == (2, chunk_maps, 0)
        # The budget charge counts requested chunks, not calls: the
        # base mapping plus every chunk of the plan.
        assert storage.arena.mapping_count == mappings
        assert ex.mapping_count == mappings - 1
        ex.close()
        assert libc.unmaps == 2
        assert storage.arena.mapping_count == 1
    finally:
        storage.close()


def test_slices_alias_the_storage_with_no_hooks():
    geometry = _geometry(32)
    storage = geometry.decomp.mmap_alloc(geometry.page_size)[0]
    try:
        ex = _bind(geometry, storage)
        posts, recvs, hooks = ex._bound
        assert hooks.pre is None and hooks.post is None
        # A neighbour past the first, so its slice starts mid-window.
        k = len(ex.plan.sends) - 1
        message = ex.plan.sends[k]
        assert ex.plan.recvs[k].spec.neighbor == message.spec.neighbor
        send_secs, recv_secs = neighbor_sections(
            geometry.decomp, geometry.assignment, message.spec.neighbor
        )
        bb = geometry.decomp.brick_bytes
        dtype = storage.data.dtype

        # A write to a surface brick reads back through the send slice.
        storage.slot_view(send_secs[0].start, 1)[:] = 42.0
        np.testing.assert_array_equal(posts[k][2][:bb].view(dtype), 42.0)

        # A write through the receive slice lands in the ghost slot.
        recvs[k][2][:bb].view(dtype)[:] = -3.0
        np.testing.assert_array_equal(
            storage.slot_view(recv_secs[0].start, 1), -3.0
        )
        ex.close()
    finally:
        storage.close()
