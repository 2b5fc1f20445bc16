"""Measured on-node data movement: packing copies vs zero-copy views.

These are genuine wall-clock benchmarks (pytest-benchmark) of the real
in-process mechanisms: the strided gather a packing exchange performs
every timestep, versus preparing MemMap's stitched views for a send --
which, on the real memfd arena, is no work at all after setup.
"""

import numpy as np
import pytest

from repro.brick.decomp import BrickDecomp
from repro.exchange.boxes import box_slices, neighbor_send_box
from repro.layout.regions import all_regions
from repro.vmem import realmap_available
from repro.vmem.layout_plan import plan_view

EXTENT = (64, 64, 64)
G = 8


@pytest.fixture(scope="module")
def extended_array():
    shape = tuple(e + 2 * G for e in reversed(EXTENT))
    return np.random.default_rng(0).random(shape)


def test_bench_pack_all_neighbors(benchmark, extended_array):
    """Pack every neighbor's surface box into staging buffers (the per-
    timestep cost YASK-style exchanges pay, twice: pack + unpack)."""
    plans = []
    for nbr in all_regions(3):
        slc = box_slices(neighbor_send_box(nbr, EXTENT, G))
        buf = np.empty(extended_array[slc].size)
        plans.append((slc, buf))

    def pack():
        for slc, buf in plans:
            buf[:] = extended_array[slc].reshape(-1)
        return len(plans)

    assert benchmark(pack) == 26


def test_bench_unpack_all_neighbors(benchmark, extended_array):
    from repro.exchange.boxes import neighbor_recv_box

    plans = []
    for nbr in all_regions(3):
        slc = box_slices(neighbor_recv_box(nbr, EXTENT, G))
        buf = np.random.default_rng(1).random(extended_array[slc].size)
        plans.append((slc, buf))

    def unpack():
        for slc, buf in plans:
            extended_array[slc] = buf.reshape(extended_array[slc].shape)
        return len(plans)

    assert benchmark(unpack) == 26


def test_bench_memmap_view_send_prep(benchmark):
    """Per-timestep send-side cost of MemMap on the real arena: obtaining
    the view arrays (zero-copy, so this is nanoseconds, not a data copy)."""
    if not realmap_available():
        pytest.skip("real memfd mapping unavailable")
    d = BrickDecomp(EXTENT, (8, 8, 8), G)
    storage, asn = d.mmap_alloc(4096)
    bb = d.brick_bytes
    views = []
    for region in d.layout:
        sec = asn.surface[region]
        plan = plan_view([(sec.start * bb, sec.nbricks * bb)], 4096)
        views.append(storage.make_view(plan.chunks))

    def prep():
        total = 0
        for v in views:
            total += v.array().nbytes
        return total

    result = benchmark(prep)
    assert result > 0
    storage.close()


def test_bench_memmap_view_setup(benchmark):
    """One-time cost of building all 26 stitched exchange views (paid
    once per communication pattern, not per timestep)."""
    if not realmap_available():
        pytest.skip("real memfd mapping unavailable")
    d = BrickDecomp(EXTENT, (8, 8, 8), G)
    storage, asn = d.mmap_alloc(4096)
    bb = d.brick_bytes

    def setup():
        views = []
        for region in d.layout:
            sec = asn.surface[region]
            plan = plan_view([(sec.start * bb, sec.nbricks * bb)], 4096)
            views.append(storage.make_view(plan.chunks))
        n = len(views)
        for v in views:
            v.close()
        return n

    assert benchmark(setup) == 26
    storage.close()
