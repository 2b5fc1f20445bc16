"""Injected vmem failures: no leaked fds or mappings, thread-local arming.

Regression tests for the mid-stitch cleanup in ``vmem/realmap.py``: a
``mmap``/``memfd`` failure partway through arena or view construction
must release everything acquired so far (file descriptor, base mapping,
reserved span including already-overlaid chunks).  Leaks are observed
directly through ``/proc/self/fd`` and ``/proc/self/maps``.
"""

import threading

import numpy as np
import pytest

from repro.core.driver import _vmem_probe_failed
from repro.core.geometry import RunGeometry
from repro.core.problem import StencilProblem
from repro.faults.runtime import VMEM_FAULTS, FaultPoints
from repro.simmpi.comm import CartComm
from repro.simmpi.fabric import SimFabric
from repro.stencil.spec import SEVEN_POINT
from repro.vmem.realmap import MemfdArena, realmap_available

requires_realmap = pytest.mark.skipif(
    not realmap_available(), reason="memfd_create/mmap(MAP_FIXED) unavailable"
)

PAGE = 4096


def _open_fds():
    import os

    return len(os.listdir("/proc/self/fd"))


def _n_maps():
    with open("/proc/self/maps") as f:
        return sum(1 for _ in f)


class TestFaultPoints:
    def test_unarmed_check_is_noop(self):
        points = FaultPoints()
        points.check("anything")  # no raise

    def test_armed_site_fires_count_times(self):
        points = FaultPoints()
        points.arm("site", count=2)
        for _ in range(2):
            with pytest.raises(OSError, match="injected fault"):
                points.check("site")
        points.check("site")  # charges consumed

    def test_skip_lets_early_triggers_through(self):
        points = FaultPoints()
        points.arm("site", count=1, skip=2)
        points.check("site")
        points.check("site")
        with pytest.raises(OSError):
            points.check("site")
        points.check("site")

    def test_armed_contextmanager_disarms(self):
        points = FaultPoints()
        with points.armed("site", count=5):
            with pytest.raises(OSError):
                points.check("site")
        points.check("site")  # disarmed on exit, remaining charges gone

    def test_arming_is_thread_local(self):
        # Ranks are threads: arming a fault on one rank must not break a
        # concurrent make_view on another.
        points = FaultPoints()
        points.arm("site")
        errors = []

        def other_thread():
            try:
                points.check("site")
            except OSError as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        t = threading.Thread(target=other_thread)
        t.start()
        t.join()
        assert not errors
        with pytest.raises(OSError):
            points.check("site")


@requires_realmap
class TestRealArenaCleanup:
    def test_memfd_create_failure_is_clean(self):
        before = _open_fds()
        with VMEM_FAULTS.armed("memfd_create"):
            with pytest.raises(OSError):
                MemfdArena(4 * PAGE, PAGE)
        assert _open_fds() == before

    def test_base_mmap_failure_closes_fd(self):
        # The regression: a failure after memfd_create but before the
        # arena was fully built used to leak the fd.
        before = _open_fds()
        with VMEM_FAULTS.armed("arena_mmap"):
            with pytest.raises(OSError):
                MemfdArena(4 * PAGE, PAGE)
        assert _open_fds() == before

    def test_mid_stitch_failure_unmaps_reservation(self):
        arena = MemfdArena(8 * PAGE, PAGE)
        try:
            baseline_maps = _n_maps()
            chunks = [(0, PAGE), (2 * PAGE, PAGE), (4 * PAGE, PAGE)]
            # skip=1: the first chunk maps fine, the second fails --
            # genuinely mid-stitch, with file pages already overlaid.
            with VMEM_FAULTS.armed("view_map_chunk", skip=1):
                with pytest.raises(OSError, match="view_map_chunk"):
                    arena.make_view(chunks)
            assert _n_maps() == baseline_maps
            assert arena.mapping_count == 1  # base only, no live views

            # The arena survives: a clean retry of the same view works.
            view = arena.make_view(chunks)
            arr = view.array(np.uint8)
            assert arr.size == 3 * PAGE
            view.close()
        finally:
            arena.close()

    def test_reserve_failure_before_any_chunk(self):
        arena = MemfdArena(4 * PAGE, PAGE)
        try:
            baseline_maps = _n_maps()
            with VMEM_FAULTS.armed("view_reserve"):
                with pytest.raises(OSError):
                    arena.make_view([(0, PAGE)])
            assert _n_maps() == baseline_maps
        finally:
            arena.close()

    @pytest.mark.parametrize("into_run", [1, 25], ids=["second", "last"])
    def test_fault_inside_a_coalesced_run_is_clean(self, into_run):
        """A MemMap exchanger's receive window is its 26 ghost chunks
        back to back in the file: one run, one ``mmap``.  Each requested
        chunk still passes the fault site before the run is mapped, so
        a fault armed at chunk k of the run fails there, and releasing
        the storage releases everything."""
        problem = StencilProblem(
            (32, 32, 32), (2, 2, 2), SEVEN_POINT, brick_dim=(8, 8, 8), ghost=8
        )
        geometry = RunGeometry(problem, "memmap")
        comm = CartComm(SimFabric(8), 0, (2, 2, 2))
        plan = geometry.plans[0]
        send_chunks = sum(len(m.ranges) for m in plan.sends)
        assert sum(len(m.ranges) for m in plan.recvs) == 26
        before = (_n_maps(), _open_fds())
        storage = geometry.decomp.mmap_alloc(geometry.page_size)[0]
        with VMEM_FAULTS.armed("view_map_chunk", skip=send_chunks + into_run):
            with pytest.raises(OSError, match="view_map_chunk"):
                geometry.bind("memmap", comm, storage)
        # Only the send window survived the failure, in the arena's care.
        assert storage.arena.mapping_count == 1 + send_chunks
        # The degradation vote's probe over that storage still fails
        # when armed (and so demotes), and maps cleanly when not.
        with VMEM_FAULTS.armed("view_map_chunk"):
            assert _vmem_probe_failed(storage)
        assert not _vmem_probe_failed(storage)
        storage.close()
        del storage
        assert (_n_maps(), _open_fds()) == before

    def test_close_after_failed_view_is_idempotent(self):
        arena = MemfdArena(4 * PAGE, PAGE)
        with VMEM_FAULTS.armed("view_map_chunk"):
            with pytest.raises(OSError):
                arena.make_view([(0, PAGE)])
        arena.close()
        arena.close()  # second close must not raise / double-free
