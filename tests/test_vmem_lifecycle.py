"""Arena/view lifecycle: close semantics, budgets, large mappings."""

import threading
import time

import numpy as np
import pytest

from repro.vmem import MemfdArena, realmap_available

PAGE = 4096


class TestLifecycle:
    @pytest.fixture(params=["real"])
    def arena(self):
        if not realmap_available():
            pytest.skip("real arena unavailable")
        a = MemfdArena(64 * PAGE, PAGE)
        yield a
        a.close()

    def test_close_view_then_arena(self, arena):
        v = arena.make_view([(0, PAGE)])
        v.close()
        v.close()  # idempotent
        with pytest.raises(ValueError):
            v.array()

    def test_arena_close_closes_views(self, arena):
        v = arena.make_view([(0, PAGE)])
        arena.close()
        with pytest.raises(ValueError):
            v.array()

    def test_many_views(self, arena):
        """Dozens of simultaneous views (an exchange holds 2 x 26)."""
        views = [
            arena.make_view([(p * PAGE, PAGE)]) for p in range(60)
        ]
        arena.buffer.view(np.float64)[: PAGE // 8] = 5.0
        assert views[0].array(np.float64)[0] == 5.0
        assert arena.mapping_count == 1 + 60
        for v in views:
            v.close()

    def test_view_spanning_whole_arena(self, arena):
        v = arena.make_view([(0, 64 * PAGE)])
        assert v.nbytes == 64 * PAGE

    def test_interleaved_reads_writes(self, arena):
        """Two views of the same page stay coherent, both ways, with no
        data movement requested."""
        v1 = arena.make_view([(3 * PAGE, PAGE)])
        v2 = arena.make_view([(3 * PAGE, PAGE)])
        a1, a2 = v1.array(np.float64), v2.array(np.float64)
        a1[:] = 7.0
        assert (a2 == 7.0).all()
        a2[5] = -1.0
        assert a1[5] == -1.0


class TestProbe:
    def test_concurrent_first_probe_never_reads_unavailable(self, monkeypatch):
        """Rank threads race to the first ``realmap_available()``: a
        thread arriving mid-probe must not read "no memfd" (that refused
        a rank's ``mmap_alloc`` on a host that has it)."""
        from repro.vmem import realmap

        if not realmap_available():
            pytest.skip("real arena unavailable")
        slow_load = realmap._load_libc

        def load():
            time.sleep(0.05)  # hold the probe open while the others arrive
            return slow_load()

        monkeypatch.setattr(realmap, "_AVAILABLE", None)
        monkeypatch.setattr(realmap, "_load_libc", load)
        seen = []
        threads = [
            threading.Thread(target=lambda: seen.append(realmap_available()))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == [True] * 4
