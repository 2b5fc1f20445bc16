"""Stitched views over the memfd arena.

A view presents its chunks' bytes, in order, as one contiguous array, and
aliases them: writes through either side are visible to the other with
no data movement.  The oracle is the arena's own bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vmem import MemfdArena, realmap_available
from repro.vmem.arena import NumpyArena

PAGE = 4096
NPAGES = 32

requires_realmap = pytest.mark.skipif(
    not realmap_available(), reason="memfd/MAP_FIXED unavailable"
)


def _filled_arena():
    arena = MemfdArena(NPAGES * PAGE, PAGE)
    per = PAGE // 8
    phys = arena.buffer.view(np.float64)
    for p in range(NPAGES):
        phys[p * per : (p + 1) * per] = float(p)
    return arena


@pytest.fixture(params=["real"])
def arena():
    if not realmap_available():
        pytest.skip("memfd/MAP_FIXED unavailable")
    a = _filled_arena()
    yield a
    a.close()


class TestViewContents:
    def test_reordered_pages(self, arena):
        v = arena.make_view([(5 * PAGE, PAGE), (2 * PAGE, PAGE), (9 * PAGE, PAGE)])
        a = v.array(np.float64)
        per = PAGE // 8
        assert a[0] == 5.0 and a[per] == 2.0 and a[2 * per] == 9.0
        assert a.size == 3 * per

    def test_repeated_mapping(self, arena):
        """The same physical page may appear in several views/positions --
        exactly how overlapping surface regions are sent to multiple
        neighbors with one copy of the data."""
        v = arena.make_view([(3 * PAGE, PAGE), (3 * PAGE, PAGE)])
        a = v.array(np.float64)
        per = PAGE // 8
        assert np.array_equal(a[:per], a[per:])

    def test_write_through_view_visible_in_arena(self, arena):
        v = arena.make_view([(7 * PAGE, PAGE)])
        a = v.array(np.float64)
        a[3] = 123.5
        assert arena.buffer.view(np.float64)[7 * PAGE // 8 + 3] == 123.5

    def test_arena_write_visible_in_view(self, arena):
        v = arena.make_view([(4 * PAGE, PAGE)])
        arena.buffer.view(np.float64)[4 * PAGE // 8] = -7.0
        assert v.array(np.float64)[0] == -7.0

    def test_multi_page_chunk(self, arena):
        v = arena.make_view([(2 * PAGE, 3 * PAGE)])
        a = v.array(np.float64)
        per = PAGE // 8
        assert a[0] == 2.0 and a[per] == 3.0 and a[2 * per] == 4.0


class TestViewValidation:
    def test_unaligned_offset_rejected(self, arena):
        with pytest.raises(ValueError):
            arena.make_view([(100, PAGE)])

    def test_unaligned_length_rejected(self, arena):
        with pytest.raises(ValueError):
            arena.make_view([(0, 100)])

    def test_out_of_bounds_rejected(self, arena):
        with pytest.raises(ValueError):
            arena.make_view([(NPAGES * PAGE, PAGE)])

    def test_empty_rejected(self, arena):
        with pytest.raises(ValueError):
            arena.make_view([])

    def test_closed_view_refuses_access(self, arena):
        v = arena.make_view([(0, PAGE)])
        v.close()
        with pytest.raises(ValueError):
            v.array()


class TestRealAliasing:
    @requires_realmap
    def test_zero_copy_no_flush_needed(self):
        arena = _filled_arena()
        try:
            v = arena.make_view([(1 * PAGE, PAGE)])
            a = v.array(np.float64)
            # Arena writes appear in the view at once...
            arena.buffer.view(np.float64)[PAGE // 8 + 5] = 42.0
            assert a[5] == 42.0
            # ... and view writes in the arena.
            a[6] = 43.0
            assert arena.buffer.view(np.float64)[PAGE // 8 + 6] == 43.0
        finally:
            arena.close()


class TestEquivalence:
    @requires_realmap
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, NPAGES - 2), st.integers(1, 2)),
            min_size=1,
            max_size=8,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_view_is_the_concatenated_chunks(self, chunks, seed):
        """Property: any chunk list's view holds the arena's chunk bytes
        concatenated; when no physical page is mapped twice, a pattern
        written through the view lands at those chunks in the arena.
        (Writing *different* values through two aliases of one page is a
        data race with unspecified order -- glibc may copy in either
        direction -- and the exchange never does it: recv views map
        disjoint ghost pages.)"""
        rng = np.random.default_rng(seed)
        byte_chunks = [(p * PAGE, n * PAGE) for p, n in chunks]
        covered = [set(range(p, p + n)) for p, n in chunks]
        has_overlap = sum(len(c) for c in covered) != len(set().union(*covered))

        with MemfdArena(NPAGES * PAGE, PAGE) as arena:
            arena.buffer.view(np.float64)[:] = rng.random(NPAGES * PAGE // 8)

            def chunk_bytes():
                return np.concatenate([arena.buffer[o : o + n] for o, n in byte_chunks])

            v = arena.make_view(byte_chunks)
            np.testing.assert_array_equal(v.array(), chunk_bytes())
            if not has_overlap:
                pattern = rng.integers(0, 256, v.nbytes, dtype=np.uint8)
                v.array()[:] = pattern
                np.testing.assert_array_equal(chunk_bytes(), pattern)


class TestArenaBasics:
    def test_numpy_arena_cannot_map(self):
        arena = NumpyArena(4 * PAGE, PAGE)
        with pytest.raises(NotImplementedError):
            arena.make_view([(0, PAGE)])

    def test_size_must_be_page_multiple(self):
        with pytest.raises(ValueError):
            NumpyArena(PAGE + 1, PAGE)

    @requires_realmap
    def test_mapping_count(self):
        arena = MemfdArena(8 * PAGE, PAGE)
        assert arena.mapping_count == 1
        arena.make_view([(0, PAGE), (2 * PAGE, PAGE)])
        assert arena.mapping_count == 3
        arena.close()
        assert arena.mapping_count == 1
