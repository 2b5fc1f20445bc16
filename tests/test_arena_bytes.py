"""Arena byte-range access: the zero-copy paths checkpointing and
re-bricking stand on.

``read_bytes``/``write_bytes`` need no page alignment (unlike
``make_view``), must be exact at every boundary, and writes into the
padding that page alignment introduces must never leak into neighboring
sections.
"""

import numpy as np
import pytest

from repro.brick.decomp import BrickDecomp
from repro.vmem import MemfdArena, NumpyArena, realmap_available

PAGE = 4096


@pytest.fixture(params=["numpy", "default"])
def arena(request):
    """Plain storage's arena, and ``mmap_alloc``'s (the memfd one)."""
    if request.param == "numpy":
        a = NumpyArena(2 * PAGE, PAGE)
    elif not realmap_available():
        pytest.skip("memfd/MAP_FIXED unavailable")
    else:
        a = MemfdArena(2 * PAGE, PAGE)
    yield a
    a.close()


class TestReadBytes:
    def test_zero_length_reads_are_valid_everywhere(self, arena):
        for offset in (0, 1, PAGE, arena.nbytes):
            view = arena.read_bytes(offset, 0)
            assert view.dtype == np.uint8
            assert view.nbytes == 0

    def test_out_of_range_raises(self, arena):
        with pytest.raises(ValueError):
            arena.read_bytes(-1, 4)
        with pytest.raises(ValueError):
            arena.read_bytes(0, -1)
        with pytest.raises(ValueError):
            arena.read_bytes(arena.nbytes - 3, 4)
        with pytest.raises(ValueError):
            arena.read_bytes(arena.nbytes + 1, 0)

    def test_full_span_and_last_byte(self, arena):
        assert arena.read_bytes(0, arena.nbytes).nbytes == arena.nbytes
        assert arena.read_bytes(arena.nbytes - 1, 1).nbytes == 1

    def test_view_spanning_page_boundary_is_zero_copy(self, arena):
        """A read crossing a page edge aliases the arena: mutations
        through the view are visible to any other read of the range."""
        view = arena.read_bytes(PAGE - 4, 8)
        view[:] = np.arange(8, dtype=np.uint8)
        again = arena.read_bytes(PAGE - 4, 8)
        np.testing.assert_array_equal(again, np.arange(8, dtype=np.uint8))
        # The halves land on their respective pages.
        np.testing.assert_array_equal(
            arena.read_bytes(PAGE, 4), np.arange(4, 8, dtype=np.uint8)
        )


class TestWriteBytes:
    def test_roundtrip_at_unaligned_offset(self, arena):
        payload = bytes(range(32))
        arena.write_bytes(PAGE - 7, payload)
        got = arena.read_bytes(PAGE - 7, 32)
        np.testing.assert_array_equal(
            got, np.frombuffer(payload, dtype=np.uint8)
        )

    def test_zero_length_write_is_a_noop(self, arena):
        before = arena.read_bytes(0, arena.nbytes).copy()
        arena.write_bytes(5, b"")
        np.testing.assert_array_equal(
            arena.read_bytes(0, arena.nbytes), before
        )

    def test_write_past_the_end_raises_and_leaves_content_alone(self, arena):
        before = arena.read_bytes(0, arena.nbytes).copy()
        with pytest.raises(ValueError):
            arena.write_bytes(arena.nbytes - 2, b"1234")
        np.testing.assert_array_equal(
            arena.read_bytes(0, arena.nbytes), before
        )

    def test_write_only_touches_its_range(self, arena):
        arena.read_bytes(0, arena.nbytes)[:] = 0xAA
        arena.write_bytes(100, bytes(16))
        full = arena.read_bytes(0, arena.nbytes)
        assert (full[:100] == 0xAA).all()
        assert (full[100:116] == 0).all()
        assert (full[116:] == 0xAA).all()


class TestPaddedSlotBytes:
    """Slot-granular byte access over an aligned (padded) layout."""

    def _padded_storage(self):
        # 4^3 bricks of float64 are 512 bytes; page alignment then needs
        # 8 slots per aligned unit, so the layout has real padding gaps.
        if not realmap_available():
            pytest.skip("memfd/MAP_FIXED unavailable")
        decomp = BrickDecomp((16, 16, 16), (4, 4, 4), 4)
        storage, asn = decomp.mmap_alloc(PAGE)
        assert asn.alignment > 1 and asn.padding_slots > 0
        return storage, asn

    def test_slot_bytes_routes_through_the_arena(self):
        storage, _ = self._padded_storage()
        storage.slot_view(3, 1)[:] = 2.5
        off, length = storage.slot_range_bytes(3, 1)
        np.testing.assert_array_equal(
            storage.slot_bytes(3, 1), storage.arena.read_bytes(off, length)
        )

    def test_slot_range_outside_storage_raises(self):
        storage, asn = self._padded_storage()
        with pytest.raises(IndexError):
            storage.slot_range_bytes(asn.total_slots, 1)
        with pytest.raises(IndexError):
            storage.slot_range_bytes(-1, 1)

    def test_load_slot_bytes_rejects_size_mismatch(self):
        storage, _ = self._padded_storage()
        with pytest.raises(ValueError, match="bytes"):
            storage.load_slot_bytes(0, 1, bytes(storage.brick_bytes - 8))

    def test_write_into_padding_leaves_sections_untouched(self):
        """The alignment gaps between sections are real storage; writing
        there (as a full-span restore does) must not corrupt neighbors."""
        storage, asn = self._padded_storage()
        sections = sorted(asn.sections, key=lambda s: s.start)
        gap = next(
            (prev, cur)
            for prev, cur in zip(sections, sections[1:])
            if cur.start > prev.start + prev.nbricks
        )
        prev, cur = gap
        pad_slot = prev.start + prev.nbricks
        assert asn.is_padding(pad_slot)

        storage.data[:] = 1.0
        before_prev = storage.slot_bytes(prev.start, prev.nbricks).copy()
        before_cur = storage.slot_bytes(cur.start, cur.nbricks).copy()
        storage.load_slot_bytes(
            pad_slot, 1, bytes([0xFF]) * storage.brick_bytes
        )
        np.testing.assert_array_equal(
            storage.slot_bytes(prev.start, prev.nbricks), before_prev
        )
        np.testing.assert_array_equal(
            storage.slot_bytes(cur.start, cur.nbricks), before_cur
        )
        assert (storage.slot_bytes(pad_slot, 1) == 0xFF).all()

    def test_full_span_snapshot_roundtrip(self):
        """What the checkpoint writer does: snapshot every byte --
        padding included -- and restore it bit-identically."""
        storage, asn = self._padded_storage()
        rng = np.random.default_rng(0)
        storage.data[:] = rng.random(storage.data.shape)
        image = bytes(storage.slot_bytes(0, asn.total_slots))
        expected = storage.data.copy()
        storage.fill(0.0)
        storage.load_slot_bytes(0, asn.total_slots, image)
        np.testing.assert_array_equal(storage.data, expected)
