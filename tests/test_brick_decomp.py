"""BrickDecomp: geometry, slot assignment, alignment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.brick.decomp import BrickDecomp
from repro.layout.order import SURFACE2D, SURFACE3D
from repro.layout.regions import all_regions
from repro.util.bitset import BitSet


class TestConstruction:
    def test_basic_properties(self, small_decomp):
        d = small_decomp
        assert d.grid == (4, 4, 4)
        assert d.width == 1
        assert d.brick_volume == 512
        assert d.brick_bytes == 4096
        assert d.messages_per_exchange == 42

    def test_bricks_must_divide_extent(self):
        with pytest.raises(ValueError):
            BrickDecomp((30, 32, 32), (8, 8, 8), 8)

    def test_ghost_must_be_brick_multiple(self):
        with pytest.raises(ValueError):
            BrickDecomp((32, 32, 32), (8, 8, 8), 5)

    def test_subdomain_too_small(self):
        with pytest.raises(ValueError):
            BrickDecomp((8, 8, 8), (8, 8, 8), 8)  # grid 1 < 2*width

    def test_ghost_expansion_width_two(self):
        d = BrickDecomp((32, 32, 32), (8, 8, 8), 16)
        assert d.width == 2

    def test_int_brick_dim(self):
        d = BrickDecomp((32, 32), 4, 4)
        assert d.brick_dim == (4, 4)

    def test_custom_layout_validated(self):
        with pytest.raises(ValueError):
            BrickDecomp((32, 32, 32), (8, 8, 8), 8, layout=SURFACE2D)

    def test_nfields(self):
        d = BrickDecomp((32, 32, 32), (8, 8, 8), 8, nfields=3)
        assert d.brick_elems == 3 * 512
        assert d.brick_bytes == 3 * 4096


class TestBoxes:
    """The section boxes the slot assignment derives."""

    def test_region_boxes_tile_surface(self, small_decomp):
        asn = small_decomp.assignment(1)
        seen = set()
        for region in all_regions(3):
            s = asn.surface[region]
            lo, ext = s.box_lo, s.box_extent
            assert s.nbricks == math.prod(ext)
            for c1 in range(lo[0], lo[0] + ext[0]):
                for c2 in range(lo[1], lo[1] + ext[1]):
                    for c3 in range(lo[2], lo[2] + ext[2]):
                        assert (c1, c2, c3) not in seen
                        seen.add((c1, c2, c3))
        ilo, iext = asn.interior.box_lo, asn.interior.box_extent
        assert (ilo, iext) == ((1, 1, 1), (2, 2, 2))
        interior = {
            (a, b, c)
            for a in range(ilo[0], ilo[0] + iext[0])
            for b in range(ilo[1], ilo[1] + iext[1])
            for c in range(ilo[2], ilo[2] + iext[2])
        }
        assert not (seen & interior)
        assert len(seen) + len(interior) == 4**3

    def test_ghost_subsection_requires_cover(self, small_decomp):
        # Region {2} is not sent to the neighbor opposite {1}: no section.
        ghost = small_decomp.assignment(1).ghost
        assert (BitSet([1]), BitSet([2])) not in ghost
        for neighbor, region in ghost:
            assert neighbor.opposite().issubset(region)
        assert len(ghost) == sum(
            neighbor.opposite().issubset(region)
            for neighbor in all_regions(3)
            for region in all_regions(3)
        )

    def test_ghost_subsection_location(self, small_decomp):
        # Neighbor above us on axis 3 sends its bottom face region.
        asn = small_decomp.assignment(1)
        s = asn.ghost[(BitSet([3]), BitSet([-3]))]
        assert s.box_lo == (1, 1, 4)  # one past our grid: the ghost shell
        assert s.box_extent == (2, 2, 1)
        # Every ghost box is its sender region's box shifted by T * n.
        for (neighbor, region), g in asn.ghost.items():
            sent = asn.surface[region]
            shift = tuple(4 * t for t in neighbor.to_vector(3))
            assert g.box_extent == sent.box_extent
            assert g.box_lo == tuple(l + t for l, t in zip(sent.box_lo, shift))
            cells = asn.grid_index[
                tuple(
                    slice(l + 1, l + 1 + e)
                    for l, e in zip(reversed(g.box_lo), reversed(g.box_extent))
                )
            ]
            assert sorted(cells.reshape(-1).tolist()) == list(range(g.start, g.end))


class TestAssignment:
    def test_counts(self, small_decomp):
        asn = small_decomp.assignment(1)
        assert asn.total_slots == 6**3
        assert asn.logical_bricks == 6**3
        assert asn.interior.nbricks == 2**3
        assert sum(s.nbricks for s in asn.sections if s.kind == "surface") == 56
        assert sum(s.nbricks for s in asn.sections if s.kind == "ghost") == 152

    def test_grid_index_is_bijection(self, small_decomp):
        asn = small_decomp.assignment(1)
        vals = asn.grid_index.reshape(-1)
        assert sorted(vals.tolist()) == list(range(6**3))

    def test_slot_coords_inverse(self, small_decomp):
        asn = small_decomp.assignment(1)
        W = small_decomp.width
        for slot in range(0, asn.total_slots, 17):
            c = asn.slot_coords[slot]
            np_idx = tuple(int(c[a] + W) for a in range(2, -1, -1))
            assert asn.grid_index[np_idx] == slot

    def test_surface_sections_in_layout_order(self, small_decomp):
        asn = small_decomp.assignment(1)
        starts = [asn.surface[r].start for r in small_decomp.layout]
        assert starts == sorted(starts)
        # back-to-back: no gaps between surface sections
        for a, b in zip(small_decomp.layout, small_decomp.layout[1:]):
            assert asn.surface[a].end == asn.surface[b].start

    def test_ghost_groups_per_neighbor_contiguous(self, small_decomp):
        d = small_decomp
        asn = d.assignment(1)
        for T in d.layout:
            secs = [
                asn.ghost[(T, S)]
                for S in d.layout
                if T.opposite().issubset(S)
            ]
            for a, b in zip(secs, secs[1:]):
                assert a.end == b.start

    def test_cached(self, small_decomp):
        assert small_decomp.assignment(1) is small_decomp.assignment(1)

    def test_alignment_pads_section_starts(self, small_decomp):
        asn = small_decomp.assignment(16)
        for s in asn.sections:
            if s.kind != "interior" and s.nbricks:
                assert s.start % 16 == 0
        assert asn.total_slots % 16 == 0
        assert asn.padding_slots > 0

    def test_padding_slots_marked(self, small_decomp):
        asn = small_decomp.assignment(16)
        n_pad = sum(asn.is_padding(s) for s in range(asn.total_slots))
        assert n_pad == asn.padding_slots

    def test_alignment_for_page(self, small_decomp):
        assert small_decomp.alignment_for_page(4096) == 1
        assert small_decomp.alignment_for_page(65536) == 16
        assert small_decomp.alignment_for_page(16384) == 4


class TestDegenerate:
    def test_tiny_grid_all_corners(self, tiny_decomp):
        asn = tiny_decomp.assignment(1)
        assert asn.interior.nbricks == 0
        corners = [
            s for s in asn.sections
            if s.kind == "surface" and s.region is not None and len(s.region) == 3
        ]
        assert sum(s.nbricks for s in corners) == 8
        faces = [
            s for s in asn.sections
            if s.kind == "surface" and s.region is not None and len(s.region) == 1
        ]
        assert all(s.nbricks == 0 for s in faces)

    def test_tiny_total(self, tiny_decomp):
        asn = tiny_decomp.assignment(1)
        assert asn.logical_bricks == 4**3 - 2**3 + 2**3  # shell + surface cube


class Test2D:
    def test_counts(self, decomp2d):
        d = decomp2d
        assert d.grid == (8, 8)
        asn = d.assignment(1)
        assert asn.total_slots == 10**2
        assert d.messages_per_exchange == 9


@settings(max_examples=15, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda nd: st.tuples(
            st.just(nd),
            st.tuples(*([st.integers(2, 5)] * nd)),
            st.integers(1, 2),
        )
    )
)
def test_assignment_partition_property(case):
    """Sections always partition the full grid of bricks."""
    nd, grid_mult, width = case
    bd = 4
    extent = tuple((2 * width + g) * bd for g in grid_mult)
    try:
        d = BrickDecomp(extent, (bd,) * nd, width * bd)
    except ValueError:
        return
    asn = d.assignment(1)
    full = math.prod(n + 2 * width for n in d.grid)
    assert asn.total_slots == full
    assert sorted(asn.grid_index.reshape(-1).tolist()) == list(range(full))
