"""Region/neighbor enumeration and the send relation."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.layout.regions import (
    all_neighbors,
    all_regions,
    receiving_neighbors,
    region_brick_extent,
)
from repro.util.bitset import BitSet


class TestEnumeration:
    @pytest.mark.parametrize("ndim,count", [(1, 2), (2, 8), (3, 26), (4, 80)])
    def test_region_count(self, ndim, count):
        regions = all_regions(ndim)
        assert len(regions) == count == 3**ndim - 1
        assert len(set(regions)) == count

    def test_neighbors_equal_regions(self):
        assert all_neighbors(3) == all_regions(3)

    def test_invalid_ndim(self):
        with pytest.raises(ValueError):
            all_regions(0)

    def test_2d_lexicographic_matches_figure2(self):
        # Figure 2(L) numbering: 1..8 bottom row, sides, top row.
        vecs = [r.to_vector(2) for r in all_regions(2)]
        assert vecs == [
            (-1, -1), (0, -1), (1, -1),
            (-1, 0), (1, 0),
            (-1, 1), (0, 1), (1, 1),
        ]


class TestSendRelation:
    def test_corner_goes_to_three_in_2d(self):
        nbrs = receiving_neighbors(BitSet([-1, -2]))
        assert set(nbrs) == {BitSet([-1]), BitSet([-2]), BitSet([-1, -2])}

    def test_face_goes_to_one(self):
        assert receiving_neighbors(BitSet([1])) == [BitSet([1])]

    def test_3d_corner_goes_to_seven(self):
        assert len(receiving_neighbors(BitSet([1, 2, 3]))) == 7

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            receiving_neighbors(BitSet())

    def test_total_pairs_equals_eq3(self):
        for ndim in (1, 2, 3):
            pairs = sum(
                len(receiving_neighbors(r)) for r in all_regions(ndim)
            )
            assert pairs == 5**ndim - 3**ndim


class TestRegionExtent:
    def test_corner_edge_face_3d(self):
        grid = (6, 6, 6)
        assert region_brick_extent(BitSet([1, 2, 3]), grid, 1) == (1, 1, 1)
        assert region_brick_extent(BitSet([1, 2]), grid, 1) == (1, 1, 4)
        assert region_brick_extent(BitSet([3]), grid, 1) == (4, 4, 1)

    def test_width_2(self):
        assert region_brick_extent(BitSet([-1]), (8, 8), 2) == (2, 4)

    def test_degenerate_interior(self):
        # n == 2 * width: free axes have zero span.
        assert region_brick_extent(BitSet([1]), (2, 2), 1) == (1, 0)

    def test_too_small_grid(self):
        with pytest.raises(ValueError):
            region_brick_extent(BitSet([1]), (1, 4), 1)


@given(st.integers(1, 3), st.integers(1, 2), st.integers(2, 4))
def test_region_volumes_tile_the_surface_shell(ndim, width, interior):
    """Surface regions partition the shell between interior and boundary."""
    n = 2 * width + interior
    grid = (n,) * ndim
    shell = n**ndim - interior**ndim
    total = sum(
        math.prod(region_brick_extent(r, grid, width)) for r in all_regions(ndim)
    )
    assert total == shell
