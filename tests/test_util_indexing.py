"""Index arithmetic helpers."""

import pytest

from repro.util.indexing import (
    ceil_div,
    lexicographic_coords,
    strides_for,
    unravel_index,
)


class TestCeilDiv:
    @pytest.mark.parametrize(
        "a,b,expected", [(0, 1, 0), (1, 1, 1), (7, 2, 4), (8, 2, 4), (9, 2, 5)]
    )
    def test_values(self, a, b, expected):
        assert ceil_div(a, b) == expected

    def test_zero_divisor(self):
        with pytest.raises(ValueError):
            ceil_div(1, 0)


class TestRavel:
    def test_strides(self):
        assert strides_for((2, 3, 4)) == (1, 2, 6)

    def test_unravel_bounds(self):
        with pytest.raises(IndexError):
            unravel_index(6, (2, 3))


class TestLexicographic:
    def test_order_axis1_fastest(self):
        coords = list(lexicographic_coords((2, 2)))
        assert coords == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_matches_ravel(self):
        extent = (3, 2, 4)
        for i, c in enumerate(lexicographic_coords(extent)):
            assert unravel_index(i, extent) == c

