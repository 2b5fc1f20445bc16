"""Array<->brick conversion.  (Cross-brick reads through the adjacency
are covered by ``tests/test_stencil_kernels.py::TestHaloGather``; the
file name is the id the test floor records.)"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.brick.convert import (
    bricks_to_extended,
    extended_shape,
    extended_to_bricks,
)
from repro.brick.decomp import BrickDecomp


def _random_extended(decomp, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random(extended_shape(decomp))


class TestConversion:
    def test_roundtrip(self, small_decomp):
        st_, asn = small_decomp.allocate()
        arr = _random_extended(small_decomp)
        extended_to_bricks(arr, small_decomp, st_, asn)
        np.testing.assert_array_equal(
            bricks_to_extended(small_decomp, st_, asn), arr
        )

    def test_roundtrip_padded_storage(self, small_decomp):
        st_, asn = small_decomp.mmap_alloc(65536)
        arr = _random_extended(small_decomp, 1)
        extended_to_bricks(arr, small_decomp, st_, asn)
        np.testing.assert_array_equal(
            bricks_to_extended(small_decomp, st_, asn), arr
        )
        st_.close()

    def test_roundtrip_2d(self, decomp2d):
        st_, asn = decomp2d.allocate()
        arr = _random_extended(decomp2d, 2)
        extended_to_bricks(arr, decomp2d, st_, asn)
        np.testing.assert_array_equal(
            bricks_to_extended(decomp2d, st_, asn), arr
        )

    def test_shape_check(self, small_decomp):
        st_, asn = small_decomp.allocate()
        with pytest.raises(ValueError):
            extended_to_bricks(np.zeros((4, 4, 4)), small_decomp, st_, asn)

    def test_brick_contents_are_blocks(self, small_decomp):
        """One brick holds exactly one 8^3 block of the extended array."""
        d = small_decomp
        st_, asn = d.allocate()
        arr = _random_extended(d, 3)
        extended_to_bricks(arr, d, st_, asn)
        slot = int(asn.grid_index[2, 3, 1])  # grid coord (a3=2,a2=3,a1=1)
        block = st_.data[slot].reshape(8, 8, 8)  # numpy order axis3..axis1
        np.testing.assert_array_equal(
            block, arr[16:24, 24:32, 8:16]
        )

    def test_fields_interleaved(self):
        d = BrickDecomp((16, 16, 16), (8, 8, 8), 8, nfields=2)
        st_, asn = d.allocate()
        a0 = _random_extended(d, 4)
        a1 = _random_extended(d, 5)
        extended_to_bricks(a0, d, st_, asn, fld=0)
        extended_to_bricks(a1, d, st_, asn, fld=1)
        np.testing.assert_array_equal(bricks_to_extended(d, st_, asn, fld=0), a0)
        np.testing.assert_array_equal(bricks_to_extended(d, st_, asn, fld=1), a1)

    def test_field_out_of_range(self, small_decomp):
        st_, asn = small_decomp.allocate()
        with pytest.raises(ValueError):
            bricks_to_extended(small_decomp, st_, asn, fld=1)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_conversion_preserves_all_values(seed):
    d = BrickDecomp((16, 16), (4, 4), 4)
    st_, asn = d.allocate()
    rng = np.random.default_rng(seed)
    arr = rng.random(extended_shape(d))
    extended_to_bricks(arr, d, st_, asn)
    assert np.array_equal(bricks_to_extended(d, st_, asn), arr)
    # every array value appears exactly once in the logical slots
    logical = np.concatenate(
        [st_.data[s.start : s.end].reshape(-1) for s in asn.sections]
    )
    assert np.array_equal(np.sort(logical), np.sort(arr.reshape(-1)))
