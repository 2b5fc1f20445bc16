"""Derived datatypes: extraction/insertion and segment profiles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exchange.boxes import box_table, stage_table
from repro.faults.errors import ExchangeConfigError
from repro.simmpi.datatypes import ContiguousType, SubarrayType, VectorType


class TestContiguous:
    def test_roundtrip(self):
        arr = np.arange(20.0)
        t = ContiguousType(5, offset=3)
        buf = t.extract(arr)
        np.testing.assert_array_equal(buf, np.arange(3.0, 8.0))
        out = np.zeros(20)
        t.insert(out, buf)
        np.testing.assert_array_equal(out[3:8], buf)

    def test_profile(self):
        assert ContiguousType(100).segment_profile() == (1, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            ContiguousType(0)


class TestVector:
    def test_roundtrip(self):
        arr = np.arange(24.0)
        t = VectorType(nblocks=3, blocklength=2, stride=8, offset=1)
        buf = t.extract(arr)
        np.testing.assert_array_equal(buf, [1, 2, 9, 10, 17, 18])
        out = np.zeros(24)
        t.insert(out, buf)
        assert out[9] == 9.0 and out[0] == 0.0

    def test_profile_strided(self):
        assert VectorType(10, 4, 16).segment_profile() == (10, 4)

    def test_profile_dense_collapses(self):
        assert VectorType(10, 4, 4).segment_profile() == (1, 40)

    def test_stride_check(self):
        with pytest.raises(ValueError):
            VectorType(2, 8, 4)


class TestSubarray:
    def test_roundtrip_3d(self):
        arr = np.arange(4 * 5 * 6, dtype=np.float64).reshape(4, 5, 6)
        t = SubarrayType(arr.shape, (2, 3, 4), (1, 1, 1))
        buf = t.extract(arr)
        np.testing.assert_array_equal(buf, arr[1:3, 1:4, 1:5].reshape(-1))
        out = np.zeros_like(arr)
        t.insert(out, buf)
        np.testing.assert_array_equal(out[1:3, 1:4, 1:5].reshape(-1), buf)
        assert out[0].sum() == 0.0

    def test_profile_partial_inner(self):
        # inner axis not full -> one segment per (outer x middle) row
        t = SubarrayType((8, 8, 8), (2, 3, 4), (0, 0, 0))
        assert t.segment_profile() == (6, 4)

    def test_profile_full_inner(self):
        # inner axis full -> runs span inner x middle rows
        t = SubarrayType((8, 8, 8), (2, 3, 8), (0, 0, 0))
        assert t.segment_profile() == (6, 8) or t.segment_profile() == (2, 24)

    def test_profile_fully_contiguous(self):
        t = SubarrayType((4, 4, 4), (2, 4, 4), (0, 0, 0))
        assert t.segment_profile() == (1, 32)

    def test_count(self):
        assert SubarrayType((8, 8), (2, 3), (0, 0)).count == 6

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            SubarrayType((4, 4), (3, 3), (2, 2))

    def test_shape_check_on_extract(self):
        t = SubarrayType((4, 4), (2, 2), (0, 0))
        with pytest.raises(ValueError):
            t.extract(np.zeros((5, 5)))

    def test_insert_refuses_a_buffer_that_is_not_the_selection(self):
        """A wrong-sized buffer was a bare NumPy reshape error and a
        float32 one a silent cast; both are typed refusals."""
        t = SubarrayType((4, 4), (2, 3), (1, 0))
        arr = np.zeros((4, 4))
        with pytest.raises(ExchangeConfigError, match="7-element"):
            t.insert(arr, np.zeros(7))
        with pytest.raises(ExchangeConfigError, match="float32"):
            t.insert(arr, np.zeros(6, dtype=np.float32))
        assert not arr.any()

    @pytest.mark.parametrize("tier", ["cffi"])  # the id the test floor records
    def test_committed_subarrays_move_like_extract_and_insert(self, tier):
        """The persistent form: subarrays committed against the array
        once, the whole gather and the whole scatter one bound call each,
        moving the bytes ``extract`` / ``insert`` move."""
        arr = np.random.default_rng(5).random((5, 6, 7))
        sends = [
            SubarrayType(arr.shape, (2, 3, 4), (1, 1, 1)),
            SubarrayType(arr.shape, (5, 6, 1), (0, 0, 6)),
        ]
        recvs = [
            SubarrayType(arr.shape, (2, 3, 4), (3, 3, 3)),
            SubarrayType(arr.shape, (5, 6, 1), (0, 0, 0)),
        ]
        hooks = stage_table(
            arr,
            box_table(arr.shape, [(s.slices, r.slices) for s, r in zip(sends, recvs)]),
        )
        hooks.pre()
        for t, buf in zip(sends, hooks.send_bufs):
            assert buf.tobytes() == t.extract(arr).tobytes()
        expected = arr.copy()
        for t, recv, sent in zip(recvs, hooks.recv_bufs, hooks.send_bufs):
            recv[:] = sent
            t.insert(expected, sent)
        hooks.post()
        assert arr.tobytes() == expected.tobytes()


@given(
    st.tuples(st.integers(2, 6), st.integers(2, 6)).flatmap(
        lambda shape: st.tuples(
            st.just(shape),
            st.tuples(st.integers(1, shape[0]), st.integers(1, shape[1])),
        )
    ),
    st.integers(0, 2**31 - 1),
)
def test_subarray_extract_insert_identity(case, seed):
    shape, sub = case
    start = tuple((f - s) // 2 for f, s in zip(shape, sub))
    rng = np.random.default_rng(seed)
    arr = rng.random(shape)
    t = SubarrayType(shape, sub, start)
    out = np.zeros(shape)
    t.insert(out, t.extract(arr))
    slc = tuple(slice(s, s + e) for s, e in zip(start, sub))
    np.testing.assert_array_equal(out[slc], arr[slc])
    mask = np.ones(shape, dtype=bool)
    mask[slc] = False
    assert (out[mask] == 0).all()
