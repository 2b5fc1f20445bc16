"""Array boxes and the message schedules of every scheme."""

import functools
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exchange.boxes import (
    bind_gather,
    bind_scatter,
    box_slices,
    box_table,
    neighbor_recv_box,
    neighbor_send_box,
    stage_table,
)
from repro.faults.errors import ExchangeConfigError
from repro.exchange.schedule import array_schedule
from repro.layout.order import SURFACE3D, lexicographic_order
from repro.layout.regions import all_regions
from repro.stencil import cbackend
from repro.util.bitset import BitSet
from tests.conftest import brick_sends, crc_lengths_match_zlib, wire_copy, zlib_crcs


class TestBoxes:
    def test_send_recv_shapes_match_opposites(self):
        extent, g = (16, 12, 8), 4
        for nbr in all_regions(3):
            _, s_ext = neighbor_send_box(nbr, extent, g)
            _, r_ext = neighbor_recv_box(nbr.opposite(), extent, g)
            assert s_ext == r_ext

    def test_send_box_inside_owned(self):
        extent, g = (16, 16, 16), 4
        lo, ext = neighbor_send_box(BitSet([1, -3]), extent, g)
        assert lo == (16, 4, 4)
        assert ext == (4, 16, 4)

    def test_recv_box_in_ghost(self):
        extent, g = (16, 16, 16), 4
        lo, ext = neighbor_recv_box(BitSet([1]), extent, g)
        assert lo == (20, 4, 4)
        assert ext == (4, 16, 16)

    def test_recv_boxes_disjoint(self):
        """Ghost regions are disjoint (paper Section 3.2)."""
        extent, g = (8, 8), 2
        cells = set()
        for nbr in all_regions(2):
            lo, ext = neighbor_recv_box(nbr, extent, g)
            for i in range(lo[0], lo[0] + ext[0]):
                for j in range(lo[1], lo[1] + ext[1]):
                    assert (i, j) not in cells
                    cells.add((i, j))
        # exactly the ghost shell
        assert len(cells) == 12 * 12 - 8 * 8

    def test_box_slices_numpy_order(self):
        slc = box_slices(((1, 2, 3), (4, 5, 6)))
        assert slc == (slice(3, 9), slice(2, 7), slice(1, 5))

    def test_validation(self):
        with pytest.raises(ValueError):
            neighbor_send_box(BitSet(), (8, 8), 2)
        with pytest.raises(ValueError):
            neighbor_send_box(BitSet([1]), (8, 8), 0)


GRID, WIDTH, BB = (8, 8, 8), 1, 4096  # 8^3 float64 bricks


class TestBrickSchedules:
    """The brick templates the ranks bind (``schedule_template``)."""

    def test_layout_message_count(self):
        specs = brick_sends("layout", GRID, WIDTH, SURFACE3D)
        assert len(specs) == 42

    def test_basic_message_count(self):
        specs = brick_sends("basic", GRID, WIDTH, SURFACE3D)
        assert len(specs) == 98

    def test_lexicographic_layout_count(self):
        # 2-D figure-2 order needs 12 messages.
        specs = brick_sends("layout", (8, 8), 1, lexicographic_order(2))
        assert len(specs) == 12

    def test_total_payload_independent_of_scheme(self):
        """Layout vs Basic move identical bytes, just in different
        message counts."""
        lay = brick_sends("layout", GRID, WIDTH, SURFACE3D)
        bas = brick_sends("basic", GRID, WIDTH, SURFACE3D)
        assert sum(m.payload_bytes for m in lay) == sum(
            m.payload_bytes for m in bas
        )

    def test_payload_equals_ghost_volume(self):
        """Total sent bytes = total ghost bytes of one neighbor set."""
        specs = brick_sends("layout", GRID, WIDTH, SURFACE3D)
        n = GRID[0]
        shell = (n + 2 * WIDTH) ** 3 - n**3
        # each (region, neighbor) instance is sent once; sum over
        # neighbors of regions >= shell (overlap multiplicity)
        per_region_instances = sum(m.payload_bytes for m in specs) // BB
        expected = sum(
            math.prod(
                (WIDTH if v else n - 2 * WIDTH) for v in r.to_vector(3)
            ) * (2 ** len(r) - 1)
            for r in all_regions(3)
        )
        assert per_region_instances == expected

    def test_degenerate_grid_drops_empty(self):
        specs = brick_sends("layout", (2, 2, 2), 1, SURFACE3D)
        assert 0 < len(specs) < 42
        assert all(m.payload_bytes > 0 for m in specs)


class TestMemMapSchedule:
    def test_one_message_per_neighbor(self):
        specs = brick_sends("memmap", GRID, WIDTH, SURFACE3D, 65536)
        assert len(specs) == 26

    def test_padding_with_64k_pages(self):
        specs = brick_sends("memmap", GRID, WIDTH, SURFACE3D, 65536)
        assert all(m.wire_bytes >= m.payload_bytes for m in specs)
        assert any(m.wire_bytes > m.payload_bytes for m in specs)
        for m in specs:
            assert m.wire_bytes % 65536 == 0

    def test_no_padding_when_brick_is_page(self):
        """On Theta an 8^3 double brick is exactly one 4 KiB page."""
        specs = brick_sends("memmap", GRID, WIDTH, SURFACE3D, 4096)
        assert all(m.wire_bytes == m.payload_bytes for m in specs)

    def test_mapping_counts_match_runs(self):
        from repro.layout.messages import message_runs

        specs = brick_sends("memmap", GRID, WIDTH, SURFACE3D, 65536)
        total_runs = sum(m.nmappings for m in specs)
        expected = sum(
            len(message_runs(SURFACE3D, t)) for t in all_regions(3)
        )
        assert total_runs == expected == 42

    def test_page1_equals_payload(self):
        specs = brick_sends("memmap", GRID, WIDTH, SURFACE3D, 1)
        assert all(m.wire_bytes == m.payload_bytes for m in specs)


class TestArraySchedule:
    def test_one_box_per_neighbor(self):
        specs = array_schedule((16, 16, 16), 8)
        assert len(specs) == 26

    def test_face_normal_axis1_is_strided(self):
        specs = array_schedule((64, 64, 64), 8)
        by_nbr = {m.neighbor: m for m in specs}
        face_x = by_nbr[BitSet([1])]
        assert face_x.run_elems == 8  # g-element runs
        assert face_x.nsegments == 64 * 64
        face_z = by_nbr[BitSet([3])]
        assert face_z.run_elems == 64  # full interior rows

    def test_payload_matches_boxes(self):
        extent, g = (16, 16, 16), 8
        specs = array_schedule(extent, g)
        total = sum(m.payload_bytes for m in specs)
        expected = sum(
            math.prod(g if v else e for v, e in zip(n.to_vector(3), extent)) * 8
            for n in all_regions(3)
        )
        assert total == expected


# ----------------------------------------------------------------------
# The data-movement tier: C movers against the NumPy tier
# ----------------------------------------------------------------------
@st.composite
def _arrays_and_boxes(draw):
    """A random 1- to 3-D array and a list of boxes in it: random ones
    (zero-extent included) plus a ghost-width shell face and the whole
    array, the shapes an exchange binds."""
    ndim = draw(st.integers(1, 3))
    ghost = draw(st.integers(1, 2))
    shape = tuple(draw(st.integers(1, 5)) + 2 * ghost for _ in range(ndim))

    def box():
        out = []
        for n in shape:
            lo = draw(st.integers(0, n))
            out.append((lo, draw(st.integers(lo, n))))
        return tuple(out)

    boxes = draw(st.lists(st.builds(box), max_size=5))
    boxes.append(tuple((0, n) for n in shape))  # the full array
    boxes.append(((0, ghost),) + tuple((ghost, n - ghost) for n in shape[1:]))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random(shape), boxes


def _volume(box):
    return math.prod(hi - lo for lo, hi in box)


def _c_movers(guard=False):
    """The C movers ``mover_kernel`` resolves to, built with the
    environment's sanitizers (the CI sanitizer job runs this file)."""
    return cbackend._load_movers(cbackend.sanitize_flags(), guard)


def _regions(boxes):
    return [tuple(slice(lo, hi) for lo, hi in box) for box in boxes]


class TestMoversMatchNumPy:
    @settings(max_examples=60, deadline=None)
    @given(case=_arrays_and_boxes())
    def test_gather_scatter_copy_list_byte_identical(self, case):
        """Each C mover against NumPy slicing: pack, wire copy, unpack."""
        arr, boxes = case
        movers = _c_movers()
        bufs = [np.full(_volume(b), np.nan) for b in boxes]
        bind_gather(arr, boxes, bufs, movers)()
        for got, region in zip(bufs, _regions(boxes)):
            assert got.tobytes() == arr[region].tobytes()

        wire = [np.empty_like(b) for b in bufs]
        as_bytes = lambda bufs: [b.view(np.uint8) for b in bufs]  # noqa: E731
        movers.copy_list(as_bytes(bufs), as_bytes(wire))()
        for got, ref in zip(wire, bufs):
            assert got.tobytes() == ref.tobytes()

        out = np.full(arr.shape, -1.0)
        want = out.copy()
        for buf, region in zip(wire, _regions(boxes)):
            want[region] = buf.reshape(want[region].shape)
        bind_scatter(out, boxes, wire, movers)()
        assert out.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(case=_arrays_and_boxes())
    def test_scatter_of_gather_over_disjoint_boxes_is_identity(self, case):
        arr, _ = case
        movers = _c_movers()
        # Two slabs that tile the array along its first axis.
        cut = arr.shape[0] // 2
        rest = tuple((0, n) for n in arr.shape[1:])
        boxes = [((0, cut),) + rest, ((cut, arr.shape[0]),) + rest]
        bufs = [np.empty(_volume(b)) for b in boxes]
        bind_gather(arr, boxes, bufs, movers)()
        out = np.full(arr.shape, np.nan)
        bind_scatter(out, boxes, bufs, movers)()
        assert out.tobytes() == arr.tobytes()

    def test_stage_table_moves_a_side_in_one_call_each_way(self):
        """The staged binding: one gather fills the send buffer, one
        scatter lands the receive buffer, as NumPy slicing would."""
        arr = np.arange(6.0 * 6).reshape(6, 6)
        slabs = [((slice(1, 2), slice(1, 5)), (slice(0, 1), slice(1, 5)))]
        work = arr.copy()
        hooks = stage_table(work, box_table(work.shape, slabs))
        hooks.pre()
        assert hooks.send_bufs[0].tobytes() == arr[1, 1:5].tobytes()
        hooks.recv_bufs[0][:] = hooks.send_bufs[0]
        hooks.post()
        assert (work[0, 1:5] == arr[1, 1:5]).all()

    def test_cffi_refuses_what_the_movers_cannot_walk(self):
        """No silent fallback: an array the C movers cannot address --
        strided, or not float64 -- is refused at bind, naming why."""
        strided = np.zeros((6, 12))[:, ::2]
        slabs = [((slice(1, 2), slice(1, 5)), (slice(0, 1), slice(1, 5)))]
        with pytest.raises(ExchangeConfigError, match="C-contiguous"):
            stage_table(strided, box_table(strided.shape, slabs))
        with pytest.raises(ExchangeConfigError, match="float32"):
            stage_table(np.zeros((6, 6), np.float32), box_table((6, 6), slabs))


@pytest.mark.parametrize("tier", ["cffi"])  # the one tier: the ids the floor records
class TestBindRefusesAtBind:
    """What a raw pointer would turn into memory corruption is a typed
    error where the table is built."""

    @pytest.fixture
    def movers(self, tier):
        return _c_movers()

    ARR = np.zeros((4, 6))
    BOX = [((1, 3), (2, 5))]

    @pytest.mark.parametrize(
        "bufs,match",
        [
            ([np.zeros(5)], "elements"),  # wrong size
            ([np.zeros(6, dtype=np.float32)], "float32"),  # would cast
            ([np.zeros(12)[::2]], "C-contiguous"),
            ([np.zeros(6), np.zeros(6)], "2 buffers"),
        ],
    )
    def test_buffer_mismatch(self, movers, bufs, match):
        for bind in (bind_gather, bind_scatter):
            with pytest.raises(ExchangeConfigError, match=match):
                bind(self.ARR, self.BOX, bufs, movers)

    def test_box_outside_the_array(self, movers):
        for box in ([((1, 5), (2, 5))], [((2, 1), (2, 5))], [((1, 3),)]):
            with pytest.raises(ExchangeConfigError):
                bind_gather(self.ARR, box, [np.zeros(6)], movers)

    def test_read_only_targets(self, movers):
        frozen = np.zeros(6)
        frozen.flags.writeable = False
        with pytest.raises(ExchangeConfigError, match="read-only"):
            bind_gather(self.ARR, self.BOX, [frozen], movers)
        arr = np.zeros((4, 6))
        arr.flags.writeable = False
        with pytest.raises(ExchangeConfigError, match="read-only"):
            bind_scatter(arr, self.BOX, [np.zeros(6)], movers)
        bind_gather(arr, self.BOX, [np.zeros(6)], movers)()  # reading is fine


class TestMoverBoundsGuard:
    """``REPRO_CC_BOUNDS=1``: tables the binders would never build --
    forged past their checks -- raise and write nothing."""

    @pytest.fixture
    def guarded(self):
        return _c_movers(guard=True)

    def test_env_selects_the_guard(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC_BOUNDS", "1")
        assert cbackend.mover_kernel().guard
        monkeypatch.setenv("REPRO_CC_BOUNDS", "0")
        assert not cbackend.mover_kernel().guard

    def test_guarded_moves_are_byte_identical(self, guarded):
        arr = np.arange(4.0 * 6).reshape(4, 6)
        boxes = np.array([[(1, 3), (2, 5)], [(0, 4), (0, 6)]])
        bufs = [np.zeros(6), np.zeros(24)]
        guarded.gather(arr, boxes, bufs)()
        assert bufs[0].tolist() == arr[1:3, 2:5].reshape(-1).tolist()
        out = np.zeros_like(arr)
        guarded.scatter(out, boxes, bufs)()
        assert out.tobytes() == arr.tobytes()

    def test_forged_box_leaving_the_array(self, guarded):
        arr = np.arange(4.0 * 6).reshape(4, 6)
        good, forged = [(1, 3), (2, 5)], [(1, 5), (2, 5)]  # rows 1..5 of 4
        bufs = [np.full(6, -1.0), np.full(12, -1.0)]
        boxes = np.array([good, forged])
        with pytest.raises(cbackend.KernelBoundsError, match="1 out-of-range"):
            guarded.gather(arr, boxes, bufs)()
        assert all((b == -1.0).all() for b in bufs)  # not even the good box
        out = np.zeros_like(arr)
        with pytest.raises(cbackend.KernelBoundsError, match="1 out-of-range"):
            guarded.scatter(out, boxes, bufs)()
        assert not out.any()

    def test_buffer_shorter_than_its_box(self, guarded):
        arr = np.arange(4.0 * 6).reshape(4, 6)
        boxes = np.array([[(1, 3), (2, 5)]])  # 6 elements
        short = [np.full(5, -1.0)]
        with pytest.raises(cbackend.KernelBoundsError, match="1 out-of-range"):
            guarded.gather(arr, boxes, short)()
        assert (short[0] == -1.0).all()
        out = np.zeros_like(arr)
        with pytest.raises(cbackend.KernelBoundsError, match="1 out-of-range"):
            guarded.scatter(out, boxes, short)()
        assert not out.any()

    def test_copy_list_length_past_its_view(self, guarded):
        src = [np.arange(8, dtype=np.uint8), np.arange(4, dtype=np.uint8)]
        dst = [np.zeros(8, dtype=np.uint8), np.zeros(6, dtype=np.uint8)]
        # The second copy would read 6 bytes of a 4-byte view.
        with pytest.raises(cbackend.KernelBoundsError, match="1 out-of-range"):
            guarded.copy_list(src, dst)()
        assert not dst[0].any() and not dst[1].any()

    def test_crc_length_past_its_view(self, guarded):
        if guarded.crc_refusal:
            pytest.skip(guarded.crc_refusal)
        src = [np.arange(8, dtype=np.uint8), np.arange(4, dtype=np.uint8)]
        dst = [np.zeros(8, dtype=np.uint8), np.zeros(6, dtype=np.uint8)]
        # The second copy would read 6 bytes of a 4-byte view: nothing
        # moves, no CRC is written (the call never returns its list).
        with pytest.raises(cbackend.KernelBoundsError, match="1 out-of-range"):
            guarded.copy_crc_list(src, dst)()
        assert not dst[0].any() and not dst[1].any()
        # The seal takes each length from its own view, so it takes a
        # forged length table to overrun one.
        forged = guarded._crcs(
            guarded._lib.repro_crc_list,
            (guarded._pointers(src), guarded._sizes([8, 6])), 2,
            (guarded._sizes([8, 4]),), "checksum length(s)",
        )
        with pytest.raises(cbackend.KernelBoundsError, match="1 out-of-range"):
            forged()
        assert guarded.crc_list(src)() == zlib_crcs(src)


# ----------------------------------------------------------------------
# The CRC movers: zlib.crc32's function, and zlib.crc32 around the C copy
# ----------------------------------------------------------------------
@st.composite
def _byte_runs(draw):
    """Views of one random byte pool: lengths under 64 (the byte table
    alone), non-multiples of 16 (its tail) and up to 70 000, at odd
    start offsets."""
    length = st.one_of(
        st.integers(0, 70), st.integers(0, 5000), st.integers(0, 70_000)
    )
    runs = draw(st.lists(st.tuples(st.integers(0, 33), length), min_size=1, max_size=6))
    seed = draw(st.integers(0, 2**32 - 1))
    pool = np.random.default_rng(seed).integers(
        0, 256, 34 + max(n for _lo, n in runs), dtype=np.uint8
    )
    return [pool[lo : lo + n] for lo, n in runs]


def _crc_tiers():
    """``(name, crc_list, copy_crc_list)``: the C pair where this CPU
    folds, and the fabric's ``zlib.crc32`` pair around the C copy."""
    from repro.simmpi import fabric as fabric_mod

    tiers = [(
        "zlib",
        fabric_mod._zlib_crc_list,
        functools.partial(fabric_mod._zlib_copy_crc_list, wire_copy),
    )]
    movers = _c_movers()
    if not movers.crc_refusal:
        tiers.append(("cffi", movers.crc_list, movers.copy_crc_list))
    return tiers


class TestCrcMoversMatchZlib:
    @settings(max_examples=60, deadline=None)
    @given(views=_byte_runs())
    def test_seal_and_landed_crcs_equal_zlib(self, views):
        from repro.exchange.envelope import checksum

        want = zlib_crcs([v.tobytes() for v in views])
        assert zlib_crcs(views) == np.array(
            [checksum(v) for v in views], dtype=np.uint32
        ).tobytes() == want
        for name, crc_list, copy_crc_list in _crc_tiers():
            assert crc_list(views)() == want, name
            landed = [np.full(v.size, 0xA5, dtype=np.uint8) for v in views]
            assert copy_crc_list(views, landed)() == want, name
            for got, src in zip(landed, views):
                assert got.tobytes() == src.tobytes(), name

    def test_fixed_lengths_around_the_fold_boundaries(self):
        movers = _c_movers()
        if movers.crc_refusal:
            pytest.skip(movers.crc_refusal)
        pool = np.random.default_rng(7).integers(0, 256, 230_000, dtype=np.uint8)
        lengths = list(range(300)) + [4096, 4097, 8191, 12345, 32768, 229_376]
        for start in (0, 1, 3):
            views = [pool[start : start + n] for n in lengths]
            assert movers.crc_list(views)() == zlib_crcs(views)

    def test_every_length_to_1100_at_every_offset(self):
        """The host build's fold -- the 512-bit one where this CPU and
        compiler take AVX-512 with VPCLMULQDQ -- against ``zlib.crc32``;
        ``tests/test_kernel_flags.py`` runs the same over the portable
        build's 128-bit fold."""
        movers = _c_movers()
        if movers.crc_refusal:
            pytest.skip(movers.crc_refusal)
        crc_lengths_match_zlib(movers)

    def test_a_cpu_without_carry_less_multiply_checksums_with_zlib(
        self, monkeypatch, empty_kernel_cache
    ):
        """The probe forced false: the movers still resolve and their
        copies engage; the CRC binders say why they cannot, and a
        verified channel seals and checks with ``zlib.crc32`` around
        the C copy -- and says so."""
        from repro.exchange.base import ExchangeChannel, ExchangeResult
        from repro.simmpi import SimFabric, run_spmd
        from repro.util.timing import TimeBreakdown

        monkeypatch.setattr(cbackend, "_kernels", {})
        real = cbackend.Movers.__init__

        def no_pclmul(self, ffi, lib, guard):
            real(self, ffi, lib, guard)
            self.crc_refusal = "probe forced false"

        monkeypatch.setattr(cbackend.Movers, "__init__", no_pclmul)
        movers = cbackend.mover_kernel()
        view = np.zeros(8, dtype=np.uint8)
        with pytest.raises(cbackend.KernelBuildError, match="probe forced false"):
            movers.crc_list([view])
        with pytest.raises(cbackend.KernelBuildError, match="probe forced false"):
            movers.copy_crc_list([view], [view.copy()])
        movers.copy_list([view], [view.copy()])()  # the copies engage

        fab = SimFabric(2)
        fab.enable_envelope()
        payload = np.arange(16.0)
        landed = np.zeros(16)

        def fn(comm):
            other = 1 - comm.rank
            send = payload if comm.rank == 0 else np.zeros(16)
            recv = landed if comm.rank == 1 else np.zeros(16)
            channel = ExchangeChannel(
                comm, "probe", [(other, 3, send)], [(other, 3, recv)],
                ExchangeResult(TimeBreakdown(), 1, 1, 128, 128),
            )
            channel.exchange()
            channel.wait_sends()
            return channel.copy_backend

        backends = run_spmd(2, fn, fabric=fab)
        assert backends == ["cffi (checksums on zlib: probe forced false)"] * 2
        assert landed.tobytes() == payload.tobytes()
