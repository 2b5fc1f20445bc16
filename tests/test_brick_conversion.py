"""The field's way into and out of brick storage: one C mover call over a
conversion table, held to a per-element oracle.

The oracle is computed here, element by element, from the slot
assignment's ``grid_index`` and the in-brick offsets alone: extended
element ``c`` (numpy order) of brick ``p = c // b`` at offset ``q = c %
b`` lives at ``grid_index[p] * brick_elems + fld * brick_volume +
ravel(q)``.  Storage and destinations start as NaN, so every ghost,
padding and other-field slot -- and every element outside an owned
block -- must keep its bits.  (Anisotropic bricks are refused by
:class:`~repro.brick.decomp.BrickDecomp`, which needs one ghost width in
bricks on every axis: the shapes vary here by dimension, brick size and
subdomain extent.)
"""

import numpy as np
import pytest

from repro.brick.convert import (
    bricks_to_extended,
    conversion_table,
    extended_shape,
    extended_to_bricks,
)
from repro.brick.decomp import BrickDecomp
from repro.brick.storage import BrickStorage
from repro.core import driver
from repro.core.expansion import open_faces
from repro.core.geometry import RunGeometry
from repro.core.problem import StencilProblem
from repro.stencil import cbackend
from repro.stencil.spec import SEVEN_POINT, TWENTY_FIVE_POINT_2D
from repro.util.indexing import unravel_index


def _oracle(decomp, asn, fld=0):
    """Flat storage index of every extended element, one at a time."""
    bd = decomp.brick_dim[::-1]  # numpy order
    within = np.arange(decomp.brick_volume).reshape(bd)
    out = np.empty(extended_shape(decomp), dtype=np.int64)
    for c in np.ndindex(out.shape):
        p = tuple(ci // b for ci, b in zip(c, bd))
        q = tuple(ci % b for ci, b in zip(c, bd))
        out[c] = (
            int(asn.grid_index[p]) * decomp.brick_elems
            + fld * decomp.brick_volume
            + int(within[q])
        )
    return out


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _nan_storage(storage):
    storage.data[...] = np.nan
    return storage


def _owned(decomp):
    g = decomp.ghost_elems
    return tuple(slice(g, g + e) for e in reversed(decomp.extent))


# ----------------------------------------------------------------------
# The run's path: a brick rank's fill and result, from the geometry
# ----------------------------------------------------------------------
# (problem, method, page size): MemMap's padded assignment at 64 KiB
# pages pads 4 KiB bricks' sections to 16 slots, at the default 4 KiB
# pages smaller bricks' sections.
RUNS = {
    "3d-periodic-layout": (
        StencilProblem((32, 32, 32), (2, 2, 2), SEVEN_POINT), "layout", None
    ),
    "3d-open-layout": (
        StencilProblem((32, 32, 32), (2, 2, 2), SEVEN_POINT, periodic=False),
        "layout", None,
    ),
    "3d-periodic-memmap": (
        StencilProblem((32, 32, 32), (2, 2, 2), SEVEN_POINT), "memmap", 65536
    ),
    "3d-open-memmap-4": (
        StencilProblem(
            (32, 16, 8), (2, 1, 1), SEVEN_POINT, brick_dim=(4, 4, 4),
            ghost=4, periodic=False,
        ),
        "memmap", None,
    ),
    "2d-periodic-layout": (
        StencilProblem(
            (32, 16), (2, 1), TWENTY_FIVE_POINT_2D, brick_dim=(4, 4), ghost=4
        ),
        "layout", None,
    ),
    "2d-open-memmap": (
        StencilProblem(
            (32, 32), (2, 2), TWENTY_FIVE_POINT_2D, brick_dim=(4, 4),
            ghost=4, periodic=False,
        ),
        "memmap", None,
    ),
}


def _geometry(case):
    problem, method, page_size = RUNS[case]
    return RunGeometry(problem, method, page_size=page_size)


@pytest.mark.parametrize("case", sorted(RUNS))
def test_rank_fill_and_result_match_the_oracle(case):
    geometry = _geometry(case)
    problem, decomp, asn = geometry.problem, geometry.decomp, geometry.assignment
    if geometry.method == "memmap":
        assert asn.padding_slots > 0  # the padded assignment is exercised
    oracle = _oracle(decomp, asn)
    own = oracle[_owned(decomp)]
    field = geometry.initial(3)
    for rank in range(problem.nranks):
        coords = unravel_index(rank, problem.rank_dims)
        block = problem.owned_slices(coords)
        state = driver._brick_state(geometry, 1, open_faces(problem, coords))
        try:
            storage = _nan_storage(state.buffers[0])
            state.fill(field[block])
            want = np.full(storage.data.size, np.nan)
            want[own] = field[block]
            assert (_bits(storage.data.reshape(-1)) == _bits(want)).all()

            # Collect from a storage whose every slot holds a value: the
            # owned block lands in place, nothing around it is written.
            storage.data[...] = np.random.default_rng(rank).random(
                storage.data.shape
            )
            out = np.full(field.shape, np.nan)
            state.result(0, out[block])
            want = np.full(field.shape, np.nan)
            want[block] = storage.data.reshape(-1)[own]
            assert (_bits(out) == _bits(want)).all()
        finally:
            state.close()


def test_the_geometry_holds_the_owned_table():
    geometry = _geometry("3d-periodic-memmap")
    decomp, asn = geometry.decomp, geometry.assignment
    table = geometry.conversion
    assert table is conversion_table(decomp, asn)  # built once, shared
    nbricks = np.prod(decomp.grid)
    assert table.boxes.shape == (nbricks, decomp.ndim, 2)
    assert table.offsets.shape == (nbricks,)
    # Every owned brick once, at a logical (never a padding) slot.
    slots, rem = np.divmod(table.offsets, decomp.brick_elems)
    assert not rem.any()
    assert sorted(slots) == sorted(
        asn.grid_index[(slice(decomp.width, -decomp.width),) * 3].reshape(-1)
    )
    assert not any(asn.is_padding(int(s)) for s in slots)


# ----------------------------------------------------------------------
# The whole-extended form and interleaved fields
# ----------------------------------------------------------------------
DECOMPS = {
    "3d-8": lambda: BrickDecomp((16, 16, 16), (8, 8, 8), 8),
    "3d-4-slab": lambda: BrickDecomp((16, 8, 12), (4, 4, 4), 4),
    "2d-4": lambda: BrickDecomp((16, 8), (4, 4), 4),
    "3d-8-fields": lambda: BrickDecomp((16, 16, 16), (8, 8, 8), 8, nfields=2),
}


@pytest.mark.parametrize("name", sorted(DECOMPS))
@pytest.mark.parametrize("alignment", [1, 16])
def test_both_forms_match_the_oracle(name, alignment):
    decomp = DECOMPS[name]()
    asn = decomp.assignment(alignment)
    rng = np.random.default_rng(alignment)
    for fld in range(decomp.nfields):
        oracle = _oracle(decomp, asn, fld)
        storage = _nan_storage(
            BrickStorage.allocate(asn.total_slots, decomp.brick_elems)
        )
        ext = rng.random(extended_shape(decomp))
        extended_to_bricks(ext, decomp, storage, asn, fld=fld)
        want = np.full(storage.data.size, np.nan)
        want[oracle] = ext
        assert (_bits(storage.data.reshape(-1)) == _bits(want)).all()
        got = bricks_to_extended(decomp, storage, asn, fld)
        assert (_bits(got) == _bits(ext)).all()

        # The owned block of a larger array, strided, both ways.
        storage.data[...] = np.nan
        big = rng.random(tuple(n + 6 for n in reversed(decomp.extent)))
        inner = (slice(3, -3),) * decomp.ndim
        block = big[inner]
        extended_to_bricks(block, decomp, storage, asn, fld=fld)
        want = np.full(storage.data.size, np.nan)
        want[oracle[_owned(decomp)]] = block
        assert (_bits(storage.data.reshape(-1)) == _bits(want)).all()
        out = np.full(big.shape, np.nan)
        bricks_to_extended(decomp, storage, asn, fld, out=out[inner])
        want = np.full(big.shape, np.nan)
        want[inner] = block
        assert (_bits(out) == _bits(want)).all()


# ----------------------------------------------------------------------
# Refusals
# ----------------------------------------------------------------------
class TestRefusals:
    def test_shapes_dtypes_and_strides(self, small_decomp):
        d = small_decomp
        storage, asn = d.allocate()
        ext = np.zeros(extended_shape(d))
        for bad in (
            ext.astype(np.float32),  # not the storage's dtype
            np.zeros((48, 48, 96))[:, :, ::2],  # rows not unit-stride
            ext[::-1],  # negative stride
        ):
            with pytest.raises(ValueError):
                extended_to_bricks(bad, d, storage, asn)
        ext.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            bricks_to_extended(d, storage, asn, out=ext)


# ----------------------------------------------------------------------
# REPRO_CC_BOUNDS=1: a poisoned table raises before anything moves
# ----------------------------------------------------------------------
class TestBoundsGuard:
    @pytest.fixture
    def guarded(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC_BOUNDS", "1")
        movers = cbackend.mover_kernel()
        assert movers.guard
        return movers

    @pytest.fixture
    def case(self, tiny_decomp):
        d = tiny_decomp
        storage, asn = d.mmap_alloc(65536)
        yield d, _nan_storage(storage), asn
        storage.close()

    def test_guarded_conversion_is_bit_identical(self, guarded, case):
        d, storage, asn = case
        ext = np.random.default_rng(7).random(extended_shape(d))
        extended_to_bricks(ext, d, storage, asn)
        want = np.full(storage.data.size, np.nan)
        want[_oracle(d, asn)] = ext
        assert (_bits(storage.data.reshape(-1)) == _bits(want)).all()
        assert (bricks_to_extended(d, storage, asn) == ext).all()

    @pytest.mark.parametrize("poison", ["slot_past_end", "negative_slot", "box"])
    def test_poisoned_table_moves_nothing(self, guarded, case, poison):
        d, storage, asn = case
        table = conversion_table(d, asn)
        boxes, offsets = table.boxes.copy(), table.offsets.copy()
        if poison == "slot_past_end":
            offsets[3] = storage.data.size - d.brick_volume + 1
        elif poison == "negative_slot":
            offsets[3] = -d.brick_elems
        else:
            boxes[3, 0, 1] = d.extent[-1] + 1
        block = np.random.default_rng(8).random(tuple(reversed(d.extent)))
        flat = storage.data.reshape(-1)
        before = _bits(flat).copy()
        with pytest.raises(cbackend.KernelBoundsError, match="1 out-of-range"):
            guarded.gather_slots(block, boxes, flat, offsets)()
        assert (_bits(flat) == before).all()  # not even the good bricks
        out = np.full(block.shape, np.nan)
        with pytest.raises(cbackend.KernelBoundsError, match="1 out-of-range"):
            guarded.scatter_slots(out, boxes, flat, offsets)()
        assert np.isnan(out).all()
