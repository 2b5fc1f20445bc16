"""One canonical accumulation order, grouped by coefficient, everywhere.

:func:`repro.stencil.spec.tap_groups` fixes how a point is summed: the
taps of one coefficient are added first, left to right, and multiplied
once.  The serial reference, both generic kernels and both compiled plan
kinds must produce the same bits from it -- on the paper's
stencils, on one whose shared coefficients interleave in tap order, and
on one whose coefficients are all distinct (whose bits are those of the
plain one-multiply-per-tap loop).
"""

import math

import numpy as np
import pytest

from repro.brick.info import BrickInfo, all_direction_vectors, direction_index
from repro.brick.storage import BrickStorage
from repro.stencil import cbackend
from repro.stencil.brick_kernels import apply_brick_stencil
from repro.stencil.kernels import apply_array_stencil, owned_slices
from repro.stencil.plan import compile_array_plan, compile_brick_plan
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import (
    CUBE125,
    SEVEN_POINT,
    TWENTY_FIVE_POINT_2D,
    star_stencil,
    tap_groups,
)

#: 13 taps, no two coefficients equal: singleton groups
DISTINCT = star_stencil(
    3, 2, coefficients=[0.25 + k / 64.0 for k in range(13)], name="distinct"
)
#: three shared coefficients cycling through the arms, so no group's
#: taps are neighbours in tap order
INTERLEAVED = star_stencil(
    3, 2, coefficients=[0.3] + [0.05, 0.0625, 0.075] * 4, name="interleaved"
)
SPECS = [SEVEN_POINT, CUBE125, TWENTY_FIVE_POINT_2D, DISTINCT, INTERLEAVED]


class TestTapGroups:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_partitions_in_first_appearance_order(self, spec):
        groups = spec.groups
        assert groups == tap_groups(spec.taps)
        members = [(off, coeff) for coeff, offs in groups for off in offs]
        assert sorted(members) == sorted(spec.taps)
        coeffs = [coeff.hex() for coeff, _ in groups]
        assert len(set(coeffs)) == len(coeffs)
        first = {}
        for off, coeff in spec.taps:
            first.setdefault(coeff.hex(), len(first))
        assert coeffs == sorted(first, key=first.get)
        order = {off: k for k, (off, _) in enumerate(spec.taps)}
        for _, offs in groups:
            assert list(offs) == sorted(offs, key=order.get)

    def test_paper_stencils(self):
        assert [len(offs) for _, offs in SEVEN_POINT.groups] == [1, 6]
        assert len(CUBE125.groups) == 10
        assert all(len(offs) == 1 for _, offs in DISTINCT.groups)
        assert [len(offs) for _, offs in INTERLEAVED.groups] == [1, 4, 4, 4]
        assert INTERLEAVED.groups[1][1] == (
            (-1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, -2)
        )

    def test_signed_zeros_stay_apart(self):
        taps = (((0,), 0.0), ((1,), -0.0), ((-1,), 0.0), ((2,), -0.0))
        assert [(coeff.hex(), offs) for coeff, offs in tap_groups(taps)] == [
            ((0.0).hex(), ((0,), (-1,))),
            ((-0.0).hex(), ((1,), (2,))),
        ]


# ----------------------------------------------------------------------
# Every implementation on one periodic field
# ----------------------------------------------------------------------

#: bricks per axis of the periodic brick grid covering the field
GRID = 3


def _brick_shape(spec):
    """Non-cubic bricks, numpy axis order."""
    return (5, 3, 4)[-spec.ndim:]


def _field(spec):
    shape = tuple(GRID * b for b in _brick_shape(spec))
    return np.random.default_rng(39).random(shape)


def _periodic_bricks(spec):
    """The periodic brick grid covering the whole field, slots
    row-major over it."""
    ids = np.arange(GRID**spec.ndim).reshape((GRID,) * spec.ndim)
    adjacency = np.empty((ids.size, 3**spec.ndim), dtype=np.int64)
    axes = tuple(range(spec.ndim))
    for vec in all_direction_vectors(spec.ndim):
        shift = tuple(-v for v in reversed(vec))
        adjacency[:, direction_index(vec)] = np.roll(ids, shift, axes).ravel()
    return BrickInfo(spec.ndim, tuple(reversed(_brick_shape(spec))), adjacency)


def _split(field, np_bd):
    """*field* as bricks of shape *np_bd*, in slot order."""
    ndim = len(np_bd)
    blocks = field.reshape([x for b in np_bd for x in (GRID, b)])
    order = list(range(0, 2 * ndim, 2)) + list(range(1, 2 * ndim, 2))
    storage = BrickStorage.allocate(GRID**ndim, math.prod(np_bd))
    storage.data[:] = blocks.transpose(order).reshape(GRID**ndim, -1)
    return storage


def _join(storage, np_bd):
    """:func:`_split` undone."""
    ndim = len(np_bd)
    blocks = storage.data.reshape((GRID,) * ndim + tuple(np_bd))
    order = [x for a in range(ndim) for x in (a, ndim + a)]
    return blocks.transpose(order).reshape([GRID * b for b in np_bd])


def _array(spec, plan):
    field = _field(spec)
    extent, ghost = tuple(reversed(field.shape)), spec.radius
    ext = np.pad(field, ghost, mode="wrap")
    out = np.full_like(ext, np.nan)
    if plan:
        plan = compile_array_plan(spec, extent, ghost)
        assert plan.kernel_backend == cbackend.c_tier()
        plan.execute(ext, out)
    else:
        apply_array_stencil(ext, out, spec, extent, ghost)
    return out[owned_slices(extent, ghost)]


def _bricks(spec, plan):
    info, np_bd = _periodic_bricks(spec), _brick_shape(spec)
    src = _split(_field(spec), np_bd)
    dst = BrickStorage.allocate(info.nslots, src.data.shape[1])
    dst.data[:] = np.nan
    slots = np.arange(info.nslots)
    if plan:
        plan = compile_brick_plan(spec, info, slots)
        assert plan.kernel_backend == cbackend.c_tier()
        plan.execute(src, dst)
    else:
        apply_brick_stencil(spec, src, dst, info, slots)
    return _join(dst, np_bd)


#: the generic kernels and the compiled plans ("_cffi": the id the test
#: floor records)
IMPLEMENTATIONS = {
    "array_kernel": lambda spec: _array(spec, plan=False),
    "brick_kernel": lambda spec: _bricks(spec, plan=False),
    "array_plan_cffi": lambda spec: _array(spec, plan=True),
    "brick_plan_cffi": lambda spec: _bricks(spec, plan=True),
}


def same_bits(got, ref):
    np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("impl", sorted(IMPLEMENTATIONS))
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_every_tier_matches_the_reference(spec, impl):
    ref = apply_periodic_reference(_field(spec), spec)
    same_bits(IMPLEMENTATIONS[impl](spec), ref)


def test_distinct_coefficients_keep_the_tap_order_bits():
    """Singleton groups are the one-multiply-per-tap loop, bit for bit."""
    field = _field(DISTINCT)
    acc = None
    for off, coeff in DISTINCT.taps:
        term = coeff * np.roll(field, tuple(-o for o in reversed(off)), (0, 1, 2))
        acc = term if acc is None else acc + term
    same_bits(apply_periodic_reference(field, DISTINCT), acc)


def test_grouping_changes_bits_where_coefficients_repeat():
    """The order is a real choice: on the interleaved stencil the tap
    order gives other bits, so the tiers above agree on the grouped one."""
    field = _field(INTERLEAVED)
    acc = None
    for off, coeff in INTERLEAVED.taps:
        term = coeff * np.roll(field, tuple(-o for o in reversed(off)), (0, 1, 2))
        acc = term if acc is None else acc + term
    assert not np.array_equal(apply_periodic_reference(field, INTERLEAVED), acc)
