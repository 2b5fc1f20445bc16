"""One canonical accumulation order, grouped by coefficient, everywhere.

:func:`repro.stencil.spec.tap_groups` fixes how a point is summed: the
taps of one coefficient are added first -- each x pair (two taps that
differ only in the sign of ``off[0]``) summed as one summand, the
summands left to right (:func:`repro.stencil.spec.group_terms`) -- and
multiplied once.  The serial reference, both generic kernels and both
compiled plan kinds must produce the same bits from it -- on the paper's
stencils, on one whose shared coefficients interleave in tap order, on
one whose coefficients are all distinct (whose bits are those of the
plain one-multiply-per-tap loop), and on one whose x pairs are split in
tap order (whose brick kernel runs the pair pass).
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
    StencilSpec,
    group_terms,
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
#: x pairs split in tap order by other taps of their group, at distance
#: 2 on two (dy, dz) offsets (so the brick kernel's pair pass engages)
#: and at distance 1 on one; ``(1, 0, 1)`` and ``(-1, 0, 1)`` differ
#: only in sign but not in coefficient, so they are no pair
SPLIT = StencilSpec("split-pairs", 3, (
    ((0, 0, 0), 0.4),
    ((2, 0, 0), 0.05),
    ((0, 1, 0), 0.05),
    ((1, 0, 1), 0.0625),
    ((-2, 0, 0), 0.05),
    ((-1, 0, 1), 0.075),
    ((1, -1, 0), 0.05),
    ((0, 0, -2), 0.0625),
    ((-1, -1, 0), 0.05),
    ((2, 1, -1), 0.0625),
    ((-2, 1, -1), 0.0625),
), 21.0, 16.0)
SPECS = [SEVEN_POINT, CUBE125, TWENTY_FIVE_POINT_2D, DISTINCT, INTERLEAVED, SPLIT]


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

    def test_split_pairs_sum_first_in_order_of_first_member(self):
        assert [group_terms(offs) for _, offs in SPLIT.groups] == [
            (((0, 0, 0),),),
            (((2, 0, 0), (-2, 0, 0)), ((0, 1, 0),), ((1, -1, 0), (-1, -1, 0))),
            (((1, 0, 1),), ((0, 0, -2),), ((2, 1, -1), (-2, 1, -1))),
            (((-1, 0, 1),),),
        ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_pairs_partition_each_group(self, spec):
        for _, offs in spec.groups:
            terms = group_terms(offs)
            assert sorted(off for term in terms for off in term) == sorted(offs)
            firsts = [term[0] for term in terms]
            assert firsts == sorted(firsts, key=offs.index)
            for a, b in (term for term in terms if len(term) == 2):
                assert a[0] == -b[0] != 0 and a[1:] == b[1:]

    def test_the_paper_stencils_pairs(self):
        """The 7-point star's one pair leads its group; the 125-point
        cube pairs every dx != 0 tap (25 pairs per distance 1, 2)."""
        assert [group_terms(offs) for _, offs in SEVEN_POINT.groups][1] == (
            ((-1, 0, 0), (1, 0, 0)), ((0, -1, 0),), ((0, 1, 0),),
            ((0, 0, -1),), ((0, 0, 1),),
        )
        pairs = [
            term for _, offs in CUBE125.groups for term in group_terms(offs)
            if len(term) == 2
        ]
        assert len(pairs) == 50
        for spec in (DISTINCT, INTERLEAVED):  # no pairs at all
            assert all(
                len(group_terms(offs)) == len(offs) for _, offs in spec.groups
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


def _left_to_right(spec, field):
    """*spec* summed in the order before x pairs: each group's members
    left to right in tap order."""
    acc = None
    for coeff, offsets in spec.groups:
        total = None
        for off in offsets:
            shifted = np.roll(
                field, tuple(-o for o in reversed(off)), tuple(range(spec.ndim))
            )
            total = shifted if total is None else total + shifted
        term = coeff * total
        acc = term if acc is None else acc + term
    return acc


@pytest.mark.parametrize(
    "spec", [SEVEN_POINT, DISTINCT, INTERLEAVED], ids=lambda s: s.name
)
def test_stencils_without_split_pairs_keep_their_bits(spec):
    """Where no pair is split by another summand of its group, pairing
    first is the left-to-right sum: the same bits as before pairs."""
    field = _field(spec)
    same_bits(apply_periodic_reference(field, spec), _left_to_right(spec, field))


@pytest.mark.parametrize("spec", [CUBE125, SPLIT], ids=lambda s: s.name)
def test_split_pairs_change_the_bits(spec):
    """The pair order is a real choice where pairs are split: the tiers
    above agree on it, not on the left-to-right sum."""
    field = _field(spec)
    assert not np.array_equal(
        apply_periodic_reference(field, spec), _left_to_right(spec, field)
    )


def test_grouping_changes_bits_where_coefficients_repeat():
    """The order is a real choice: on the interleaved stencil the tap
    order gives other bits, so the tiers above agree on the grouped one."""
    field = _field(INTERLEAVED)
    acc = None
    for off, coeff in INTERLEAVED.taps:
        term = coeff * np.roll(field, tuple(-o for o in reversed(off)), (0, 1, 2))
        acc = term if acc is None else acc + term
    assert not np.array_equal(apply_periodic_reference(field, INTERLEAVED), acc)


def test_the_pair_pass_engages_where_a_pair_distance_repeats():
    """The brick kernel's pair pass is a property of the taps: it runs
    where some x pair distance is read at two or more (dy, dz) offsets,
    with a copy per pair distance."""
    engaged = {}
    for spec in SPECS:
        np_bd = _brick_shape(spec)
        scratch = cbackend.brick_scratch(spec.taps, np_bd, spec.radius)
        tile = math.prod(b + 2 * spec.radius for b in np_bd)
        source = cbackend.batch_step_source(
            spec.taps, np_bd, spec.radius, 0, math.prod(np_bd)
        )
        assert ("pair pass" in source) == bool(scratch.copies)
        if not scratch.copies:
            assert scratch.elems == tile
            continue
        engaged[spec.name] = scratch.copies
        rows = tile // (np_bd[-1] + 2 * spec.radius)
        assert scratch.base >= tile and scratch.base % 8 == 0
        assert scratch.plane >= rows * np_bd[-1] and scratch.plane % 8 == 0
        assert scratch.elems == scratch.base + len(scratch.copies) * scratch.plane
    assert engaged == {"125pt": (1, 2), "25pt-2d": (1, 2), "split-pairs": (1, 2)}


def test_seven_point_sources_have_no_pair_pass():
    """The 7-point star's one pair leads its group: its kernels keep the
    plain left-to-right sum over loads from the tile, and no pass."""
    np_bd, r = (8, 8, 8), 1
    assert cbackend.brick_scratch(SEVEN_POINT.taps, np_bd, r) == (
        10**3, (), 10**3, 0
    )
    for source in (
        cbackend.batch_step_source(SEVEN_POINT.taps, np_bd, r, 0, 512),
        cbackend.array_step_source(SEVEN_POINT.taps, (18, 18, 18)),
    ):
        assert "pair pass" not in source and "p[" not in source
        assert " * (x1 + x2 + x3 + x4 + x5 + x6);" in source
