"""Compiled execution plans are bit-identical to the generic kernels.

Covers the plan layer of :mod:`repro.stencil.plan` across dimensions,
radii, non-cubic bricks, interleaved fields, dirty-buffer reuse, and the
driver integration (executed runs vs the serial reference; the method x
feature matrix lives in ``test_runplan.py``).
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.brick.convert import (
    bricks_to_extended,
    extended_shape,
    extended_to_bricks,
)
from repro.brick.info import BrickInfo, all_direction_vectors, direction_index
from repro.brick.storage import BrickStorage
from repro.core.driver import run_executed
from repro.core.expansion import brick_cycle_slots
from repro.core.problem import StencilProblem
from repro.stencil import cbackend
from repro.stencil.brick_kernels import apply_brick_stencil, gather_halo_batch
from repro.stencil.kernels import apply_array_stencil
from repro.stencil.plan import (
    ArrayStencilPlan,
    compile_array_plan,
    compile_brick_plan,
)
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import (
    CUBE125,
    SEVEN_POINT,
    TWENTY_FIVE_POINT_2D,
    StencilSpec,
    cube_stencil,
    star_stencil,
)

def identity_spec(ndim: int) -> StencilSpec:
    """A radius-0 stencil (single centre tap)."""
    return StencilSpec(f"id-{ndim}d", ndim, (((0,) * ndim, 0.75),), 1.0, 16.0)


def grid_info(grid, brick_dim, nfields=1, periodic=True):
    """A hand-built logical brick grid (supports non-cubic bricks, which
    :class:`BrickDecomp`'s uniform ghost width cannot express)."""
    ndim = len(grid)
    nslots = math.prod(grid)
    adjacency = np.full((nslots, 3**ndim), -1, dtype=np.int64)
    for slot in range(nslots):
        c, rest = [], slot
        for axis in range(ndim):  # axis 1 fastest
            c.append(rest % grid[axis])
            rest //= grid[axis]
        for vec in all_direction_vectors(ndim):
            nc = [x + v for x, v in zip(c, vec)]
            if periodic:
                nc = [x % g for x, g in zip(nc, grid)]
            elif any(x < 0 or x >= g for x, g in zip(nc, grid)):
                continue
            nslot = 0
            for axis in range(ndim - 1, -1, -1):
                nslot = nslot * grid[axis] + nc[axis]
            adjacency[slot, direction_index(vec)] = nslot
    return BrickInfo(ndim, tuple(brick_dim), adjacency, nfields)


def random_storage(info, rng, nfields=1):
    volume = math.prod(info.brick_dim)
    st = BrickStorage.allocate(info.nslots, volume * nfields)
    st.data[:] = rng.random(st.data.shape)
    return st


def same_bits(got, ref):
    """Equal as raw ``uint64``: no tolerance, and NaNs / signed zeros count."""
    np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


CASES = [
    # (grid, brick_dim, spec builder) -- mixes dims 1-3, radii 0-2 and
    # non-cubic bricks
    ((5,), (6,), lambda: identity_spec(1)),
    ((5,), (6,), lambda: star_stencil(1, 1)),
    ((4,), (7,), lambda: star_stencil(1, 2)),
    ((4, 3), (5, 3), lambda: identity_spec(2)),
    ((4, 3), (5, 3), lambda: star_stencil(2, 1)),
    ((3, 4), (4, 3), lambda: cube_stencil(2, 2)),
    ((3, 3, 3), (4, 2, 3), lambda: star_stencil(3, 1)),
    ((2, 3, 2), (3, 2, 4), lambda: cube_stencil(3, 2)),
]


class TestBrickPlanBitIdentity:
    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize(
        "grid,brick_dim,make_spec", CASES,
        ids=[f"{g}x{b}-{i}" for i, (g, b, _) in enumerate(CASES)],
    )
    def test_matches_generic(self, grid, brick_dim, make_spec, periodic):
        spec = make_spec()
        info = grid_info(grid, brick_dim, periodic=periodic)
        rng = np.random.default_rng(42)
        src = random_storage(info, rng)
        ref = random_storage(info, rng)
        got = random_storage(info, rng)  # dirty destination
        slots = np.arange(info.nslots)
        apply_brick_stencil(spec, src, ref, info, slots, chunk=5)
        plan = compile_brick_plan(spec, info, slots)
        plan.execute(src, got)
        np.testing.assert_array_equal(got.data, ref.data)

    def test_absent_neighbours_carry_the_sentinel(self):
        """A brick with no neighbour in some direction is addressed
        through the ``-1`` of its adjacency row, the only table the plan
        holds, and that direction's sub-box stages as zeros whatever the
        slot ``-1`` would index holds."""
        spec = star_stencil(2, 1)
        info = grid_info((3, 3), (4, 3), periodic=False)
        plan = compile_brick_plan(spec, info, np.arange(9))
        np.testing.assert_array_equal(plan._adjacency, info.adjacency)
        assert plan._adjacency.min() == -1
        src = BrickStorage.allocate(info.nslots + 1, 12)
        src.data[:] = np.random.default_rng(1).random(src.data.shape)
        src.data[-1] = np.nan  # what a wrapped -1 index reads
        dst = BrickStorage.allocate(info.nslots + 1, 12)
        ref = BrickStorage.allocate(info.nslots + 1, 12)
        plan.execute(src, dst)
        apply_brick_stencil(spec, src, ref, info, np.arange(9))
        assert np.isfinite(dst.data[:9]).all()
        same_bits(dst.data[:9], ref.data[:9])

    def test_repeated_steps_reuse_buffers(self):
        """Dirty internal buffers must not leak between steps."""
        spec = star_stencil(2, 1)
        info = grid_info((4, 4), (3, 3), periodic=False)
        rng = np.random.default_rng(7)
        slots = np.arange(info.nslots)
        plan = compile_brick_plan(spec, info, slots)
        for trial in range(3):
            src = random_storage(info, rng)
            ref = random_storage(info, rng)
            got = random_storage(info, rng)
            apply_brick_stencil(spec, src, ref, info, slots)
            plan.execute(src, got)
            np.testing.assert_array_equal(got.data, ref.data)

    def test_multi_field_offsets(self):
        spec = star_stencil(3, 1)
        nfields = 3
        info = grid_info((3, 3, 3), (4, 4, 4), nfields=nfields)
        volume = math.prod(info.brick_dim)
        rng = np.random.default_rng(11)
        src = random_storage(info, rng, nfields)
        ref = random_storage(info, rng, nfields)
        got = random_storage(info, rng, nfields)
        slots = np.arange(info.nslots)
        for fld in range(nfields):
            off = fld * volume
            apply_brick_stencil(spec, src, ref, info, slots, field_offset=off)
            plan = compile_brick_plan(spec, info, slots, field_offset=off)
            plan.execute(src, got)
        np.testing.assert_array_equal(got.data, ref.data)

    def test_cycle_slots_from_decomp(self, small_decomp):
        """Plans over the executed driver's actual slot sets."""
        d = small_decomp
        rng = np.random.default_rng(3)
        ext = rng.random(extended_shape(d))
        src, asn = d.allocate()
        ref, _ = d.allocate()
        got, _ = d.allocate()
        extended_to_bricks(ext, d, src, asn)
        info = d.brick_info(asn)
        for slots in brick_cycle_slots(d, asn, 1):
            apply_brick_stencil(SEVEN_POINT, src, ref, info, slots)
            compile_brick_plan(SEVEN_POINT, info, slots).execute(src, got)
            np.testing.assert_array_equal(
                got.data[slots], ref.data[slots]
            )

    def test_every_compile_owns_its_scratch(self, small_decomp):
        """Nothing caches a plan on the (shareable) BrickInfo: two
        compiles over one info are two plans with their own mutable
        buffers, so two rank threads can never step through one tile."""
        info = small_decomp.brick_info()
        slots = small_decomp.compute_slots()
        a = compile_brick_plan(SEVEN_POINT, info, slots)
        b = compile_brick_plan(SEVEN_POINT, info, slots)
        assert a is not b
        assert a.info is b.info is info
        scratch = [
            name for name in ("_tile", "_halo", "_acc", "_tmp")
            if hasattr(a, name)
        ]
        assert scratch
        for name in scratch:
            assert not np.shares_memory(getattr(a, name), getattr(b, name))
        assert not [k for k in vars(info) if "cache" in k]

    def test_validation(self, small_decomp):
        info = small_decomp.brick_info()
        slots = small_decomp.compute_slots()
        st, _ = small_decomp.allocate()
        with pytest.raises(ValueError):
            compile_brick_plan(star_stencil(3, 9), info, slots)
        with pytest.raises(ValueError):
            compile_brick_plan(star_stencil(2, 1), info, slots)
        with pytest.raises(ValueError):
            compile_brick_plan(SEVEN_POINT, info, slots, field_offset=1)
        plan = compile_brick_plan(SEVEN_POINT, info, slots)
        with pytest.raises(ValueError):
            plan.execute(st, st)  # src must differ from dst
        f32, _ = small_decomp.allocate(dtype=np.float32)
        with pytest.raises(ValueError):
            plan.execute(st, f32)


class TestBrickPlanCTier:
    """The stage-then-sweep C brick kernel, addressed through adjacency
    rows: bit-identical (compared as raw ``uint64``) to the generic
    kernel.  The geometries are a fixed list -- one compiled kernel
    each -- and hypothesis draws only what costs no build: the slot
    subset, its order and the data."""

    # (grid, brick_dim, spec, nfields, field, periodic): 1-D to 3-D,
    # non-cubic bricks, radius 1, 2 and == min(brick_dim), a second
    # interleaved field, closed grids so absent neighbours occur.
    GEOMETRIES = [
        ((5,), (6,), star_stencil(1, 1), 1, 0, True),
        ((4,), (3,), star_stencil(1, 3), 1, 0, False),
        ((4, 3), (5, 3), star_stencil(2, 1), 1, 0, False),
        ((3, 4), (4, 2), cube_stencil(2, 2), 2, 1, True),
        ((3, 3, 3), (4, 2, 3), star_stencil(3, 1), 1, 0, False),
        ((3, 3, 3), (4, 2, 3), star_stencil(3, 2), 2, 1, True),
        ((2, 3, 2), (3, 5, 4), cube_stencil(3, 1), 1, 0, False),
        ((2, 3, 2), (3, 2, 4), cube_stencil(3, 2), 1, 0, False),
    ]
    IDS = ["1d-r1", "1d-r=bd", "2d-star", "2d-cube-r=bd-field1", "3d-star",
           "3d-star-r=bd-field1", "3d-cube27", "3d-cube125-r=bd"]

    @pytest.mark.parametrize(
        "grid,brick_dim,spec,nfields,field,periodic", GEOMETRIES, ids=IDS
    )
    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_bit_identical_any_slot_subset(
        self, grid, brick_dim, spec, nfields, field, periodic, data
    ):
        info = grid_info(grid, brick_dim, nfields, periodic)
        slots = np.array(data.draw(st.lists(
            st.integers(0, info.nslots - 1), min_size=1, unique=True,
        )))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        offset = field * math.prod(brick_dim)
        src = random_storage(info, rng, nfields)
        ref = random_storage(info, rng, nfields)  # dirty destination
        got = random_storage(info, rng, nfields)
        got.data[:] = ref.data
        apply_brick_stencil(spec, src, ref, info, slots, field_offset=offset)
        plan = compile_brick_plan(spec, info, slots, field_offset=offset)
        assert plan.kernel_backend == cbackend.c_tier()
        plan._tile.fill(np.nan)  # unstaged tile cells must never be read
        plan.execute(src, got)
        same_bits(got.data, ref.data)

    def test_holds_adjacency_rows_and_no_gather_table(self):
        """No ``(n, halo)`` int64 gather table: a plan keeps the
        ``(n, 3^D)`` adjacency rows and one tile."""
        info = grid_info((3, 3, 3), (4, 2, 3), periodic=False)
        slots = np.array([5, 0, 26, 13])
        plan = compile_brick_plan(star_stencil(3, 1), info, slots)
        assert plan.kernel_backend == cbackend.c_tier()
        np.testing.assert_array_equal(plan._adjacency, info.adjacency[slots])
        halo = 6 * 4 * 5
        assert plan._tile.shape == (halo,)
        held = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
        assert all(a.size < len(slots) * halo for a in held)

    def test_plan_follows_kernel_environment(self, monkeypatch):
        """One BrickInfo, one slot set: each compile steps on the guard
        variant the environment names at that moment (no plan of another
        setting can be handed out: nothing caches plans)."""
        info = grid_info((3, 3), (4, 3))
        spec, slots = star_stencil(2, 1), np.arange(9)
        monkeypatch.setenv("REPRO_CC_BOUNDS", "0")
        plain = compile_brick_plan(spec, info, slots)
        assert plain.kernel_backend == cbackend.c_tier()
        monkeypatch.setenv("REPRO_CC_BOUNDS", "1")
        guarded = compile_brick_plan(spec, info, slots)
        assert "src_elems" in guarded._ckernel.__source__
        assert "src_elems" not in plain._ckernel.__source__
        monkeypatch.setenv("REPRO_CC_BOUNDS", "0")
        again = compile_brick_plan(spec, info, slots)
        assert "src_elems" not in again._ckernel.__source__

    def test_bounds_guard_names_a_poisoned_adjacency_row(self, monkeypatch):
        """REPRO_CC_BOUNDS=1 through the plan: an adjacency entry past
        the storage is a typed error, not a stray read."""
        monkeypatch.setenv("REPRO_CC_BOUNDS", "1")
        info = grid_info((3, 3), (4, 3))
        spec, slots = star_stencil(2, 1), np.arange(9)
        rng = np.random.default_rng(23)
        src, dst = random_storage(info, rng), random_storage(info, rng)
        plan = compile_brick_plan(spec, info, slots)
        plan.execute(src, dst)
        plan._adjacency[4, info.center_index + 1] = info.nslots
        with pytest.raises(cbackend.KernelBoundsError, match="1 out-of-range"):
            plan.execute(src, dst)


@pytest.fixture(params=["cffi"])
def tier(request):
    """The one kernel tier (the id the test floor records)."""
    return request.param


class TestBothTiers:
    """Every plan shape the driver compiles is bit-identical to the
    generic kernels.  (The class name is the id the test floor records.)"""

    SPECS = [SEVEN_POINT, CUBE125, TWENTY_FIVE_POINT_2D]
    IDS = ["7pt", "125pt", "25pt-2d"]

    @pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "open"])
    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    def test_brick_plan(self, tier, spec, periodic):
        """A shuffled slot subset of the second interleaved field,
        absent neighbours on the open grid, dirty destination, unstaged
        tile cells poisoned."""
        grid, bd = (3,) * spec.ndim, (4, 3, 5)[: spec.ndim]
        info = grid_info(grid, bd, nfields=2, periodic=periodic)
        rng = np.random.default_rng(31)
        slots = rng.permutation(info.nslots)[: info.nslots - 2]
        offset = math.prod(bd)
        src = random_storage(info, rng, 2)
        ref = random_storage(info, rng, 2)
        got = random_storage(info, rng, 2)
        got.data[:] = ref.data
        apply_brick_stencil(spec, src, ref, info, slots, field_offset=offset)
        plan = compile_brick_plan(spec, info, slots, offset)
        assert plan.kernel_backend == cbackend.c_tier()
        np.testing.assert_array_equal(plan._adjacency, info.adjacency[slots])
        plan._tile.fill(np.nan)
        plan.execute(src, got)
        same_bits(got.data, ref.data)

    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    def test_array_plan(self, tier, spec):
        """Whole region at every ghost-expansion margin."""
        extent, ghost = (10, 6, 8)[: spec.ndim], 4
        rng = np.random.default_rng(33)
        shape = tuple(e + 2 * ghost for e in reversed(extent))
        arr, dirty = rng.random(shape), rng.random(shape)
        for margin in range(ghost - spec.radius + 1):
            ref, whole = dirty.copy(), dirty.copy()
            apply_array_stencil(arr, ref, spec, extent, ghost, margin=margin)
            plan = compile_array_plan(spec, extent, ghost, margin)
            assert plan.kernel_backend == cbackend.c_tier()
            plan.execute(arr, whole)
            same_bits(whole, ref)


class TestArrayPlanBitIdentity:
    @pytest.mark.parametrize(
        "spec,extent,ghost",
        [
            (identity_spec(1), (12,), 2),
            (star_stencil(1, 2), (12,), 4),
            (star_stencil(2, 1), (12, 8), 3),
            (SEVEN_POINT, (8, 8, 8), 4),
            (CUBE125, (8, 8, 8), 4),
        ],
        ids=["id1d", "star1d-r2", "star2d", "7pt", "125pt"],
    )
    def test_matches_generic_all_margins(self, spec, extent, ghost):
        rng = np.random.default_rng(5)
        shape = tuple(e + 2 * ghost for e in reversed(extent))
        arr = rng.random(shape)
        max_margin = ghost - spec.radius
        for margin in range(0, max_margin + 1):
            ref = rng.random(shape)  # dirty destinations
            got = ref.copy()
            apply_array_stencil(arr, ref, spec, extent, ghost, margin=margin)
            plan = compile_array_plan(spec, extent, ghost, margin)
            plan.execute(arr, got)
            np.testing.assert_array_equal(got, ref)

    def test_repeated_execution_reuses_scratch(self):
        spec = SEVEN_POINT
        extent, g = (8, 8, 8), 2
        plan = compile_array_plan(spec, extent, g)
        rng = np.random.default_rng(9)
        shape = tuple(e + 2 * g for e in reversed(extent))
        for trial in range(3):
            arr = rng.random(shape)
            ref, got = np.zeros(shape), np.zeros(shape)
            apply_array_stencil(arr, ref, spec, extent, g)
            plan.execute(arr, got)
            np.testing.assert_array_equal(got, ref)

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayStencilPlan(SEVEN_POINT, (8, 8), 4)  # ndim mismatch
        with pytest.raises(ValueError):
            ArrayStencilPlan(SEVEN_POINT, (8, 8, 8), 4, margin=4)
        plan = ArrayStencilPlan(SEVEN_POINT, (8, 8, 8), 4)
        a = np.zeros((16, 16, 16))
        with pytest.raises(ValueError):
            plan.execute(a, a)
        with pytest.raises(ValueError):
            plan.execute(a, np.zeros((4, 4, 4)))


class TestArrayPlanCTier:
    """The C array-box kernel: one build per extended shape, bit-identical
    (compared as raw ``uint64``) to the generic kernel on every box."""

    # Every stencil of stencil/spec.py, 1-D to 3-D; non-cubic extents so
    # an axis-order slip cannot cancel out.
    CASES = [
        (identity_spec(1), (12,), 2),
        (star_stencil(1, 2), (12,), 4),
        (star_stencil(2, 1), (12, 8), 3),
        (TWENTY_FIVE_POINT_2D, (10, 6), 4),
        (SEVEN_POINT, (8, 6, 10), 4),
        (star_stencil(3, 2), (6, 8, 8), 4),
        (cube_stencil(3, 1), (8, 8, 6), 2),
        (CUBE125, (8, 8, 8), 4),
    ]
    IDS = ["id1d", "star1d-r2", "star2d", "25pt-2d", "7pt", "star3d-r2",
           "cube27", "125pt"]

    @staticmethod
    def _arrays(extent, ghost, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(e + 2 * ghost for e in reversed(extent))
        return rng.random(shape), rng.random(shape)  # source, dirty dest

    @pytest.mark.parametrize("spec,extent,ghost", CASES, ids=IDS)
    def test_bit_identical_all_margins(self, spec, extent, ghost):
        arr, dirty = self._arrays(extent, ghost, 5)
        for margin in range(0, ghost - spec.radius + 1):
            ref, got = dirty.copy(), dirty.copy()
            apply_array_stencil(arr, ref, spec, extent, ghost, margin=margin)
            plan = compile_array_plan(spec, extent, ghost, margin)
            assert plan.kernel_backend == cbackend.c_tier()
            plan.execute(arr, got)
            same_bits(got, ref)

    def test_one_build_per_extended_shape(self, monkeypatch):
        """Whole region and every margin of one array shape trigger a
        single compiler run."""
        builds = []
        real = cbackend._load
        monkeypatch.setattr(
            cbackend, "_load",
            lambda *a, **k: builds.append(a[1]) or real(*a, **k),
        )
        spec = star_stencil(3, 1, coefficients=[0.25] + [0.125] * 6)
        extent, ghost = (10, 6, 8), 3  # a shape no other test compiles
        for margin in range(0, ghost - spec.radius + 1):
            compile_array_plan(spec, extent, ghost, margin)
        assert builds == ["repro_array_step"]

    def test_unaddressable_input_never_reaches_c(self):
        """Fortran-ordered or float32 arrays have the right shape but not
        the memory the C kernel walks: refused, naming why, before the
        kernel runs."""
        spec, extent, ghost = SEVEN_POINT, (8, 6, 10), 2
        arr, dirty = self._arrays(extent, ghost, 8)
        plan = compile_array_plan(spec, extent, ghost)
        for bad_arr, bad_out in (
            (np.asfortranarray(arr), dirty.copy()),
            (arr, np.asfortranarray(dirty)),
            (arr.astype(np.float32), dirty.copy()),
            (arr, dirty.astype(np.float32)),
        ):
            before = bad_out.copy()
            with pytest.raises(ValueError, match="C-contiguous float64"):
                plan.execute(bad_arr, bad_out)
            same_bits(bad_out.astype(np.float64), before.astype(np.float64))

    def test_non_float64_plan(self, small_decomp):
        """A plan is float64: float32 storage is refused by a brick plan
        as float32 arrays are by an array plan."""
        info, slots = small_decomp.brick_info(), small_decomp.compute_slots()
        src, _ = small_decomp.allocate()
        f32, _ = small_decomp.allocate(dtype=np.float32)
        with pytest.raises(ValueError, match="float64"):
            compile_brick_plan(SEVEN_POINT, info, slots).execute(src, f32)
        arr = np.zeros((12, 12, 12), dtype=np.float32)
        with pytest.raises(ValueError, match="float64"):
            compile_array_plan(SEVEN_POINT, (8, 8, 8), 2).execute(arr, arr.copy())

    def test_bounds_guard_refuses_out_of_range_box(self, monkeypatch):
        """REPRO_CC_BOUNDS=1: same bits on in-bounds boxes, and a box
        whose taps would read outside the array (the plan constructor
        rejects these; the guard is the net under it) is a typed error
        that leaves the destination untouched."""
        spec, shape = CUBE125, (9, 10, 11)
        monkeypatch.setenv("REPRO_CC_BOUNDS", "0")
        plain = cbackend.array_step_kernel(spec.taps, shape)
        monkeypatch.setenv("REPRO_CC_BOUNDS", "1")
        guarded = cbackend.array_step_kernel(spec.taps, shape)
        assert guarded is not plain and "src_elems" in guarded.__source__
        rng = np.random.default_rng(10)
        arr, dirty = rng.random(shape), rng.random(shape)
        good = np.array([[(2, 7), (2, 8), (2, 9)]], dtype=np.int64)
        a, b = dirty.copy(), dirty.copy()
        plain(arr, a, good)
        guarded(arr, b, good)
        same_bits(a, b)
        for bad in ([(1, 7), (2, 8), (2, 9)], [(2, 7), (2, 8), (2, 10)]):
            out = dirty.copy()
            with pytest.raises(cbackend.KernelBoundsError, match="box"):
                guarded(arr, out, np.array([bad], dtype=np.int64))
            same_bits(out, dirty)
        with pytest.raises(cbackend.KernelBoundsError):
            guarded(arr[1:].copy(), dirty.copy(), good)  # array too small

    def test_no_compiler_is_a_typed_error_with_the_reason(self, monkeypatch):
        monkeypatch.setattr(cbackend, "_compiler", lambda: None)
        spec = star_stencil(3, 1, coefficients=[0.5] + [1.0 / 16] * 6)
        with pytest.raises(cbackend.KernelBuildError, match="no C compiler"):
            compile_array_plan(spec, (6, 6, 6), 1)


class TestGatherMarginClearing:
    def test_dirty_buffer_absent_margins_cleared(self, small_decomp):
        """A reused halo buffer only needs absent-source margins cleared;
        result must equal a fresh gather."""
        d = small_decomp
        rng = np.random.default_rng(13)
        src, asn = d.allocate()
        src.data[:] = rng.random(src.data.shape)
        info = d.brick_info(asn)
        # outermost ghost bricks: some neighbors absent
        slots = np.nonzero((info.adjacency == -1).any(axis=1))[0][:8]
        assert len(slots) > 0
        fresh = gather_halo_batch(src, info, slots, 2)
        dirty = np.full_like(fresh, 9.99)
        got = gather_halo_batch(src, info, slots, 2, out=dirty)
        np.testing.assert_array_equal(got, fresh)

    def test_short_tail_chunk_reuses_buffer(self, small_decomp):
        """apply_brick_stencil's tail chunk computes in a view of the
        persistent buffer (no reallocation) and stays correct."""
        d = small_decomp
        rng = np.random.default_rng(17)
        ext = rng.random(extended_shape(d))
        outs = []
        for chunk in (60, 512):  # 60 forces a short tail over 64+ slots
            src, asn = d.allocate()
            dst, _ = d.allocate()
            extended_to_bricks(ext, d, src, asn)
            apply_brick_stencil(
                SEVEN_POINT, src, dst, d.brick_info(asn),
                d.compute_slots(asn), chunk=chunk,
            )
            outs.append(bricks_to_extended(d, dst, asn))
        np.testing.assert_array_equal(outs[0], outs[1])


class TestConversionScratch:
    def test_out_matches_fresh(self, small_decomp):
        d = small_decomp
        rng = np.random.default_rng(19)
        st, asn = d.allocate()
        st.data[:] = rng.random(st.data.shape)
        fresh = bricks_to_extended(d, st, asn)
        scratch = np.empty(extended_shape(d), dtype=d.dtype)  # the caller's
        got = bricks_to_extended(d, st, asn, out=scratch)
        assert got is scratch
        np.testing.assert_array_equal(got, fresh)
        assert not [k for k in vars(d) if "scratch" in k]  # none on the decomp

    def test_out_validated(self, small_decomp):
        d = small_decomp
        st, asn = d.allocate()
        with pytest.raises(ValueError):
            bricks_to_extended(d, st, asn, out=np.empty((3, 3, 3)))


class TestDriverIntegration:
    @pytest.mark.parametrize("method", ["yask", "layout", "memmap"])
    def test_planned_equals_generic_and_reference(
        self, method, small_problem, theta
    ):
        """An executed run (always planned) equals the serial reference,
        which the generic kernels are unit-tested against above."""
        steps = 2
        planned = run_executed(small_problem, method, theta, timesteps=steps)
        ref = apply_periodic_reference(
            small_problem.initial_global(0), small_problem.stencil, steps
        )
        np.testing.assert_array_equal(planned.global_result, ref)

    @pytest.mark.parametrize("method", ["yask", "yask_ol", "mpi_types", "shift"])
    def test_array_methods_step_on_c(self, method, small_problem, theta):
        """Array methods compute on the C tier -- with ghost expansion --
        and say so in the run record."""
        steps = 4
        run = run_executed(
            small_problem, method, theta, timesteps=steps, exchange_period=2,
        )
        assert run.kernel_backend == cbackend.c_tier()
        assert run.exchange_period == 2
        ref = apply_periodic_reference(
            small_problem.initial_global(0), small_problem.stencil, steps
        )
        np.testing.assert_array_equal(
            run.global_result.view(np.uint64), ref.view(np.uint64)
        )

    @pytest.mark.parametrize("method", ["layout", "memmap", "basic"])
    @pytest.mark.parametrize(
        "brick,period", [(8, 1), (4, 2)], ids=["brick8", "brick4-period2"]
    )
    def test_brick_methods_step_on_c(self, method, brick, period, theta):
        """Brick methods compute on the C tier with all 27 directions
        staged (125-point); with 4^3 bricks and period 2 the
        deeper cycle position sweeps the inner ghost layer too."""
        problem = StencilProblem(
            global_extent=(32, 32, 32), rank_dims=(2, 2, 2), stencil=CUBE125,
            brick_dim=(brick,) * 3, ghost=8,
        )
        steps = 4
        run = run_executed(
            problem, method, theta, timesteps=steps, exchange_period=period,
        )
        assert run.kernel_backend == cbackend.c_tier()
        assert run.exchange_period == period
        ref = apply_periodic_reference(
            problem.initial_global(0), CUBE125, steps
        )
        np.testing.assert_array_equal(
            run.global_result.view(np.uint64), ref.view(np.uint64)
        )

    def test_exchange_period_cycles_planned(self, theta):
        """Every cycle position (margins > 0, brick depths > 0) runs
        through its own plan and still matches the reference."""
        spec = star_stencil(2, 1)
        steps = 4
        for method, brick, ghost, period in (
            ("yask", (4, 4), 4, "auto"),  # element margins 3..0
            ("layout", (4, 4), 8, 2),  # brick depths 1, 0
        ):
            problem_kw = dict(
                global_extent=(32, 32), rank_dims=(2, 2), stencil=spec,
                brick_dim=brick, ghost=ghost,
            )
            run = run_executed(
                StencilProblem(**problem_kw), method, theta,
                timesteps=steps, exchange_period=period,
            )
            ref = apply_periodic_reference(
                StencilProblem(**problem_kw).initial_global(0), spec, steps
            )
            np.testing.assert_array_equal(run.global_result, ref)

    def test_measured_calc_recorded(self, small_problem, theta):
        run = run_executed(small_problem, "layout", theta, timesteps=2)
        measured = run.metrics.measured_calc
        assert measured is not None and measured.avg > 0
