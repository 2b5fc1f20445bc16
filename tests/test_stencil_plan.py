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

from repro.brick.convert import (
    bricks_to_extended,
    conversion_scratch,
    extended_shape,
    extended_to_bricks,
)
from repro.brick.decomp import BrickDecomp
from repro.brick.info import BrickInfo, all_direction_vectors, direction_index
from repro.brick.storage import BrickStorage
from repro.core.driver import run_executed
from repro.core.expansion import brick_cycle_slots
from repro.stencil.brick_kernels import apply_brick_stencil, gather_halo_batch
from repro.stencil.codegen import (
    array_box_kernel_source,
    batch_plan_kernel_source,
)
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
        plan = compile_brick_plan(spec, info, slots, chunk=5)
        plan.execute(src, got)
        np.testing.assert_array_equal(got.data, ref.data)

    def test_repeated_steps_reuse_buffers(self):
        """Dirty internal buffers must not leak between steps."""
        spec = star_stencil(2, 1)
        info = grid_info((4, 4), (3, 3), periodic=False)
        rng = np.random.default_rng(7)
        slots = np.arange(info.nslots)
        plan = compile_brick_plan(spec, info, slots, chunk=6)
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

    def test_plan_cache_per_geometry(self, small_decomp):
        info = small_decomp.brick_info()
        slots = small_decomp.compute_slots()
        a = compile_brick_plan(SEVEN_POINT, info, slots)
        b = compile_brick_plan(SEVEN_POINT, info, slots)
        assert a is b
        c = compile_brick_plan(SEVEN_POINT, info, slots[:4])
        assert c is not a
        d = compile_brick_plan(CUBE125, info, slots)
        assert d is not a

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


class TestPlanKernelSources:
    def test_inplace_ops_only(self):
        src = batch_plan_kernel_source(SEVEN_POINT, (8, 8, 8))
        assert "np.multiply" in src and "out=acc" in src
        assert " + " not in src  # no temporary-producing arithmetic
        src = array_box_kernel_source(
            SEVEN_POINT, (8, 8, 8), 2, ((2, 10), (2, 10), (2, 10))
        )
        assert "np.multiply" in src and "out=tmp" in src


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
        scratch = conversion_scratch(d)
        got = bricks_to_extended(d, st, asn, out=scratch)
        assert got is scratch
        np.testing.assert_array_equal(got, fresh)
        assert conversion_scratch(d) is scratch  # cached

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
            from repro.core.problem import StencilProblem

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
