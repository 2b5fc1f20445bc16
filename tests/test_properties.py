"""Cross-cutting property tests (hypothesis) over the whole pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import run_executed
from repro.core.problem import StencilProblem
from repro.exchange.schedule import array_schedule
from repro.hardware.profiles import generic_host
from repro.layout.order import SURFACE2D, SURFACE3D, surface_order
from repro.layout.regions import all_regions
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import star_stencil
from tests.conftest import brick_sends


def _ghost_volume_bytes(grid, width, brick_bytes, ndim):
    """Total (region, neighbor)-pair payload: the overlap-weighted shell,
    in closed form per region (``region_brick_extent``) -- the oracle the
    templates' slot-assignment sections are held to."""
    from repro.layout.regions import receiving_neighbors, region_brick_extent

    total = 0
    for r in all_regions(ndim):
        nb = math.prod(region_brick_extent(r, grid, width))
        total += nb * len(receiving_neighbors(r))
    return total * brick_bytes


class TestScheduleConservation:
    """Every brick scheme moves exactly the overlap-weighted shell."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 3),
        st.tuples(st.integers(2, 7), st.integers(2, 7), st.integers(2, 7)),
        st.integers(1, 2),
    )
    def test_payload_conservation(self, ndim, grid3, width):
        grid = grid3[:ndim]
        if any(g < 2 * width for g in grid):
            return
        layout = surface_order(ndim)
        bb = 8**ndim * 8  # float64 bricks of edge 8
        expected = _ghost_volume_bytes(grid, width, bb, ndim)
        for base in ("layout", "basic"):
            specs = brick_sends(base, grid, width, layout)
            assert sum(m.payload_bytes for m in specs) == expected
        mm = brick_sends("memmap", grid, width, layout, 4096)
        assert sum(m.payload_bytes for m in mm) == expected

    @settings(max_examples=30, deadline=None)
    @given(
        st.tuples(st.integers(2, 7), st.integers(2, 7), st.integers(2, 7)),
        st.integers(1, 2),
        st.sampled_from([4096, 16384, 65536]),
    )
    def test_memmap_wire_dominates_payload(self, grid, width, page):
        if any(g < 2 * width for g in grid):
            return
        specs = brick_sends("memmap", grid, width, SURFACE3D, page)
        for m in specs:
            assert m.wire_bytes >= m.payload_bytes
            assert m.wire_bytes % math.gcd(page, 4096 * m.nmappings or page) == 0

    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(st.integers(8, 40), st.integers(8, 40), st.integers(8, 40)),
        st.integers(1, 8),
    )
    def test_array_schedule_volume(self, extent, ghost):
        if any(e < ghost for e in extent):
            return
        specs = array_schedule(extent, ghost)
        total = sum(m.payload_bytes for m in specs)
        expected = 8 * sum(
            math.prod(ghost if v else e for v, e in zip(n.to_vector(3), extent))
            for n in all_regions(3)
        )
        assert total == expected


class TestEndToEndRandomConfigs:
    """Random small problems, every brick scheme, bit-exact vs reference."""

    @settings(max_examples=6, deadline=None)
    @given(
        st.sampled_from(["layout", "memmap", "basic"]),
        st.sampled_from([(2, 1, 1), (1, 2, 1), (2, 2, 1)]),
        st.integers(1, 3),
        st.integers(0, 2**31 - 1),
    )
    def test_3d_runs(self, method, rank_dims, steps, seed):
        sub = (8, 8, 8)
        problem = StencilProblem(
            global_extent=tuple(s * d for s, d in zip(sub, rank_dims)),
            rank_dims=rank_dims,
            stencil=star_stencil(3, 1),
            brick_dim=(4, 4, 4),
            ghost=4,
        )
        run = run_executed(
            problem, method, generic_host(), timesteps=steps, seed=seed
        )
        ref = apply_periodic_reference(
            problem.initial_global(seed), problem.stencil, steps
        )
        np.testing.assert_array_equal(run.global_result, ref)

    @settings(max_examples=6, deadline=None)
    @given(
        st.sampled_from(["yask", "memmap"]),
        st.integers(1, 4),
        st.integers(0, 2**31 - 1),
    )
    def test_2d_runs(self, method, steps, seed):
        problem = StencilProblem(
            global_extent=(24, 24),
            rank_dims=(2, 2),
            stencil=star_stencil(2, 1),
            brick_dim=(4, 4),
            ghost=4,
            layout=SURFACE2D,
        )
        run = run_executed(
            problem, method, generic_host(), timesteps=steps, seed=seed
        )
        ref = apply_periodic_reference(
            problem.initial_global(seed), problem.stencil, steps
        )
        np.testing.assert_array_equal(run.global_result, ref)


class TestAnisotropic:
    def test_anisotropic_bricks_need_uniform_width(self):
        """Anisotropic bricks require the ghost width to be the same
        number of *bricks* on every axis; (8,4,4) bricks with an 8-wide
        ghost would give widths {1, 2} and are rejected with a clear
        error rather than silently mis-decomposing."""
        from repro.brick.decomp import BrickDecomp

        with pytest.raises(ValueError, match="ghost width in bricks"):
            BrickDecomp((32, 16, 8), (8, 4, 4), 8)

    def test_anisotropic_domain_isotropic_bricks(self):
        problem = StencilProblem(
            global_extent=(32, 16, 8),
            rank_dims=(2, 1, 1),
            stencil=star_stencil(3, 1),
            brick_dim=(4, 4, 4),
            ghost=4,
        )
        run = run_executed(problem, "layout", generic_host(), timesteps=2)
        ref = apply_periodic_reference(
            problem.initial_global(0), problem.stencil, 2
        )
        np.testing.assert_array_equal(run.global_result, ref)

    def test_anisotropic_memmap(self):
        problem = StencilProblem(
            global_extent=(32, 16, 16),
            rank_dims=(2, 2, 1),
            stencil=star_stencil(3, 1),
            brick_dim=(4, 4, 4),
            ghost=4,
        )
        run = run_executed(problem, "memmap", generic_host(), timesteps=2)
        ref = apply_periodic_reference(
            problem.initial_global(0), problem.stencil, 2
        )
        np.testing.assert_array_equal(run.global_result, ref)
