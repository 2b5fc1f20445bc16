"""Non-periodic (open) boundaries: exchanges skip missing neighbors.

Oracle reasoning: after one timestep, any point at distance >= radius
from the global boundary has a dependency cone that never touches the
boundary, so it must equal the periodic reference at the same point.
Boundary ghost zones must stay exactly as the application initialised
them (zero here), since nothing is exchanged across the open edge.
"""

import numpy as np
import pytest

from repro.core.driver import run_executed
from repro.core.problem import StencilProblem
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import SEVEN_POINT

METHODS = ("yask", "mpi_types", "basic", "layout", "memmap")


@pytest.fixture
def problem():
    return StencilProblem(
        global_extent=(32, 32, 32),
        rank_dims=(2, 2, 2),
        stencil=SEVEN_POINT,
        brick_dim=(8, 8, 8),
        ghost=8,
        periodic=False,
    )


class TestOpenBoundaries:
    @pytest.mark.parametrize("method", METHODS)
    def test_interior_matches_periodic_reference(self, method, problem, theta):
        run = run_executed(problem, method, theta, timesteps=1)
        ref = apply_periodic_reference(
            problem.initial_global(0), SEVEN_POINT, 1
        )
        r = SEVEN_POINT.radius
        inner = (slice(r, -r),) * 3
        np.testing.assert_array_equal(
            run.global_result[inner], ref[inner]
        )

    def test_fewer_messages_than_periodic(self, problem, theta):
        open_run = run_executed(problem, "memmap", theta, timesteps=1)
        per = StencilProblem(
            global_extent=problem.global_extent,
            rank_dims=problem.rank_dims,
            stencil=problem.stencil,
            brick_dim=problem.brick_dim,
            ghost=problem.ghost,
            periodic=True,
        )
        per_run = run_executed(per, "memmap", theta, timesteps=1)
        # every rank of the 2^3 open grid is a corner: it has only 7
        # in-grid neighbors out of 26.
        assert open_run.messages_per_rank == 7
        assert per_run.messages_per_rank == 26

    def test_boundary_points_differ_from_periodic(self, problem, theta):
        """Sanity: the open boundary really does change the answer."""
        run = run_executed(problem, "layout", theta, timesteps=1)
        ref = apply_periodic_reference(
            problem.initial_global(0), SEVEN_POINT, 1
        )
        assert not np.array_equal(run.global_result, ref)

    def test_multi_step_consistency_across_methods(self, problem, theta):
        """With identical (zero) boundary ghosts, every method must agree
        with every other bit-for-bit even on open boundaries."""
        results = [
            run_executed(problem, m, theta, timesteps=2).global_result
            for m in METHODS
        ]
        for other in results[1:]:
            np.testing.assert_array_equal(results[0], other)

    def test_mixed_rank_grid(self, theta):
        problem = StencilProblem(
            global_extent=(32, 16, 16),
            rank_dims=(2, 1, 1),
            stencil=SEVEN_POINT,
            brick_dim=(8, 8, 8),
            ghost=8,
            periodic=False,
        )
        run = run_executed(problem, "memmap", theta, timesteps=1)
        ref = apply_periodic_reference(
            problem.initial_global(0), SEVEN_POINT, 1
        )
        inner = (slice(1, -1),) * 3
        np.testing.assert_array_equal(run.global_result[inner], ref[inner])
