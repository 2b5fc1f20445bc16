"""Ghost-cell expansion / communication-avoiding timestepping."""

import numpy as np
import pytest

from repro.core.driver import run_executed
from repro.core.expansion import (
    brick_cycle_slots,
    depths_for_period,
    margins_for_period,
    resolve_period,
)
from repro.core.problem import StencilProblem
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import CUBE125, SEVEN_POINT


class TestSchedules:
    def test_element_margins(self):
        assert margins_for_period(8, 1, 8) == [7, 6, 5, 4, 3, 2, 1, 0]
        assert margins_for_period(4, 2, 8) == [6, 4, 2, 0]
        with pytest.raises(ValueError, match="needs 10 of ghost"):
            margins_for_period(5, 2, 8)

    def test_brick_depths(self):
        assert depths_for_period(2, 2) == [1, 0]
        assert depths_for_period(4, 4) == [3, 2, 1, 0]
        with pytest.raises(ValueError, match="ghost width of 2 bricks"):
            depths_for_period(3, 2)

    def test_cycle_period(self):
        for method, ghost, brick, period in (
            ("yask", 8, 8, 8),  # element granularity: floor(g / r)
            ("layout", 8, 8, 1),  # brick granularity: floor(g / bd)
            ("layout", 16, 8, 2),
        ):
            problem = StencilProblem(
                (64, 64, 64), (2, 2, 2), SEVEN_POINT, (brick,) * 3, ghost
            )
            assert resolve_period(problem, method, "auto") == period


class TestBrickCycleSlots:
    def test_slot_counts(self):
        from repro.brick.decomp import BrickDecomp

        d = BrickDecomp((32, 32, 32), (8, 8, 8), 16)
        asn = d.assignment(1)
        per_step = brick_cycle_slots(d, asn, depths_for_period(2, d.width))
        assert len(per_step) == 2
        # step 0: owned (4^3) plus the depth-1 ghost shell (6^3 - 4^3)
        assert len(per_step[0]) == 6**3
        # step 1: owned only
        assert len(per_step[1]) == 4**3

    def test_all_steps_include_owned(self):
        from repro.brick.decomp import BrickDecomp

        d = BrickDecomp((32, 32, 32), (8, 8, 8), 16)
        asn = d.assignment(1)
        owned = set(d.compute_slots(asn).tolist())
        for slots in brick_cycle_slots(d, asn, depths_for_period(2, d.width)):
            assert owned <= set(slots.tolist())


class TestExecutedCommunicationAvoiding:
    @pytest.mark.parametrize("method", ["yask", "mpi_types"])
    def test_array_full_period_bit_exact(self, method, theta):
        """Element-granular CA: exchange every 8 steps with g=8, r=1."""
        problem = StencilProblem(
            (32, 32, 32), (2, 2, 2), SEVEN_POINT, (8, 8, 8), 8
        )
        steps = 9  # crosses a cycle boundary
        run = run_executed(
            problem, method, theta, timesteps=steps, exchange_period="auto"
        )
        assert run.exchange_period == 8
        ref = apply_periodic_reference(
            problem.initial_global(0), SEVEN_POINT, steps
        )
        np.testing.assert_array_equal(run.global_result, ref)

    @pytest.mark.parametrize("method", ["layout", "memmap"])
    def test_brick_period_two_bit_exact(self, method, theta):
        """Brick-granular CA: g=16 gives period 2."""
        problem = StencilProblem(
            (64, 64, 64), (2, 2, 2), SEVEN_POINT, (8, 8, 8), 16
        )
        steps = 5
        run = run_executed(
            problem, method, theta, timesteps=steps, exchange_period="auto"
        )
        assert run.exchange_period == 2
        ref = apply_periodic_reference(
            problem.initial_global(0), SEVEN_POINT, steps
        )
        np.testing.assert_array_equal(run.global_result, ref)

    def test_cube125_with_expansion(self, theta):
        problem = StencilProblem(
            (64, 64, 64), (2, 2, 2), CUBE125, (8, 8, 8), 16
        )
        run = run_executed(
            problem, "memmap", theta, timesteps=3, exchange_period="auto"
        )
        assert run.exchange_period == 2
        ref = apply_periodic_reference(problem.initial_global(0), CUBE125, 3)
        np.testing.assert_array_equal(run.global_result, ref)

    def test_fewer_exchanges_counted(self, theta):
        problem = StencilProblem(
            (32, 32, 32), (2, 2, 2), SEVEN_POINT, (8, 8, 8), 8
        )
        ca = run_executed(
            problem, "yask", theta, timesteps=8, exchange_period="auto"
        )
        every = run_executed(problem, "yask", theta, timesteps=8)
        assert ca.fabric.stats[0].sends * 8 == every.fabric.stats[0].sends

    def test_ca_reduces_modelled_comm_at_small_sizes(self, theta):
        problem = StencilProblem(
            (32, 32, 32), (2, 2, 2), SEVEN_POINT, (8, 8, 8), 8
        )
        ca = run_executed(
            problem, "yask", theta, timesteps=8, exchange_period="auto"
        )
        every = run_executed(problem, "yask", theta, timesteps=8)
        assert ca.metrics.comm_time < every.metrics.comm_time
        # the price: redundant computation
        assert ca.metrics.calc.avg > every.metrics.calc.avg

    def test_period_exceeding_ghost_rejected(self, theta):
        problem = StencilProblem(
            (32, 32, 32), (2, 2, 2), SEVEN_POINT, (8, 8, 8), 8
        )
        with pytest.raises(RuntimeError, match="exceeds"):
            run_executed(
                problem, "memmap", theta, timesteps=2, exchange_period=4
            )

    def test_explicit_period(self, theta):
        problem = StencilProblem(
            (32, 32, 32), (2, 2, 2), SEVEN_POINT, (8, 8, 8), 8
        )
        run = run_executed(
            problem, "yask", theta, timesteps=4, exchange_period=4
        )
        assert run.exchange_period == 4
        ref = apply_periodic_reference(
            problem.initial_global(0), SEVEN_POINT, 4
        )
        np.testing.assert_array_equal(run.global_result, ref)
