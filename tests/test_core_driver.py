"""Executed driver: end-to-end distributed runs vs the serial oracle."""

import math

import numpy as np
import pytest

from repro.ckpt.store import encode_head, read_head
from repro.core.driver import run_executed
from repro.core.expansion import (
    brick_cycle_slots,
    depths_for_period,
    margins_for_period,
)
from repro.core.geometry import RunGeometry
from repro.core.methods import method_info
from repro.core.model import compute_time
from repro.core.problem import StencilProblem
from repro.faults import FaultPlan
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import CUBE125, SEVEN_POINT, star_stencil
from repro.util.timing import TimeBreakdown

EXEC_METHODS = ("yask", "yask_ol", "mpi_types", "shift", "basic", "layout", "memmap")


class TestProblem:
    def test_derived_quantities(self, medium_problem):
        p = medium_problem
        assert p.nranks == 8
        assert p.subdomain_extent == (32, 32, 32)
        assert p.points_per_rank == 32**3
        assert p.global_points == 64**3

    def test_rank_grid_must_divide(self):
        with pytest.raises(ValueError):
            StencilProblem((30, 32, 32), (2, 2, 2), SEVEN_POINT)

    def test_stencil_radius_vs_ghost(self):
        with pytest.raises(ValueError):
            StencilProblem(
                (64, 64, 64), (2, 2, 2), star_stencil(3, 9), ghost=8
            )

    def test_ghost_brick_multiple(self):
        with pytest.raises(ValueError):
            StencilProblem((64, 64, 64), (2, 2, 2), SEVEN_POINT, ghost=6)

    def test_owned_slices(self, medium_problem):
        slc = medium_problem.owned_slices((1, 0, 1))
        assert slc == (slice(32, 64), slice(0, 32), slice(32, 64))

    def test_initial_deterministic(self, medium_problem):
        a = medium_problem.initial_global(3)
        b = medium_problem.initial_global(3)
        np.testing.assert_array_equal(a, b)


class TestExecutedCorrectness:
    @pytest.mark.parametrize("method", EXEC_METHODS)
    def test_bit_exact_vs_reference(self, method, small_problem, theta):
        steps = 2
        run = run_executed(small_problem, method, theta, timesteps=steps)
        ref = apply_periodic_reference(
            small_problem.initial_global(0), small_problem.stencil, steps
        )
        np.testing.assert_array_equal(run.global_result, ref)

    @pytest.mark.slow
    @pytest.mark.parametrize("method", ("yask", "layout", "memmap"))
    def test_bit_exact_medium(self, method, medium_problem, theta):
        steps = 3
        run = run_executed(medium_problem, method, theta, timesteps=steps)
        ref = apply_periodic_reference(
            medium_problem.initial_global(0), medium_problem.stencil, steps
        )
        np.testing.assert_array_equal(run.global_result, ref)

    def test_cube125_memmap(self, theta):
        problem = StencilProblem(
            (32, 32, 32), (2, 2, 2), CUBE125, (8, 8, 8), 8
        )
        run = run_executed(problem, "memmap", theta, timesteps=2)
        ref = apply_periodic_reference(problem.initial_global(0), CUBE125, 2)
        np.testing.assert_array_equal(run.global_result, ref)

    def test_gpu_methods_execute_same_data_path(self, summit):
        problem = StencilProblem(
            (32, 32, 32), (2, 2, 2), SEVEN_POINT, (8, 8, 8), 8
        )
        ref = apply_periodic_reference(problem.initial_global(0), SEVEN_POINT, 1)
        for method in ("layout_ca", "layout_um", "memmap_um", "mpi_types_um"):
            run = run_executed(problem, method, summit, timesteps=1)
            np.testing.assert_array_equal(run.global_result, ref)

    def test_nonuniform_rank_grid(self, theta):
        problem = StencilProblem(
            (32, 16, 16), (2, 1, 1), SEVEN_POINT, (8, 8, 8), 8
        )
        run = run_executed(problem, "layout", theta, timesteps=2)
        ref = apply_periodic_reference(
            problem.initial_global(0), SEVEN_POINT, 2
        )
        np.testing.assert_array_equal(run.global_result, ref)

    def test_2d_problem(self, theta):
        spec = star_stencil(2, 1)
        problem = StencilProblem(
            (32, 32), (2, 2), spec, (4, 4), ghost=4
        )
        run = run_executed(problem, "memmap", theta, timesteps=2)
        ref = apply_periodic_reference(problem.initial_global(0), spec, 2)
        np.testing.assert_array_equal(run.global_result, ref)


class TestExecutedMetadata:
    def test_message_counts(self, small_problem, theta):
        assert run_executed(small_problem, "yask", theta).messages_per_rank == 26
        assert run_executed(small_problem, "memmap", theta).messages_per_rank == 26

    def test_memmap_mapping_budget_tracked(self, small_problem, theta):
        run = run_executed(small_problem, "memmap", theta)
        assert 0 < run.mapping_count < theta.mmap_limit

    def test_padding_on_64k_pages(self, small_problem, theta):
        run = run_executed(
            small_problem, "memmap", theta, page_size=64 * 1024
        )
        assert run.padding_fraction > 0

    def test_network_not_executable(self, small_problem, theta):
        with pytest.raises(ValueError):
            run_executed(small_problem, "network", theta)

    def test_metrics_populated(self, small_problem, theta):
        run = run_executed(small_problem, "yask", theta, timesteps=2)
        m = run.metrics
        assert m.nranks == 8
        assert m.pack.avg > 0
        assert m.gstencils_per_s > 0
        assert "perf" in m.report()

    def test_timesteps_validated(self, small_problem, theta):
        with pytest.raises(ValueError):
            run_executed(small_problem, "yask", theta, timesteps=0)


# ----------------------------------------------------------------------
# One price, one ledger: a rank reports what its bound plans priced
# ----------------------------------------------------------------------
LEDGER_STEPS = 4
LEDGER_FEATURES = {
    # feature -> run_executed keywords (checkpoint_dir filled in per test)
    "plain": {},
    "period2": {"exchange_period": 2},
    "demoted": {"fault_plan": FaultPlan(seed=2, degrade=((3, 1),))},
    "restarted": {
        "fault_plan": FaultPlan(seed=1, crashes=((1, 2),)),
        "checkpoint_period": 1,
    },
    "demoted_restarted": {
        "fault_plan": FaultPlan(seed=2, degrade=((3, 1),), crashes=((1, 3),)),
        "checkpoint_period": 1,
    },
}


def _calc_table(geometry, period):
    """Modelled kernel seconds per cycle position, from the geometry."""
    problem, spec = geometry.problem, geometry.problem.stencil
    info = method_info(geometry.method)
    if info.uses_bricks:
        decomp = geometry.decomp
        slots = brick_cycle_slots(
            decomp, geometry.assignment, spec.radius,
            depths_for_period(period, decomp.width),
        )
        points = [len(s) * decomp.brick_volume for s in slots]
    else:
        margins = margins_for_period(period, spec.radius, problem.ghost)
        points = [
            math.prod(e + 2 * m for e in geometry.extent) for m in margins
        ]
    return [compute_time(geometry.profile, info, n, spec) for n in points]


@pytest.mark.parametrize("feature", LEDGER_FEATURES)
@pytest.mark.parametrize("method", ["layout", "memmap", "yask", "mpi_types", "shift"])
@pytest.mark.parametrize("boundaries", ["periodic", "open"])
def test_rank_reports_what_its_bound_plans_priced(
    boundaries, method, feature, tmp_path
):
    """Every rank's totals are, with ``==``, the sum over the exchanges
    it fired of the price the engine that fired was bound with
    (``geometry.schedule(base)[1][rank]``) plus the calc table; its
    message and wire counts are the same results' counts."""
    kwargs = dict(LEDGER_FEATURES[feature])
    period = kwargs.get("exchange_period", 1)
    problem = StencilProblem(
        (32, 32, 32), (2, 2, 2), SEVEN_POINT,
        # A 2-step cycle at brick granularity needs ghost = 2 bricks.
        (4, 4, 4) if period == 2 else (8, 8, 8), 8,
        periodic=(boundaries == "periodic"),
    )
    if "checkpoint_period" in kwargs:
        kwargs["checkpoint_dir"] = tmp_path
    run = run_executed(
        problem, method, timesteps=LEDGER_STEPS, fabric_timeout=15.0, **kwargs
    )
    assert run.restarts == ("restarted" in feature)
    demoted = feature.startswith("demoted") and method == "memmap"
    assert (run.final_method == "basic") == demoted
    assert run.demotions == (problem.nranks if demoted else 0)

    geometry = RunGeometry(problem, method)
    base = geometry.base
    calc = _calc_table(geometry, period)
    for rank, ledger in enumerate(run.metrics.ranks):
        want = TimeBreakdown()
        messages = wire = exchanges = 0
        for t in range(LEDGER_STEPS):
            if t % period == 0:
                # The degradation vote at step 1 demotes every rank.
                engine = "basic" if demoted and t >= 1 else base
                fired = geometry.schedule(engine)[1][rank]
                for phase in ("pack", "call", "wait", "move"):
                    want.charge(phase, getattr(fired.breakdown, phase))
                messages += fired.messages_sent
                wire += fired.wire_bytes_sent
                exchanges += 1
            want.charge("calc", calc[t % period])
        got, want = ledger.totals.as_dict(), want.as_dict()
        assert got == want
        assert (ledger.timesteps, ledger.exchanges) == (LEDGER_STEPS, exchanges)
        assert (ledger.messages, ledger.wire_bytes) == (messages, wire)
        assert ledger.per_timestep().call == want["call"] * (1.0 / LEDGER_STEPS)


def test_open_boundary_rank_is_priced_for_the_messages_it_sends(host):
    """A corner rank of an open 2x2x2 world has 7 of 26 neighbours: it
    sends 13 Layout messages and pays the call time of 13, not of 39."""
    problem = StencilProblem(
        (32, 32, 32), (2, 2, 2), SEVEN_POINT, (8, 8, 8), 8, periodic=False
    )
    run = run_executed(problem, "layout", host, timesteps=2)
    assert run.messages_per_rank == 13
    assert run.metrics.ranks[0].per_timestep().call == pytest.approx(1.15e-05)
    periodic = run_executed(
        StencilProblem((32, 32, 32), (2, 2, 2), SEVEN_POINT, (8, 8, 8), 8),
        "layout", host, timesteps=2,
    )
    assert periodic.messages_per_rank == 39
    assert periodic.metrics.ranks[0].per_timestep().call == pytest.approx(3.9e-05)


def test_snapshot_without_a_ledger_is_refused(small_problem, tmp_path):
    """The ledger is checkpointed as one record; a store whose metas lack
    it is refused, not migrated."""
    run_executed(
        small_problem, "layout", timesteps=2, checkpoint_dir=tmp_path,
        checkpoint_period=1,
    )
    for snap in tmp_path.rglob("*.snap"):
        with open(snap, "rb") as fh:
            doc, _ = read_head(fh, snap)
            payload = fh.read()
        if "ledger" in doc.get("meta", {}):
            del doc["meta"]["ledger"]
            snap.write_bytes(encode_head(doc) + payload)
    with pytest.raises(RuntimeError, match="no run ledger"):
        run_executed(
            small_problem, "layout", timesteps=3, checkpoint_dir=tmp_path,
            checkpoint_period=1, resume=True,
        )
