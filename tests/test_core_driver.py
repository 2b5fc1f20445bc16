"""Executed driver: end-to-end distributed runs vs the serial oracle."""

import numpy as np
import pytest

from repro.ckpt.store import encode_head, read_head
from repro.core.driver import run_executed
from repro.core.problem import StencilProblem
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import CUBE125, SEVEN_POINT, star_stencil

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
