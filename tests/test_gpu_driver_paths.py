"""GPU method variants through the executed driver."""

import numpy as np
import pytest

from repro.core.driver import run_executed
from repro.core.geometry import RunGeometry
from repro.core.methods import method_info
from repro.core.model import compute_time, exchange_breakdown, model_timestep
from repro.core.problem import StencilProblem
from repro.hardware.profiles import summit_v100
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import SEVEN_POINT


@pytest.fixture
def problem():
    return StencilProblem(
        (32, 32, 32), (2, 2, 2), SEVEN_POINT, (8, 8, 8), 8
    )


class TestGpuVariants:
    def test_staged_charges_move(self, problem, summit):
        run = run_executed(problem, "layout_staged", summit, timesteps=1)
        assert run.metrics.move.avg > 0
        ref = apply_periodic_reference(problem.initial_global(0), SEVEN_POINT, 1)
        np.testing.assert_array_equal(run.global_result, ref)

    def test_ca_and_um_no_explicit_move(self, problem, summit):
        for method in ("layout_ca", "memmap_um"):
            run = run_executed(problem, method, summit, timesteps=1)
            assert run.metrics.move.avg == 0.0

    def test_um_slower_compute_than_ca(self, problem, summit):
        ca = run_executed(problem, "layout_ca", summit, timesteps=1)
        um = run_executed(problem, "layout_um", summit, timesteps=1)
        assert um.metrics.calc.avg > ca.metrics.calc.avg

    def test_mpi_types_ca_catastrophic_but_correct(self, problem, summit):
        """The paper measured MPI_Types_CA 50x slower than MPI_Types_UM;
        our registry still executes it correctly (the cost model is what
        differs -- the datatype engine reading device memory)."""
        run = run_executed(problem, "mpi_types_ca", summit, timesteps=1)
        ref = apply_periodic_reference(problem.initial_global(0), SEVEN_POINT, 1)
        np.testing.assert_array_equal(run.global_result, ref)

    def test_gpu_method_requires_gpu_profile(self, problem, theta):
        # Refused while the geometry prices its plans over the transport,
        # by the launching thread: no rank runs a step first.
        with pytest.raises(ValueError, match="GPU"):
            run_executed(problem, "layout_ca", theta, timesteps=1)

    def test_memmap_um_page_size_defaults_to_gpu(self, problem, summit):
        run = run_executed(problem, "memmap_um", summit, timesteps=1)
        # 64 KiB pages on 16^3 subdomains: massive padding (Table 2 regime)
        assert run.padding_fraction > 1.0


@pytest.mark.parametrize(
    "method",
    ["layout_ca", "layout_um", "memmap_um", "mpi_types_um", "mpi_types_ca"],
)
def test_gpu_named_geometry_prices_with_its_transport(problem, method):
    """The plans a GPU-named geometry hands its ranks carry the
    transport's terms (derated network, UM faults in the wait, the
    first-touch penalty): the model's price, by the same function."""
    summit, info = summit_v100(), method_info(method)
    geometry = RunGeometry(problem, method, summit)
    ext = problem.subdomain_extent
    model = exchange_breakdown(summit, method, ext)
    kernel = compute_time(summit, info, problem.points_per_rank, SEVEN_POINT)
    step = model_timestep(summit, method, ext, SEVEN_POINT)
    for result in geometry.results:
        assert result.breakdown == model
        assert (result.first_touch > 0.0) == method.endswith("_um")
        assert kernel + result.first_touch == step.calc
    # ... and the executed run charges exactly that, per step.
    run = run_executed(problem, method, summit, timesteps=1)
    for ledger in run.metrics.ranks:
        assert ledger.totals == step
