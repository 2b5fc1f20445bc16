"""MemMap exchange over the simulated arena == over the real arena.

The portability claim: platforms without memfd/MAP_FIXED fall back to the
page-table arena and get bit-identical exchanges (just without the
zero-copy property).  We force each arena kind and compare full runs.
"""

import numpy as np
import pytest

import repro.brick.storage as storage_mod
from repro.core.driver import run_executed
from repro.core.problem import StencilProblem
from repro.hardware.profiles import theta_knl
from repro.stencil.spec import SEVEN_POINT
from repro.vmem import SimArena, realmap_available
from repro.vmem.realmap import MemfdArena


@pytest.fixture
def problem():
    return StencilProblem(
        global_extent=(32, 32, 32),
        rank_dims=(2, 2, 2),
        stencil=SEVEN_POINT,
        brick_dim=(8, 8, 8),
        ghost=8,
    )


def _run_with_arena(problem, arena_factory, monkeypatch):
    monkeypatch.setattr(storage_mod, "default_arena", arena_factory)
    run = run_executed(problem, "memmap", theta_knl(), timesteps=2)
    return run.global_result


def test_sim_arena_memmap_bit_identical(problem, monkeypatch):
    if not realmap_available():
        pytest.skip("real arena unavailable; nothing to compare against")
    real = _run_with_arena(
        problem, lambda n, p: MemfdArena(n, p), monkeypatch
    )
    sim = _run_with_arena(problem, lambda n, p: SimArena(n, p), monkeypatch)
    np.testing.assert_array_equal(real, sim)


def test_sim_arena_memmap_vs_reference(problem, monkeypatch):
    from repro.stencil.reference import apply_periodic_reference

    sim = _run_with_arena(problem, lambda n, p: SimArena(n, p), monkeypatch)
    ref = apply_periodic_reference(problem.initial_global(0), SEVEN_POINT, 2)
    np.testing.assert_array_equal(sim, ref)


def test_sim_views_report_not_zero_copy(monkeypatch):
    monkeypatch.setattr(storage_mod, "default_arena", SimArena)
    from repro.brick.storage import BrickStorage

    st = BrickStorage.mmap_alloc(4, 512, page_size=4096)
    view = st.make_view([(0, 4096)])
    assert not view.zero_copy
    st.close()


@pytest.mark.parametrize(
    "tier, copy_backend", [("cffi", "cffi+numpy"), ("numpy", "numpy")]
)
def test_sim_arena_memmap_reports_its_copies(
    problem, tier, copy_backend, monkeypatch
):
    """Without memfd the windows gather and scatter every exchange on
    NumPy, and the run says so beside the wire's tier."""
    from repro.stencil.reference import apply_periodic_reference

    monkeypatch.setenv("REPRO_KERNEL_BACKEND", tier)
    monkeypatch.setattr(storage_mod, "default_arena", SimArena)
    run = run_executed(problem, "memmap", theta_knl(), timesteps=2)
    ref = apply_periodic_reference(problem.initial_global(0), SEVEN_POINT, 2)
    np.testing.assert_array_equal(run.global_result, ref)
    assert run.copy_backend == copy_backend
