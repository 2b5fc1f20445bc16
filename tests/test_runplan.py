"""Run-plan layer: resource lifetime, run-plan invariants, cold resume
and the compiled (C) kernel backend.

Every executed run replays through :meth:`RankRunPlan.run`
(:mod:`repro.core.runplan`); features attach to it as step hooks.  That
every method composes with every feature -- same bits, same counters,
one loop entry per rank per launch -- is the property in
``tests/test_composition.py``.
"""

import gc
import os

import numpy as np
import pytest

from repro.core.driver import run_executed
from repro.core.problem import StencilProblem
from repro.core.runplan import RankRunPlan
from repro.faults import FaultPlan
from repro.simmpi.launcher import RankFailedError
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import SEVEN_POINT

STEPS = 4


def _problem():
    return StencilProblem(
        global_extent=(32, 32, 32),
        rank_dims=(2, 2, 2),
        stencil=SEVEN_POINT,
        brick_dim=(8, 8, 8),
        ghost=8,
    )


def _run(method, **kwargs):
    return run_executed(_problem(), method, timesteps=STEPS, seed=0, **kwargs)


def _maps_and_fds():
    """(live mappings of brick-storage memfds, open file descriptors).

    Arena base mappings and every stitched-view chunk map a
    ``repro-brick-storage`` memfd; counting those lines instead of all
    of ``/proc/self/maps`` keeps the allocator's own growing and merging
    of anonymous regions out of the comparison.
    """
    with open("/proc/self/maps") as fh:
        maps = sum("memfd:repro-brick-storage" in line for line in fh)
    return maps, len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs Linux procfs"
)
class TestFailedLaunchesReleaseMappings:
    """A rank that raises never reaches the end of its function;
    ``run_executed`` closes every rank state once the world has joined.
    No ``gc.collect()`` anywhere: release must not wait for the
    collector.
    """

    CRASH = FaultPlan(seed=1, crashes=((1, 2), (5, 3)))

    def _steady(self, tmp_path):
        # One identical successful run first: kernel builds, thread
        # stacks and allocator arenas are in place before counting.
        _run("memmap", checkpoint_dir=tmp_path / "warm", checkpoint_period=1,
             verify_wire=True)
        return _maps_and_fds()

    def test_crashed_and_restarted_run(self, tmp_path):
        before = self._steady(tmp_path)
        run = _run(
            "memmap", fault_plan=self.CRASH, checkpoint_dir=tmp_path / "ck",
            checkpoint_period=1,
        )
        assert run.restarts == 2
        assert _maps_and_fds() == before

    def test_healed_run(self, tmp_path):
        """A detected wire fault is raised out of the fabric and caught
        by the retry hook; the error must not pin the rank's frames (and
        mappings) in a traceback cycle.  The collector is off, so a
        lucky pass cannot hide one."""
        before = self._steady(tmp_path)
        gc.disable()
        try:
            run = _run(
                "memmap",
                fault_plan=FaultPlan(seed=3, drop=0.02, corrupt=0.02),
            )
            assert run.faults["events"]["healed"] > 0
            assert _maps_and_fds() == before
        finally:
            gc.enable()

    def test_run_that_raises(self, tmp_path):
        before = self._steady(tmp_path)
        with pytest.raises(RankFailedError):
            _run("memmap", fault_plan=self.CRASH)
        assert _maps_and_fds() == before


class TestRankRunPlanObject:
    def test_engine_buffer_mismatch_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            RankRunPlan([object()], [object()], [object(), object()], 1)

    def test_plan_period_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cycle position"):
            RankRunPlan(
                [object(), object()], [object()], [object(), object()], 2
            )


class TestCheckpointComposition:
    def test_cold_resume_with_plans(self, tmp_path):
        run_executed(
            _problem(), "layout", timesteps=2, seed=0,
            checkpoint_dir=tmp_path, checkpoint_period=1,
        )
        resumed = _run(
            "layout", checkpoint_dir=tmp_path, checkpoint_period=1,
            resume=True,
        )
        assert resumed.resumed_epoch == 1
        np.testing.assert_array_equal(
            resumed.global_result,
            apply_periodic_reference(_problem().initial_global(0), SEVEN_POINT, STEPS),
        )
