"""Crash-resume acceptance: restarted runs are bit-identical to
uninterrupted ones for the three families the paper compares, over
several fault seeds; cold resumes, stores a crash leaves behind, and the
views a relaunched MemMap world rebuilds.  Every other method crossed
with restarts is the property in ``tests/test_composition.py``.
"""

import numpy as np
import pytest

from repro.ckpt import CheckpointStore
from repro.core.driver import run_executed
from repro.core.problem import StencilProblem
from repro.faults import FaultPlan
from repro.stencil.spec import SEVEN_POINT

STEPS = 4
CRASH_STEP = 2


def _problem():
    return StencilProblem(
        global_extent=(32, 32, 16),
        rank_dims=(2, 2, 1),
        stencil=SEVEN_POINT,
        brick_dim=(8, 8, 8),
        ghost=8,
    )


_BASELINES = {}


def _baseline(method):
    if method not in _BASELINES:
        _BASELINES[method] = run_executed(
            _problem(), method, timesteps=STEPS, seed=0
        )
    return _BASELINES[method]


class TestCrashResumeBitExact:
    @pytest.mark.parametrize("method", ["basic", "layout", "memmap"])
    @pytest.mark.parametrize("fault_seed", [1, 2, 3])
    def test_resumed_run_matches_uninterrupted(
        self, tmp_path, method, fault_seed
    ):
        problem = _problem()
        base = _baseline(method)
        crash_rank = 1 + fault_seed % (problem.nranks - 1)
        plan = FaultPlan(seed=fault_seed, crashes=((crash_rank, CRASH_STEP),))
        run = run_executed(
            problem, method, timesteps=STEPS, seed=0, fault_plan=plan,
            checkpoint_dir=tmp_path, checkpoint_period=1,
            fabric_timeout=15.0,
        )
        assert run.restarts == 1
        assert run.resumed_epoch >= 0
        assert run.faults["events"].get("injected_crash") == 1
        assert run.faults["events"].get("restarted") == 1
        # Final fields bit-identical.
        np.testing.assert_array_equal(run.global_result, base.global_result)
        # Modelled RankMetrics bit-identical, rank by rank.
        for r0, r1 in zip(base.metrics.ranks, run.metrics.ranks):
            assert r0.totals.as_dict() == r1.totals.as_dict()
        # Communication accounting survives the restart (counters are
        # checkpointed and replayed exactly).
        assert run.messages_per_rank == base.messages_per_rank
        assert run.wire_bytes_per_rank == base.wire_bytes_per_rank
        assert run.final_method == base.final_method

    def test_memmap_views_rebuilt_over_restored_arena(self, tmp_path):
        problem = _problem()
        base = _baseline("memmap")
        plan = FaultPlan(seed=7, crashes=((2, CRASH_STEP),))
        run = run_executed(
            problem, "memmap", timesteps=STEPS, seed=0, fault_plan=plan,
            checkpoint_dir=tmp_path, checkpoint_period=1,
            fabric_timeout=15.0,
        )
        assert run.restarts == 1
        # The relaunched world rebuilt its stitched views from the
        # restored arena: mappings exist and the answer is exact.
        assert run.mapping_count == base.mapping_count > 0
        np.testing.assert_array_equal(run.global_result, base.global_result)


class TestResumeSemantics:
    def test_cold_resume_continues_run(self, tmp_path):
        problem = _problem()
        base = _baseline("layout")
        run_executed(
            problem, "layout", timesteps=CRASH_STEP, seed=0,
            checkpoint_dir=tmp_path, checkpoint_period=1,
        )
        resumed = run_executed(
            problem, "layout", timesteps=STEPS, seed=0,
            checkpoint_dir=tmp_path, checkpoint_period=1, resume=True,
        )
        assert resumed.resumed_epoch == CRASH_STEP - 1
        np.testing.assert_array_equal(
            resumed.global_result, base.global_result
        )

    def test_resume_from_empty_store_starts_fresh(self, tmp_path):
        problem = _problem()
        base = _baseline("layout")
        run = run_executed(
            problem, "layout", timesteps=STEPS, seed=0,
            checkpoint_dir=tmp_path, resume=True,
        )
        assert run.resumed_epoch == -1
        np.testing.assert_array_equal(run.global_result, base.global_result)

    def test_resume_without_store_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_executed(_problem(), "layout", timesteps=1, resume=True)

    def test_incremental_writes_fewer_bytes_than_full(self, tmp_path):
        # Open boundaries: the ghost sections no neighbour sends into are
        # live in every snapshot and, with no ghost-expansion margin to
        # recompute them, never change, so a snapshot after the first of
        # its buffer references the runs they fill instead of rewriting.
        # (A rank whose boundary ghosts share a run with owned slots
        # writes that run whole.)
        problem = StencilProblem(
            global_extent=(32, 32, 32),
            rank_dims=(2, 2, 2),
            stencil=SEVEN_POINT,
            brick_dim=(4, 4, 4),
            ghost=8,
            periodic=False,
        )
        run_executed(
            problem, "layout", timesteps=6, seed=0, exchange_period=1,
            checkpoint_dir=tmp_path, checkpoint_period=1,
        )
        store = CheckpointStore(tmp_path)
        written = held = 0
        for rank in range(problem.nranks):
            assert store.epochs(rank) == [1, 2, 3, 4, 5]
            for epoch in store.epochs(rank):
                man = store.manifest(rank, epoch)
                total = sum(s[2] for run in man["runs"] for s in run["sections"])
                if epoch <= 2:  # the first snapshot of each buffer
                    assert (man["parent"], man["data_bytes"]) == (None, total)
                else:
                    assert man["parent"] == epoch - 2
                    assert 0 < man["data_bytes"] <= total
                    written += man["data_bytes"]
                    held += total
        assert written < held

    def test_array_method_crash_resume(self, tmp_path):
        problem = _problem()
        base = run_executed(problem, "yask", timesteps=STEPS, seed=0)
        plan = FaultPlan(seed=2, crashes=((1, CRASH_STEP),))
        run = run_executed(
            problem, "yask", timesteps=STEPS, seed=0, fault_plan=plan,
            checkpoint_dir=tmp_path, checkpoint_period=1,
            fabric_timeout=15.0,
        )
        assert run.restarts == 1
        np.testing.assert_array_equal(run.global_result, base.global_result)

    def test_multiple_scheduled_crashes_all_survived(self, tmp_path):
        problem = _problem()
        base = _baseline("layout")
        plan = FaultPlan(seed=4, crashes=((1, 1), (2, 3)))
        run = run_executed(
            problem, "layout", timesteps=STEPS, seed=0, fault_plan=plan,
            checkpoint_dir=tmp_path, checkpoint_period=1,
            fabric_timeout=15.0,
        )
        assert run.restarts == 2
        np.testing.assert_array_equal(run.global_result, base.global_result)

    def test_store_is_consistent_after_survived_crash(self, tmp_path):
        problem = _problem()
        plan = FaultPlan(seed=1, crashes=((1, CRASH_STEP),))
        run_executed(
            problem, "layout", timesteps=STEPS, seed=0, fault_plan=plan,
            checkpoint_dir=tmp_path, checkpoint_period=1,
            fabric_timeout=15.0,
        )
        store = CheckpointStore(tmp_path)
        assert store.ranks() == list(range(problem.nranks))
        assert store.latest_consistent(problem.nranks) >= CRASH_STEP
        assert all(row["ok"] for row in store.verify())
