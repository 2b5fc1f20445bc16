"""Chaos soak: classification, determinism, and the pass/fail contract."""

import numpy as np
import pytest

from repro.core.driver import run_executed
from repro.core.problem import StencilProblem
from repro.faults import FaultPlan, InjectedCrashError
from repro.faults.chaos import (
    PRESETS,
    ChaosConfig,
    SoakReport,
    TrialResult,
    run_soak,
)
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import SEVEN_POINT


def _problem():
    return StencilProblem(
        global_extent=(32, 32, 32),
        rank_dims=(2, 2, 2),
        stencil=SEVEN_POINT,
        brick_dim=(8, 8, 8),
        ghost=8,
    )


class TestFaultedRuns:
    def test_wire_faults_heal_to_exact_answer(self):
        problem = _problem()
        steps = 2
        plan = FaultPlan(seed=3, drop=0.04, corrupt=0.04, duplicate=0.04)
        run = run_executed(problem, "memmap", timesteps=steps, seed=0,
                           fault_plan=plan, fabric_timeout=10.0)
        reference = apply_periodic_reference(
            problem.initial_global(0), SEVEN_POINT, steps
        )
        np.testing.assert_array_equal(run.global_result, reference)
        events = run.faults["events"]
        assert any(k.startswith("injected_") for k in events)
        # Every injected drop/corrupt produced a retransmit, and every
        # faulted cut one healed retry.
        assert events["retransmit"] == (
            events["injected_drop"] + events["injected_corrupt"]
        )
        assert events["healed"] == events["retry"] >= 1

    def test_retry_budget_is_per_cut_not_per_fault(self):
        # 30% drops: most cuts lose more items than RetryPolicy allows
        # retries (8).  Every retransmit is clean, so judging the whole
        # cut before raising heals each in one retry; one retry per
        # faulted *message* could never finish (ExchangeTimeoutError).
        problem = _problem()
        run = run_executed(problem, "layout", timesteps=3, seed=0,
                           fault_plan=FaultPlan(seed=3, drop=0.3))
        reference = apply_periodic_reference(
            problem.initial_global(0), SEVEN_POINT, 3
        )
        np.testing.assert_array_equal(run.global_result, reference)
        events = run.faults["events"]
        assert events["injected_drop"] > 8 * 3 * problem.nranks
        assert events["retry"] == events["healed"] == 3 * problem.nranks

    def test_duplicates_are_discarded_in_the_epoch_they_arrive(self):
        # ... not when the next epoch's receive on that edge happens to
        # dequeue them: the last exchange's duplicates must not stay on
        # the wire.
        run = run_executed(_problem(), "layout", timesteps=3, seed=0,
                           fault_plan=FaultPlan(seed=1, duplicate=0.1))
        events = run.faults["events"]
        assert events["duplicate_discarded"] == events["injected_duplicate"] > 0
        assert run.fabric.pending_messages == 0

    def test_same_seed_same_schedule_and_state(self):
        problem = _problem()
        plan = FaultPlan(seed=5, drop=0.03, corrupt=0.03)
        runs = [
            run_executed(problem, "layout", timesteps=2, seed=0,
                         fault_plan=plan, fabric_timeout=10.0)
            for _ in range(2)
        ]
        assert runs[0].faults["schedule_digest"] == runs[1].faults["schedule_digest"]
        assert runs[0].faults["events"] == runs[1].faults["events"]
        np.testing.assert_array_equal(
            runs[0].global_result, runs[1].global_result
        )

    def test_scheduled_crash_surfaces_as_root_cause(self):
        problem = _problem()
        plan = FaultPlan(seed=1, crashes=((3, 1),))
        with pytest.raises(RuntimeError) as info:
            run_executed(problem, "layout", timesteps=3, seed=0,
                         fault_plan=plan, fabric_timeout=5.0)
        chain, node = [], info.value
        while node is not None:
            chain.append(node)
            node = node.__cause__ or node.__context__
        assert any(isinstance(n, InjectedCrashError) for n in chain)


class TestSoak:
    def test_quick_soak_passes(self):
        # One trial per preset, determinism recheck off to keep this fast;
        # the full gate (rechecks, 10 trials, seed matrix) runs in CI.
        config = ChaosConfig(trials=7, seed=0, steps=2, timeout_s=10.0,
                             check_determinism=False)
        report = run_soak(config)
        assert len(report.trials) == 7
        assert report.passed, report.render()
        assert report.silent == 0 and report.unexpected == 0
        outcomes = {t.preset: t.outcome for t in report.trials}
        assert outcomes["crash"] == "detected"
        for preset in ("corrupt", "drop", "mixed", "duplicate", "degrade"):
            assert outcomes[preset] == "healed_exact", report.render()
        for t in report.trials:
            assert t.events.get("retry", 0) == t.events.get("healed", 0)
            assert t.events.get("duplicate_discarded", 0) == t.events.get(
                "injected_duplicate", 0
            )

    def test_degrade_trial_demotes(self):
        config = ChaosConfig(trials=7, seed=0, steps=2, timeout_s=10.0,
                             check_determinism=False)
        report = run_soak(config)
        degrade = [t for t in report.trials if t.preset == "degrade"]
        assert degrade and degrade[0].demotions > 0
        assert degrade[0].final_method in ("basic", "brickpack")

    def test_presets_cover_config_order(self):
        assert set(ChaosConfig().presets) == set(PRESETS)

    def test_report_rendering_and_literal(self):
        config = ChaosConfig(trials=2)
        report = SoakReport(
            config=config,
            trials=[
                TrialResult(index=0, preset="corrupt", method="layout",
                            seed=0, outcome="healed_exact",
                            events={"injected_corrupt": 2}),
                TrialResult(index=1, preset="drop", method="memmap",
                            seed=1, outcome="silent_corruption"),
            ],
        )
        assert not report.passed
        text = report.render()
        assert "FAIL" in text and "silent" in text
        doc = report.to_literal()
        assert doc["outcomes"] == {"healed_exact": 1, "silent_corruption": 1}
        import json

        json.dumps(doc)

    def test_quick_config(self):
        quick = ChaosConfig.quick(trials=3, seed=9)
        assert quick.trials == 3 and quick.seed == 9
        assert quick.steps < ChaosConfig().steps


class TestCrashRestart:
    def test_crash_restart_trials_resume_exactly(self):
        import dataclasses

        config = dataclasses.replace(
            ChaosConfig.quick(trials=2, seed=0),
            check_determinism=False,
            presets=("crash_restart",),
        )
        report = run_soak(config)
        assert report.passed, report.render()
        for t in report.trials:
            assert t.preset == "crash_restart"
            assert t.outcome == "resumed_exact", report.render()
            assert t.restarts >= 1
            assert t.events.get("injected_crash", 0) >= 1
            assert t.events.get("restarted", 0) >= 1

    def test_resume_failed_gates_the_soak(self):
        report = SoakReport(
            config=ChaosConfig(trials=1),
            trials=[
                TrialResult(index=0, preset="crash_restart", method="layout",
                            seed=0, outcome="resume_failed",
                            error="scheduled crash did not trigger a restart"),
            ],
        )
        assert report.resume_failed == 1
        assert not report.passed
        assert "1 failed resume(s)" in report.render()
        assert report.to_literal()["outcomes"] == {"resume_failed": 1}

    def test_new_presets_append_to_the_cycle(self):
        # The committed chaos baselines were generated with 7-trial
        # soaks; later presets must extend the cycle, not reshuffle it.
        assert ChaosConfig().presets[:7] == (
            "corrupt", "drop", "mixed", "duplicate", "degrade", "crash",
            "delay",
        )
        assert ChaosConfig().presets[7:] == ("crash_restart", "node_loss")


class TestNodeLoss:
    def test_node_loss_trials_reshape_or_detect(self):
        import dataclasses

        config = dataclasses.replace(
            ChaosConfig.quick(trials=2, seed=0),
            check_determinism=False,
            presets=("node_loss",),
        )
        report = run_soak(config)
        assert report.passed, report.render()
        outcomes = [t.outcome for t in report.trials]
        # Even fault seeds attach a checkpoint store and must reshape to
        # the exact answer; odd seeds run storeless and must fail fast
        # with a typed detection -- never a hang.
        assert outcomes[0] == "reshaped_exact", report.render()
        assert outcomes[1] == "detected", report.render()
        with_store = report.trials[0]
        assert with_store.events.get("injected_death", 0) == 2
        assert with_store.events.get("reshaped") == 1

    def test_reshape_failed_outcome_fails_the_soak(self):
        report = SoakReport(
            config=ChaosConfig(trials=1),
            trials=[
                TrialResult(index=0, preset="node_loss", method="basic",
                            seed=0, outcome="reshape_failed",
                            error="reshaped run diverged"),
            ],
        )
        assert report.reshape_failed == 1
        assert not report.passed
        assert "FAIL" in report.render()
        assert report.to_literal()["outcomes"] == {"reshape_failed": 1}
