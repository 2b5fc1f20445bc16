"""FaultPlan: determinism, validation, overrides, serialization."""

import pytest

from repro.faults import FaultPlan, RetryPolicy


class TestValidation:
    def test_default_plan_is_quiet(self):
        plan = FaultPlan()
        assert plan.decide(0, 1, 7, 1) is None

    @pytest.mark.parametrize("kind", ["drop", "corrupt", "duplicate", "delay"])
    def test_probability_range_enforced(self, kind):
        with pytest.raises(ValueError, match="outside"):
            FaultPlan(**{kind: 1.5})
        with pytest.raises(ValueError, match="outside"):
            FaultPlan(**{kind: -0.1})

    def test_probability_sum_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            FaultPlan(drop=0.5, corrupt=0.6)

    def test_edge_overrides_count_as_wire_faults(self):
        plan = FaultPlan(edge_overrides={(0, 1): {"drop": 1.0}})
        assert all(
            plan.decide(0, 1, tag, seq) == "drop"
            for tag in range(4) for seq in range(4)
        )


class TestDeterminism:
    def test_decide_is_pure(self):
        plan = FaultPlan(seed=42, drop=0.1, corrupt=0.1, duplicate=0.1)
        first = [plan.decide(0, 1, t, s) for t in range(8) for s in range(16)]
        second = [plan.decide(0, 1, t, s) for t in range(8) for s in range(16)]
        assert first == second

    def test_seed_changes_schedule(self):
        kw = dict(drop=0.2, corrupt=0.2)
        a = [FaultPlan(seed=1, **kw).decide(0, 1, 3, s) for s in range(64)]
        b = [FaultPlan(seed=2, **kw).decide(0, 1, 3, s) for s in range(64)]
        assert a != b

    def test_all_kinds_reachable(self):
        plan = FaultPlan(seed=0, drop=0.2, corrupt=0.2, duplicate=0.2,
                         delay=0.2)
        kinds = {
            plan.decide(0, 1, 0, s) for s in range(300)
        }
        assert kinds == {None, "drop", "corrupt", "duplicate", "delay"}

    def test_certain_fault(self):
        plan = FaultPlan(seed=9, corrupt=1.0)
        assert all(
            plan.decide(a, b, t, s) == "corrupt"
            for a, b, t, s in [(0, 1, 0, 1), (3, 2, 40, 9), (7, 0, 1, 2)]
        )

    def test_corrupt_byte_in_range_and_nonzero_mask(self):
        plan = FaultPlan(seed=5, corrupt=1.0)
        for seq in range(32):
            off, mask = plan.corrupt_byte(0, 1, 4, seq, 100)
            assert 0 <= off < 100
            assert 1 <= mask <= 255


class TestOverridesAndSchedules:
    def test_edge_override_scopes_faults(self):
        plan = FaultPlan(seed=3, edge_overrides={(0, 1): {"drop": 1.0}})
        assert plan.decide(0, 1, 0, 1) == "drop"
        assert plan.decide(1, 0, 0, 1) is None

    def test_string_edge_keys(self):
        plan = FaultPlan(seed=3, edge_overrides={"2,3": {"corrupt": 1.0}})
        assert plan.decide(2, 3, 0, 1) == "corrupt"

    def test_crash_and_degrade_schedules(self):
        plan = FaultPlan(crashes=((2, 5),), degrade=((0, 1), (3, 4)))
        assert plan.crash_due(2, 5) and not plan.crash_due(2, 4)
        assert plan.degrade_due(0, 1) and not plan.degrade_due(1, 0)
        assert plan.max_degrade_step == 4
        assert FaultPlan().max_degrade_step == -1

    def test_literal_round_trip(self):
        plan = FaultPlan(
            seed=11, drop=0.1, corrupt=0.05,
            edge_overrides={(0, 1): {"drop": 0.5}},
            crashes=((1, 2),), degrade=((0, 3),),
        )
        doc = plan.to_literal()
        rebuilt = FaultPlan.from_literal(doc)
        assert rebuilt.seed == plan.seed
        assert rebuilt.crashes == plan.crashes
        assert rebuilt.degrade == plan.degrade
        # Same decisions through the JSON-friendly string edge keys.
        assert [rebuilt.decide(0, 1, 0, s) for s in range(32)] == [
            plan.decide(0, 1, 0, s) for s in range(32)
        ]
        import json

        json.dumps(doc)  # must be JSON-serializable as-is


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(max_retries=8, backoff_s=0.001, max_backoff_s=0.004)
        sleeps = [policy.sleep_for(a) for a in range(6)]
        assert sleeps[0] == 0.001
        assert sleeps[1] == 0.002
        assert sleeps[2] == 0.004
        assert all(s == 0.004 for s in sleeps[2:])
        assert sleeps == sorted(sleeps)
