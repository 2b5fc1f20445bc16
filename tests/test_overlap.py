"""Phased interior/surface overlap: bit-exactness, fallbacks, splits.

The phased executed path (``run_executed(..., overlap=True)``) starts
the partitioned exchange, runs the interior stencil sweep while the
messages are in flight, completes every receive partition, then runs the
surface sweep.  These tests pin the two load-bearing guarantees: the
result is bit-identical to the unphased run for every channel-capable
method -- on a verified fabric and under injected wire faults too, where
a retry re-fires the completion only -- and a run whose engines are not
channels (the barrier-separated Shift) steps unphased and says so
instead of silently racing.  That phasing engages under every other
feature is pinned in ``test_runplan.py``.
"""

import numpy as np
import pytest

from repro.core.driver import run_executed
from repro.core.problem import StencilProblem
from repro.exchange.costs import overlap_times
from repro.faults.plan import FaultPlan
from repro.stencil.spec import SEVEN_POINT

#: Every method whose exchanger builds an ExchangeChannel (shift is the
#: deliberate exception: its phase structure has no batched channel).
CHANNEL_METHODS = ("layout", "basic", "memmap", "yask", "yask_ol", "mpi_types")


class TestPhasedBitExactness:
    @pytest.mark.parametrize("method", CHANNEL_METHODS)
    def test_bit_exact_vs_unphased(self, method, medium_problem):
        base = run_executed(medium_problem, method, timesteps=3)
        ph = run_executed(medium_problem, method, timesteps=3, overlap=True)
        assert ph.overlap, f"{method} did not take the phased path"
        np.testing.assert_array_equal(
            ph.global_result, base.global_result
        )

    def test_phased_with_exchange_period(self, medium_problem):
        # Element-granularity method: period 3 fits ghost // radius = 8.
        base = run_executed(
            medium_problem, "mpi_types", timesteps=6, exchange_period=3
        )
        ph = run_executed(
            medium_problem, "mpi_types", timesteps=6, exchange_period=3,
            overlap=True,
        )
        assert ph.overlap
        np.testing.assert_array_equal(ph.global_result, base.global_result)

    def test_hidden_comm_accounting(self, medium_problem):
        ph = run_executed(
            medium_problem, "layout", timesteps=3, overlap=True
        )
        assert ph.overlap
        assert ph.hidden_comm_s > 0.0
        assert 0.0 <= ph.hidden_comm_fraction <= 1.0

    def test_unphased_run_reports_no_overlap(self, medium_problem):
        base = run_executed(medium_problem, "layout", timesteps=2)
        assert not base.overlap
        assert base.hidden_comm_s == 0.0
        assert base.hidden_comm_fraction == 0.0


class TestPhasedFallbacks:
    """overlap=True without channels must step unphased, not race --
    and only Shift is without channels."""

    def _assert_phased(self, problem, **kwargs):
        base = run_executed(problem, "layout", timesteps=3)
        ph = run_executed(
            problem, "layout", timesteps=3, overlap=True, **kwargs
        )
        assert ph.overlap is True
        np.testing.assert_array_equal(ph.global_result, base.global_result)
        assert ph.fabric.pending_messages == 0
        return ph

    def test_shift_has_no_channel(self, medium_problem):
        base = run_executed(medium_problem, "shift", timesteps=3)
        ph = run_executed(
            medium_problem, "shift", timesteps=3, overlap=True
        )
        assert not ph.overlap
        np.testing.assert_array_equal(ph.global_result, base.global_result)

    def test_verified_fabric(self, medium_problem):
        # Envelope mode is no fallback any more: every partition is
        # sealed at pready and verified where it lands.
        self._assert_phased(medium_problem, verify_wire=True)

    def test_chaos_injector(self, medium_problem):
        # A dropped surface message must never let the surface sweep run
        # early: complete() raises before the unpack, the interior work
        # is not redone, and the retry re-fires complete() only.
        ph = self._assert_phased(
            medium_problem, fault_plan=FaultPlan(seed=7, drop=0.05)
        )
        events = ph.faults["events"]
        assert events["injected_drop"] > 0
        assert events["retry"] == events["healed"] > 0
        assert "resend_suppressed" not in events  # start() never re-ran

    def test_retry_reruns_completion_not_interior(self, monkeypatch):
        from repro.core.runplan import RankRunPlan
        from repro.exchange.base import ExchangeChannel

        calls = {"start": 0, "complete": 0, "interior": 0}
        real = {n: getattr(ExchangeChannel, n) for n in ("start", "complete")}
        for name, fn in real.items():
            def counted(self, _name=name, _fn=fn):
                calls[_name] += 1
                return _fn(self)

            monkeypatch.setattr(ExchangeChannel, name, counted)
        real_init = RankRunPlan.__init__

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            if self.splits is None:  # the unphased base run
                return
            interior, surface = self.splits

            class Counted:
                def execute(self, src, dst):
                    calls["interior"] += 1
                    interior.execute(src, dst)

            self.splits = (Counted(), surface)

        monkeypatch.setattr(RankRunPlan, "__init__", init)
        p = StencilProblem(
            global_extent=(64, 64, 64), rank_dims=(2, 2, 2),
            stencil=SEVEN_POINT, brick_dim=(8, 8, 8), ghost=8,
        )
        base = run_executed(p, "yask", timesteps=2)
        ph = run_executed(
            p, "yask", timesteps=2, overlap=True,
            fault_plan=FaultPlan(seed=2, corrupt=0.1),
        )
        np.testing.assert_array_equal(ph.global_result, base.global_result)
        retries = ph.faults["events"]["retry"]
        assert retries > 0
        assert calls["start"] == calls["interior"] == 8 * 2
        assert calls["complete"] == 8 * 2 + retries

    def test_all_surface_geometry_still_phases(self):
        # 16^3 subdomains of 8^3 bricks have zero interior bricks; the
        # phased path must handle an empty interior plan (start and
        # complete back to back) and stay bit-exact.
        p = StencilProblem(
            global_extent=(32, 32, 32), rank_dims=(2, 2, 2),
            stencil=SEVEN_POINT, brick_dim=(8, 8, 8), ghost=8,
        )
        base = run_executed(p, "layout", timesteps=3)
        ph = run_executed(p, "layout", timesteps=3, overlap=True)
        assert ph.overlap
        np.testing.assert_array_equal(ph.global_result, base.global_result)


class TestSplitPlans:
    """Interior/surface decompositions are disjoint and covering."""

    def test_brick_split_partitions_slots(self):
        from repro.brick.decomp import BrickDecomp
        from repro.stencil.plan import ghost_slot_mask, split_brick_slots

        decomp = BrickDecomp((32, 32, 32), (8, 8, 8), 8)
        _store, asn = decomp.allocate()
        info = decomp.brick_info(asn)
        slots = decomp.compute_slots(asn)
        mask = ghost_slot_mask(asn)
        interior, surface = split_brick_slots(info, mask, slots)
        assert sorted(list(interior) + list(surface)) == sorted(slots)
        assert set(interior).isdisjoint(surface)
        # An interior slot's neighbors are all owned (never ghost).
        for slot in interior:
            for nb in info.adjacency[slot]:
                assert nb < 0 or not mask[nb]
        # Every surface slot reads at least one ghost neighbor.
        for slot in surface:
            assert any(nb >= 0 and mask[nb] for nb in info.adjacency[slot])

    def test_array_split_covers_region(self):
        from repro.stencil.plan import split_array_region

        extent, ghost, radius = (12, 10, 8), 4, 1
        interior, surface = split_array_region(extent, ghost, 0, radius)
        assert interior is not None
        shape = tuple(e + 2 * ghost for e in reversed(extent))
        counts = np.zeros(shape, dtype=np.int32)
        for box in [interior] + list(surface):
            counts[tuple(slice(lo, hi) for lo, hi in box)] += 1
        region = tuple(
            slice(ghost, ghost + e) for e in reversed(extent)
        )
        assert (counts[region] == 1).all()  # disjoint and covering
        outside = counts.sum() - counts[region].sum()
        assert outside == 0  # nothing written beyond the owned region

    def test_array_split_thin_region_all_surface(self):
        from repro.stencil.plan import split_array_region

        interior, surface = split_array_region((4, 4, 4), 4, 0, 2)
        assert interior is None
        assert len(surface) == 1

    def test_array_phase_plans_match_full_plan(self):
        from repro.stencil.plan import (
            compile_array_phase_plans,
            compile_array_plan,
        )

        extent, ghost = (16, 16, 16), 8
        full = compile_array_plan(SEVEN_POINT, extent, ghost)
        interior, surface = compile_array_phase_plans(
            SEVEN_POINT, extent, ghost
        )
        shape = tuple(e + 2 * ghost for e in reversed(extent))
        rng = np.random.default_rng(3)
        arr = rng.random(shape)
        want, got = np.zeros(shape), np.zeros(shape)
        full.execute(arr, want)
        if interior is not None:
            interior.execute(arr, got)
        surface.execute(arr, got)
        np.testing.assert_array_equal(got, want)


class TestRunPlanValidation:
    def test_splits_require_channels(self):
        from repro.core.runplan import RankRunPlan
        from repro.exchange.base import Exchanger

        class _FakeEngine:
            def exchange(self):  # pragma: no cover - never fired
                raise AssertionError

        assert not isinstance(_FakeEngine(), Exchanger)
        with pytest.raises(ValueError, match="exchange channels"):
            RankRunPlan(
                [_FakeEngine(), _FakeEngine()], [None], [object(), object()],
                1, splits=(None, None),
            )

    def test_splits_must_be_pair(self):
        from repro.core.runplan import RankRunPlan

        with pytest.raises(ValueError, match="pair"):
            RankRunPlan([], [None], [], 1, splits=(None, None, None))


class TestOverlapCostModel:
    def test_conserves_wait(self):
        for wait, icalc in ((1.0, 0.3), (0.2, 0.5), (0.0, 1.0)):
            visible, hidden = overlap_times(wait, icalc)
            assert visible + hidden == pytest.approx(wait)
            assert hidden <= icalc + 1e-15
            assert visible >= 0.0 and hidden >= 0.0

    def test_negative_inputs_clamp(self):
        assert overlap_times(-1.0, 1.0) == (-1.0, 0.0)
        assert overlap_times(1.0, -1.0) == (1.0, 0.0)
