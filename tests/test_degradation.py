"""The degradation ladder: one demotion, MemMap -> basic Layout.

Demotion is collective (allreduce vote) and changes only the exchange
engine -- storage, assignment, and the numerical answer stay identical,
so every test here gates on bit-exact agreement with the serial
reference.  A basic binding that fails ends the run, and a request the
ladder could never act on is refused before launch.
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.brick.decomp import BrickDecomp
import repro.core.driver as driver
from repro.ckpt import CheckpointError
from repro.core.driver import run_executed
from repro.core.geometry import RunGeometry
from repro.core.problem import StencilProblem
from repro.exchange.layout_ex import LayoutExchanger, layout_template
from repro.faults import FaultPlan
from repro.hardware.profiles import generic_host
from repro.simmpi.fabric import AbortedError
from repro.simmpi.launcher import run_spmd
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import SEVEN_POINT

STEPS = 2


def _problem():
    return StencilProblem(
        global_extent=(32, 32, 32),
        rank_dims=(2, 2, 2),
        stencil=SEVEN_POINT,
        brick_dim=(8, 8, 8),
        ghost=8,
    )


def _reference(problem, steps):
    return apply_periodic_reference(
        problem.initial_global(0), SEVEN_POINT, steps
    )


class TestSetupDemotion:
    def test_mmap_budget_overflow_demotes_at_setup(self):
        # A profile whose vm.max_map_count stand-in cannot hold the
        # exchange views: MemMap construction fails on every rank, and
        # the ladder demotes to basic Layout before the first step.
        problem = _problem()
        tiny = dataclasses.replace(generic_host(), mmap_limit=4)
        run = run_executed(problem, "memmap", profile=tiny, timesteps=STEPS,
                           seed=0, degrade=True)
        assert run.final_method == "basic"
        assert run.demotions == problem.nranks
        assert run.mapping_count == 0  # no live views after demotion
        np.testing.assert_array_equal(
            run.global_result, _reference(problem, STEPS)
        )

    def test_without_degrade_flag_budget_overflow_raises(self):
        problem = _problem()
        tiny = dataclasses.replace(generic_host(), mmap_limit=4)
        with pytest.raises(RuntimeError, match="mappings"):
            run_executed(problem, "memmap", profile=tiny, timesteps=STEPS,
                         seed=0)

    def test_failing_basic_binding_exhausts_the_ladder(self, monkeypatch):
        """MemMap overflows its mapping budget and basic cannot bind
        either: there is no rung below, so every rank ends -- with the
        exhausted-ladder error, or the abort a peer's raised -- and none
        waits out the fabric timeout."""

        def refuse(self, storage, tables):
            raise OSError("injected: basic cannot bind")

        outcomes = {}
        rank_fn = driver._rank_fn

        def recording(comm, *args):
            try:
                return rank_fn(comm, *args)
            except BaseException as exc:
                outcomes[comm.rank] = exc
                raise

        monkeypatch.setattr(LayoutExchanger, "_bind", refuse)
        monkeypatch.setattr(driver, "_rank_fn", recording)
        problem = _problem()
        tiny = dataclasses.replace(generic_host(), mmap_limit=4)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="ladder exhausted") as err:
            run_executed(problem, "memmap", profile=tiny, timesteps=STEPS,
                         seed=0, degrade=True)
        assert time.monotonic() - start < 10.0
        assert "basic Layout exchange failed to bind" in str(err.value.__cause__)
        assert sorted(outcomes) == list(range(problem.nranks))
        for exc in outcomes.values():
            assert isinstance(exc, AbortedError) or (
                "ladder exhausted" in str(exc)
            ), exc


class TestMidRunDegradation:
    def test_single_demotion_to_basic(self):
        problem = _problem()
        plan = FaultPlan(seed=2, degrade=((3, 1),))
        run = run_executed(problem, "memmap", timesteps=STEPS, seed=0,
                           fault_plan=plan)
        assert run.final_method == "basic"
        assert run.demotions == problem.nranks
        events = run.faults["events"]
        assert events["vmem_fault"] == 1  # only rank 3 probed and failed
        assert events["demoted"] == problem.nranks  # but all ranks demote
        np.testing.assert_array_equal(
            run.global_result, _reference(problem, STEPS)
        )

    def test_demoted_run_is_priced_engine_by_engine(self):
        """Demoted after one exchange: the run fired one MemMap and five
        Basic exchanges, and is priced as exactly that -- not as six
        MemMap exchanges."""
        problem = _problem()
        run = run_executed(problem, "memmap", timesteps=6, seed=0,
                           fault_plan=FaultPlan(seed=2, degrade=((3, 1),)))
        geometry = RunGeometry(problem, "memmap")
        for rank, ledger in enumerate(run.metrics.ranks):
            fired = [geometry.schedule("memmap")[1][rank]]
            fired += [geometry.schedule("basic")[1][rank]] * 5
            for phase in ("call", "wait"):
                want = 0.0
                for res in fired:
                    want += getattr(res.breakdown, phase)
                assert getattr(ledger.totals, phase) == want
            assert ledger.messages == sum(r.messages_sent for r in fired)
        assert run.messages_per_rank == run.metrics.ranks[0].messages // 6

    def test_degraded_run_matches_healthy_run(self):
        problem = _problem()
        healthy = run_executed(problem, "memmap", timesteps=STEPS, seed=0)
        degraded = run_executed(
            problem, "memmap", timesteps=STEPS, seed=0,
            fault_plan=FaultPlan(seed=4, degrade=((0, 1),)),
        )
        np.testing.assert_array_equal(
            healthy.global_result, degraded.global_result
        )

    def test_event_off_the_exchange_steps_is_refused(self):
        # Exchange period 2: the vote runs at even steps only, so rank
        # 3's event at step 1 could never fire.
        problem = StencilProblem((64, 64, 64), (2, 2, 2), SEVEN_POINT,
                                 brick_dim=(8, 8, 8), ghost=16)
        with pytest.raises(ValueError, match=r"steps \[1\] never fire"):
            run_executed(problem, "memmap", timesteps=4, exchange_period=2,
                         fault_plan=FaultPlan(seed=2, degrade=((3, 1),)))

    def test_events_on_a_second_step_are_refused(self):
        # The first event demotes to basic, the last rung: one at a
        # later step could never fire.
        plan = FaultPlan(seed=2, degrade=((1, 1), (5, 2)))
        with pytest.raises(ValueError, match="later ones never fire"):
            run_executed(_problem(), "memmap", timesteps=3, fault_plan=plan)

    def test_votes_once_at_the_degrade_step(self, monkeypatch):
        """Every rank agrees once on its set-up binding; with no event
        nothing else is collective, and an event at step 4 adds one vote
        and the agreement on the basic binding -- not a vote per step."""
        problem = _problem()
        calls, real = [], driver.allreduce
        monkeypatch.setattr(
            driver, "allreduce", lambda *a: calls.append(1) or real(*a)
        )
        run = run_executed(problem, "memmap", timesteps=6, seed=0,
                           degrade=True)
        assert (len(calls), run.final_method) == (problem.nranks, "memmap")
        calls.clear()
        run = run_executed(problem, "memmap", timesteps=6, seed=0,
                           fault_plan=FaultPlan(seed=2, degrade=((3, 4),)))
        assert len(calls) == 3 * problem.nranks
        assert (run.final_method, run.demotions) == ("basic", problem.nranks)
        assert run.faults["events"] == {"demoted": problem.nranks, "vmem_fault": 1}
        np.testing.assert_array_equal(run.global_result, _reference(problem, 6))

    def test_resumed_level_beyond_the_ladder_is_refused(
        self, monkeypatch, tmp_path
    ):
        """A snapshot holding a ladder level this ladder lacks (a tree
        with more rungs wrote it) is refused on resume, not indexed."""
        ckpt_meta = driver._ckpt_meta

        def two_demotions(*args):
            return {**ckpt_meta(*args), "ladder_level": 2}

        kwargs = dict(seed=0, degrade=True, checkpoint_dir=tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(driver, "_ckpt_meta", two_demotions)
            run_executed(_problem(), "memmap", timesteps=STEPS, **kwargs)
        with pytest.raises(RuntimeError) as err:
            run_executed(_problem(), "memmap", timesteps=STEPS + 1,
                         resume=True, **kwargs)
        assert isinstance(err.value.__cause__, CheckpointError)
        assert "ladder level 2" in str(err.value.__cause__)


class TestLadderEngines:
    """The demotion target works directly on MemMap's padded storage."""

    @staticmethod
    def _rank_probe(comm, problem, page):
        cart = comm.Create_cart(
            problem.rank_dims, periods=[problem.periodic] * problem.ndim
        )
        decomp = BrickDecomp(
            problem.subdomain_extent, problem.brick_dim, problem.ghost,
            problem.layout, problem.dtype,
        )
        storage, asn = decomp.mmap_alloc(page)
        out = {}
        # Run-merged Layout needs unpadded storage; the demotion target
        # (merge_runs=False) must accept the padded MemMap storage as-is.
        try:
            layout_template(decomp, asn, merge_runs=True)
            out["merged_raised"] = False
        except ValueError:
            out["merged_raised"] = True
        plan = layout_template(decomp, asn, merge_runs=False).for_rank(
            cart.rank, cart.dims, cart.periods
        )
        basic = LayoutExchanger(cart, plan, storage, generic_host())
        out["basic_method"] = basic.method
        basic.exchange()  # all ranks exchange: must complete, not deadlock
        storage.close()
        return out

    def test_fallback_engines_on_padded_storage(self):
        problem = _problem()
        # An 8^3 double brick is exactly 4096 bytes: double the page so
        # slots really are padded (alignment > 1).
        page = 2 * generic_host().page_size
        outs = run_spmd(problem.nranks, self._rank_probe, problem, page)
        for out in outs:
            assert out["merged_raised"] is True
            assert out["basic_method"] == "basic"
