"""The degradation ladder: MemMap -> basic Layout -> staged brick packing.

Demotion is collective (allreduce vote) and changes only the exchange
engine -- storage, assignment, and the numerical answer stay identical,
so every test here gates on bit-exact agreement with the serial
reference.
"""

import dataclasses

import numpy as np
import pytest

from repro.brick.decomp import BrickDecomp
from repro.core.driver import run_executed
from repro.core.geometry import RunGeometry
from repro.core.problem import StencilProblem
from repro.exchange.brickpack import BrickPackExchanger, brickpack_template
from repro.exchange.layout_ex import LayoutExchanger, layout_template
from repro.faults import FaultPlan
from repro.hardware.profiles import generic_host
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
                           seed=0, degrade=True, fabric_timeout=10.0)
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
                         seed=0, fabric_timeout=10.0)


class TestMidRunDegradation:
    def test_single_demotion_to_basic(self):
        problem = _problem()
        plan = FaultPlan(seed=2, degrade=((3, 1),))
        run = run_executed(problem, "memmap", timesteps=STEPS, seed=0,
                           fault_plan=plan, fabric_timeout=10.0)
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
                           fault_plan=FaultPlan(seed=2, degrade=((3, 1),)),
                           fabric_timeout=10.0)
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

    def test_full_ladder_to_brickpack(self):
        problem = _problem()
        steps = 3
        plan = FaultPlan(seed=2, degrade=((1, 1), (5, 2)))
        run = run_executed(problem, "memmap", timesteps=steps, seed=0,
                           fault_plan=plan, fabric_timeout=10.0)
        assert run.final_method == "brickpack"
        assert run.demotions == 2 * problem.nranks
        np.testing.assert_array_equal(
            run.global_result, _reference(problem, steps)
        )

    def test_degraded_run_matches_healthy_run(self):
        problem = _problem()
        healthy = run_executed(problem, "memmap", timesteps=STEPS, seed=0)
        degraded = run_executed(
            problem, "memmap", timesteps=STEPS, seed=0,
            fault_plan=FaultPlan(seed=4, degrade=((0, 1),)),
            fabric_timeout=10.0,
        )
        np.testing.assert_array_equal(
            healthy.global_result, degraded.global_result
        )


class TestLadderEngines:
    """The two fallback engines work directly on MemMap's padded storage."""

    @staticmethod
    def _rank_probe(comm, problem, page):
        cart = comm.Create_cart(
            problem.rank_dims, periods=[problem.periodic] * problem.ndim
        )
        profile = generic_host()
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

        def plan(template):
            return template.for_rank(cart.rank, cart.dims, cart.periods)

        basic = LayoutExchanger(
            cart, plan(layout_template(decomp, asn, merge_runs=False)),
            storage, profile,
        )
        out["basic_method"] = basic.method
        pack = BrickPackExchanger(
            cart, plan(brickpack_template(decomp, asn)), storage, profile
        )
        out["pack_method"] = pack.method
        out["pack_messages"] = len(pack.plan.sends)
        out["basic_messages"] = len(basic.plan.sends)
        pack.exchange()  # all ranks exchange: must complete, not deadlock
        storage.close()
        return out

    def test_fallback_engines_on_padded_storage(self):
        problem = _problem()
        # An 8^3 double brick is exactly 4096 bytes: double the page so
        # slots really are padded (alignment > 1).
        page = 2 * generic_host().page_size
        outs = run_spmd(
            problem.nranks, self._rank_probe, problem, page, timeout=10.0
        )
        for out in outs:
            assert out["merged_raised"] is True
            assert out["basic_method"] == "basic"
            assert out["pack_method"] == "brickpack"
            # One staged message per neighbor; basic Layout sends one per
            # contiguous section, so it is never the cheaper engine.
            assert 0 < out["pack_messages"] <= out["basic_messages"]
