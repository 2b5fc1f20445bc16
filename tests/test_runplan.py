"""Run-plan layer acceptance: one loop, every feature, same bits.

Every executed run replays through :meth:`RankRunPlan.run`
(:mod:`repro.core.runplan`); features attach to it as step hooks.  The
composition matrix below pins the contract that makes that safe: every
method under every feature is bit-identical to the serial reference and
reports the plain run's counters, through exactly one entry of the loop
per rank per launch.  Also here: resource lifetime across failed
launches, batched fabric semantics, and the compiled (C) kernel backend.
"""

import functools
import gc
import os
from contextlib import nullcontext

import numpy as np
import pytest

from repro import obs
from repro.core.driver import run_executed
from repro.core.geometry import RunGeometry
from repro.core.problem import StencilProblem
from repro.core.runplan import RankRunPlan
from repro.exchange.envelope import seal
from repro.faults import FaultPlan
from repro.simmpi.fabric import SimFabric
from repro.simmpi.launcher import RankFailedError
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import CUBE125, SEVEN_POINT

STEPS = 4
METHODS = ("layout", "basic", "memmap", "yask", "mpi_types", "shift")


def _problem(brick=8, stencil=SEVEN_POINT):
    return StencilProblem(
        global_extent=(32, 32, 32),
        rank_dims=(2, 2, 2),
        stencil=stencil,
        brick_dim=(brick,) * 3,
        ghost=8,
    )


def _run(method, problem=None, **kwargs):
    return run_executed(
        problem or _problem(), method, timesteps=STEPS, seed=0, **kwargs
    )


@functools.lru_cache(maxsize=None)
def _reference(steps=STEPS, stencil=SEVEN_POINT):
    return apply_periodic_reference(
        _problem().initial_global(0), stencil, steps
    )


class TestPlanBitExactness:
    @pytest.mark.parametrize("method", METHODS)
    def test_plans_match_legacy(self, method):
        """The replayed plan does what the retired per-step loop did:
        reference bits, and per exchange exactly the messages and bytes
        of the static message plan ``repro check`` verifies."""
        run = _run(method)
        np.testing.assert_array_equal(run.global_result, _reference())
        sends = RunGeometry(_problem(), method).plans[0].sends
        assert run.messages_per_rank == len(sends)
        assert run.wire_bytes_per_rank == sum(m.nbytes for m in sends)

    def test_plans_match_reference(self):
        np.testing.assert_array_equal(
            _run("layout").global_result, _reference()
        )

    def test_plans_match_with_exchange_period(self):
        # Multi-position cycles bind one stencil plan per position; an
        # "auto" period resolves to everything the ghost width supports
        # (fine bricks: a 2-step cycle).
        run = _run("layout", _problem(brick=4), exchange_period="auto")
        assert run.exchange_period == 2
        np.testing.assert_array_equal(run.global_result, _reference())

    def test_observed_run_matches_tight_loop(self):
        # Live observability rides the same loop; the answer and the
        # span structure must not depend on it.
        plain = _run("layout")
        with obs.observed():
            observed = _run("layout")
            spans = [ev.name for ev in obs.TRACER.events()]
        np.testing.assert_array_equal(
            observed.global_result, plain.global_result
        )
        # The channels really ran: batched posting spans are present.
        assert "exchange.post" in spans
        assert "exchange.wait" in spans
        for name in ("driver.step", "driver.exchange", "driver.calc"):
            assert spans.count(name) == _problem().nranks * STEPS


@pytest.fixture
def loop_entries(monkeypatch):
    """Spy: the rank of every :meth:`RankRunPlan.run` entry."""
    entered = []
    real = RankRunPlan.run

    def spy(self, *args, **kwargs):
        entered.append(self.rank)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(RankRunPlan, "run", spy)
    return entered


_PLAIN = {}


def _plain(method):
    """The featureless run of *method*, once per session."""
    if method not in _PLAIN:
        _PLAIN[method] = _run(method)
    return _PLAIN[method]


# feature -> run_executed keyword arguments (tmp_path filled in per test)
FEATURES = {
    "plain": {},
    "observed": {},  # tracing and metrics on, see below
    "checkpoint": {"checkpoint_dir": True, "checkpoint_period": 2},
    "verify_wire": {"verify_wire": True},
    "chaos": {
        "fault_plan": FaultPlan(seed=3, drop=0.01, corrupt=0.01),
        "fabric_timeout": 10.0,
    },
    "crash_restart": {
        "fault_plan": FaultPlan(seed=1, crashes=((1, 2),)),
        "checkpoint_dir": True,
        "checkpoint_period": 1,
        "fabric_timeout": 15.0,
    },
    "period2": {"exchange_period": 2},
}


class TestComposition:
    """method x feature: same bits, same counters, same loop."""

    @pytest.mark.parametrize("feature", FEATURES)
    @pytest.mark.parametrize("method", METHODS)
    def test_feature_composes(self, method, feature, tmp_path, loop_entries):
        kwargs = dict(FEATURES[feature])
        if kwargs.get("checkpoint_dir"):
            kwargs["checkpoint_dir"] = tmp_path
        # A 2-step cycle at brick granularity needs ghost = 2 bricks.
        problem = _problem(brick=4) if feature == "period2" else _problem()
        plain = _plain(method)
        del loop_entries[:]
        with obs.observed() if feature == "observed" else nullcontext():
            run = _run(method, problem, **kwargs)

        np.testing.assert_array_equal(run.global_result, _reference())
        launches = 1 + run.restarts
        assert run.restarts == (1 if feature == "crash_restart" else 0)
        if feature == "chaos":
            events = run.faults["events"]
            assert events["healed"] == events["retry"] > 0
            assert events["injected_drop"] > 0 and events["injected_corrupt"] > 0
            assert run.fabric.pending_messages == 0
        assert sorted(loop_entries) == sorted(
            list(range(problem.nranks)) * launches
        )
        if feature == "period2":
            # Another brick size is another layout: only the cadence is
            # comparable with the plain run.
            assert run.exchange_period == 2
            return
        assert run.messages_per_rank == plain.messages_per_rank
        assert run.wire_bytes_per_rank == plain.wire_bytes_per_rank
        assert run.mapping_count == plain.mapping_count
        for got, want in zip(run.metrics.ranks, plain.metrics.ranks):
            assert got.totals.as_dict() == want.totals.as_dict()

    @pytest.mark.parametrize("method", ["layout", "memmap", "yask", "mpi_types"])
    def test_heals_on_all_26_neighbours(self, method):
        # 125-pt reads edge and corner ghosts: an enveloped, faulted run
        # must heal every one of them.
        problem = _problem(stencil=CUBE125)
        plain = run_executed(problem, method, timesteps=2, seed=0)
        run = run_executed(
            problem, method, timesteps=2, seed=0,
            fault_plan=FaultPlan(seed=5, drop=0.05, corrupt=0.05, duplicate=0.05),
            fabric_timeout=10.0,
        )
        np.testing.assert_array_equal(
            run.global_result, _reference(2, CUBE125)
        )
        events = run.faults["events"]
        assert events["healed"] == events["retry"] > 0
        assert events["duplicate_discarded"] == events["injected_duplicate"] > 0
        assert run.fabric.pending_messages == 0
        assert run.messages_per_rank == plain.messages_per_rank
        assert run.wire_bytes_per_rank == plain.wire_bytes_per_rank
        assert run.mapping_count == plain.mapping_count


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
            checkpoint_period=1, fabric_timeout=15.0,
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
                "memmap", fabric_timeout=15.0,
                fault_plan=FaultPlan(seed=3, drop=0.02, corrupt=0.02),
            )
            assert run.faults["events"]["healed"] > 0
            assert _maps_and_fds() == before
        finally:
            gc.enable()

    def test_run_that_raises(self, tmp_path):
        before = self._steady(tmp_path)
        with pytest.raises(RankFailedError):
            _run("memmap", fault_plan=self.CRASH, fabric_timeout=15.0)
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


class TestBatchedFabric:
    def test_batch_roundtrip_matches_payload(self):
        fabric = SimFabric(2, timeout=5.0)
        rng = np.random.default_rng(0)
        sends = [rng.random(16), rng.random(8)]
        outs = [np.zeros(16), np.zeros(8)]
        sender = fabric.bind_request(
            0, [(1, 11, sends[0]), (1, 12, sends[1])], []
        )
        receiver = fabric.bind_request(
            1, [], [(0, 11, outs[0]), (0, 12, outs[1])]
        )
        fabric.post_send_batch(sender)
        fabric.complete_recv_batch(receiver)
        fabric.wait_send_batch(sender)
        np.testing.assert_array_equal(outs[0], sends[0])
        np.testing.assert_array_equal(outs[1], sends[1])

    def test_envelope_fabric_refuses_batches(self):
        # ... that skip the sequence/CRC machinery: a verified fabric
        # never silently bypasses it, even for a request bound before
        # ``enable_envelope()`` -- its items are sealed at post time and
        # verified where they land, like any other's.
        fabric = SimFabric(2, timeout=5.0)
        buf, out = np.arange(4.0), np.zeros(4)
        sender = fabric.bind_request(0, [(1, 7, buf)], [])
        receiver = fabric.bind_request(1, [], [(0, 7, out)])
        fabric.enable_envelope()
        fabric.post_send_batch(sender)
        ((_key, _view, env, _wire),) = fabric._ports[1].items([0])
        assert env == seal(buf, seq=1)
        buf[0] = -1.0  # changed in flight: the landed bytes do not verify
        with pytest.raises(RuntimeError, match="checksum mismatch"):
            fabric.complete_recv_batch(receiver)
        assert fabric.stats[1].recvs == 0 and fabric.pending_messages == 1


class TestChaosComposition:
    def test_fault_seeded_runs_identical_with_plans(self):
        # A fault seed fixes the schedule: the same plan twice heals the
        # same way, event for event and bit for bit.
        plan = FaultPlan(seed=3, drop=0.04, corrupt=0.04)
        first, second = (
            run_executed(
                _problem(), "memmap", timesteps=2, seed=0, fault_plan=plan,
                fabric_timeout=10.0,
            )
            for _ in range(2)
        )
        np.testing.assert_array_equal(
            first.global_result, second.global_result
        )
        assert (
            first.faults["schedule_digest"] == second.faults["schedule_digest"]
        )
        assert first.faults["events"] == second.faults["events"]


class TestCheckpointComposition:
    def test_crash_resume_with_plans_bit_exact(self, tmp_path):
        base = _plain("layout")
        plan = FaultPlan(seed=1, crashes=((1, 2),))
        run = _run(
            "layout", fault_plan=plan, checkpoint_dir=tmp_path,
            checkpoint_period=1, fabric_timeout=15.0,
        )
        assert run.restarts == 1
        assert run.faults["events"].get("restarted") == 1
        np.testing.assert_array_equal(run.global_result, base.global_result)
        assert run.messages_per_rank == base.messages_per_rank
        assert run.wire_bytes_per_rank == base.wire_bytes_per_rank

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
        np.testing.assert_array_equal(resumed.global_result, _reference())


class TestKernelBackends:
    def _plan_under(self, monkeypatch, backend):
        from repro.brick.decomp import BrickDecomp
        from repro.stencil.plan import compile_brick_plan

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
        decomp = BrickDecomp((16, 16, 16), (8, 8, 8), 8)
        src, asn = decomp.allocate()
        dst, _ = decomp.allocate()
        src.data[:] = np.random.default_rng(0).random(src.data.shape)
        info = decomp.brick_info(asn)
        slots = decomp.compute_slots(asn)
        plan = compile_brick_plan(SEVEN_POINT, info, slots)
        plan.execute(src, dst)
        return plan, dst.data.copy()

    def test_c_and_numpy_backends_bit_identical(self, monkeypatch):
        from repro.stencil.cbackend import _compiler, cffi

        if cffi is None or _compiler() is None:
            pytest.skip("no C toolchain in this environment")
        plan_np, out_np = self._plan_under(monkeypatch, "numpy")
        plan_c, out_c = self._plan_under(monkeypatch, "cffi")
        assert plan_np._ckernel is None
        assert plan_c._ckernel is not None
        np.testing.assert_array_equal(out_c, out_np)

    def test_backend_choice_validation(self, monkeypatch):
        from repro.stencil.cbackend import backend_choice

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "fortran")
        with pytest.raises(ValueError, match="REPRO_KERNEL_BACKEND"):
            backend_choice()

    def test_cffi_forced_rejects_non_float64(self, monkeypatch):
        from repro.stencil.cbackend import batch_step_kernel

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cffi")
        with pytest.raises(RuntimeError, match="float64"):
            batch_step_kernel(
                SEVEN_POINT.taps, (8, 8, 8), SEVEN_POINT.radius, 0, 512,
                np.float32,
            )

    def test_auto_skips_non_float64(self, monkeypatch):
        from repro.stencil.cbackend import batch_step_kernel

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "auto")
        assert batch_step_kernel(
            SEVEN_POINT.taps, (8, 8, 8), SEVEN_POINT.radius, 0, 512,
            np.float32,
        ) is None

    def test_numpy_forced_run_still_bit_exact(self, monkeypatch):
        # The whole-run contract holds on the pure-NumPy fallback too.
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        np.testing.assert_array_equal(
            _run("layout").global_result, _reference()
        )
