"""A rank-step at the cost of its copy and its kernel.

Two things a plain step no longer pays for per call: the kernel call's
casts and checks (a plan checks a buffer pair the first time it sees it
and binds the C call over its raw addresses), and span objects (the run
loop and the channel stamp their phase boundaries, which the ledger
measures from and the tracer rebuilds its spans from after the run).
"""

import numpy as np
import pytest

from repro import obs
from repro.brick.decomp import BrickDecomp
from repro.core.driver import run_executed
from repro.core.problem import StencilProblem
from repro.stencil.brick_kernels import apply_brick_stencil
from repro.stencil.kernels import apply_array_stencil
from repro.stencil.plan import compile_array_plan, compile_brick_plan
from repro.stencil.spec import CUBE125, SEVEN_POINT


def same_bits(got, ref):
    np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


def _storages(decomp, n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        storage = decomp.allocate()[0]
        storage.data[:] = rng.random(storage.data.shape)
        out.append(storage)
    return out


@pytest.fixture(params=["bounds-off", "bounds-on"])
def guard(request, monkeypatch):
    """Both kernel variants: the bound partial, and the guarded step
    every call still goes through under ``REPRO_CC_BOUNDS=1``."""
    monkeypatch.setenv("REPRO_CC_BOUNDS", "1" if request.param == "bounds-on" else "0")
    return request.param


class TestBoundBrickCall:
    @pytest.mark.parametrize("spec", [SEVEN_POINT, CUBE125], ids=["7pt", "125pt"])
    def test_alternating_pairs_match_the_generic_kernel(self, spec, guard):
        """Two steps each way over one pair of storages, as a run
        alternates them: the same bits as the generic kernel."""
        decomp = BrickDecomp((16, 16, 16), (8, 8, 8), 8)
        info, slots = decomp.brick_info(), decomp.compute_slots()
        a, b = _storages(decomp, 2, seed=1)
        ra, rb = _storages(decomp, 2, seed=1)
        plan = compile_brick_plan(spec, info, slots)
        for src, dst, rsrc, rdst in ((a, b, ra, rb), (b, a, rb, ra)) * 2:
            plan.execute(src, dst)
            apply_brick_stencil(spec, rsrc, rdst, info, slots)
            same_bits(dst.data, rdst.data)
        assert len(plan._bound) == 2

    def test_new_pair_rebinds(self):
        """A pair the plan has not seen is bound afresh: the step reads
        the new source and writes the new destination, not the
        addresses bound before."""
        decomp = BrickDecomp((16, 16, 16), (8, 8, 8), 8)
        info, slots = decomp.brick_info(), decomp.compute_slots()
        a, b, c, d, ref = _storages(decomp, 5, seed=2)
        plan = compile_brick_plan(SEVEN_POINT, info, slots)
        plan.execute(a, b)
        before = b.data.copy()
        plan.execute(c, d)
        apply_brick_stencil(SEVEN_POINT, c, ref, info, slots)
        same_bits(d.data[slots], ref.data[slots])
        same_bits(b.data, before)
        assert len(plan._bound) == 2
        plan.execute(d, c)  # a third pair starts the cache over
        assert len(plan._bound) == 1

    def test_refused_the_first_time_and_never_bound(self):
        decomp = BrickDecomp((16, 16, 16), (8, 8, 8), 8)
        info, slots = decomp.brick_info(), decomp.compute_slots()
        a, b = _storages(decomp, 2, seed=3)
        other = BrickDecomp((16, 16, 16), (4, 4, 4), 4).allocate()[0]
        plan = compile_brick_plan(SEVEN_POINT, info, slots)
        with pytest.raises(ValueError, match="distinct"):
            plan.execute(a, a)
        with pytest.raises(ValueError, match="element bricks"):
            plan.execute(a, other)
        assert plan._bound == {}
        plan.execute(a, b)
        assert list(plan._bound) == [(id(a), id(b))]


class TestBoundArrayCall:
    def test_alternating_pairs_match_the_generic_kernel(self, guard):
        extent, ghost = (12, 10, 8), 2
        shape = tuple(e + 2 * ghost for e in reversed(extent))
        rng = np.random.default_rng(4)
        a, b = rng.random(shape), rng.random(shape)
        ra, rb = a.copy(), b.copy()
        plan = compile_array_plan(SEVEN_POINT, extent, ghost)
        for src, dst, rsrc, rdst in ((a, b, ra, rb), (b, a, rb, ra)) * 2:
            plan.execute(src, dst)
            apply_array_stencil(rsrc, rdst, SEVEN_POINT, extent, ghost)
            same_bits(dst, rdst)
        assert len(plan._bound) == 2

    def test_refused_the_first_time_and_never_bound(self):
        extent, ghost = (8, 8, 8), 2
        shape = (12, 12, 12)
        arr, out = np.zeros(shape), np.zeros(shape)
        plan = compile_array_plan(SEVEN_POINT, extent, ghost)
        with pytest.raises(ValueError, match="distinct"):
            plan.execute(arr, arr)
        with pytest.raises(ValueError, match="extended shape"):
            plan.execute(arr, np.zeros((12, 12, 13)))
        frozen = np.zeros(shape)
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            plan.execute(arr, frozen)
        assert plan._bound == {}
        plan.execute(arr, out)
        assert len(plan._bound) == 1


def _problem():
    return StencilProblem((32, 32, 32), (2, 2, 2), SEVEN_POINT, (8, 8, 8), ghost=8)


class TestStampedRun:
    def test_untraced_run_opens_no_span_per_step(self, monkeypatch):
        """What an untraced plain run asks the tracer for does not grow
        with its steps: the step path is stamped, not spanned."""
        calls = []
        real = obs.TRACER.span

        def counting(name, *args, **kwargs):
            calls.append(name)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(obs.TRACER, "span", counting)
        counts = {}
        for steps in (2, 6):
            del calls[:]
            run_executed(_problem(), "layout", timesteps=steps)
            counts[steps] = len(calls)
        assert counts[2] == counts[6]
        assert not {"driver.step", "exchange.post", "fabric.recv"} & set(calls)

    @pytest.mark.parametrize("method", ["layout", "memmap", "yask"])
    def test_measured_pack_is_the_papers_asymmetry(self, method):
        """The pack-free methods measure exactly zero pack time -- no
        stamp is taken for a region they do not have -- and YASK's pack
        and unpack take time; every method measures calc, call and
        wait."""
        run = run_executed(_problem(), method, timesteps=3)
        for ledger in run.metrics.ranks:
            measured = ledger.measured
            if method == "yask":
                assert measured.pack > 0.0
            else:
                assert measured.pack == 0.0
            assert min(measured.calc, measured.call, measured.wait) > 0.0

    @pytest.mark.parametrize("method", ["layout", "yask"])
    def test_trace_is_rebuilt_from_the_ledgers_stamps(self, method):
        """A traced run's spans and its ledger come from the same
        stamps: per rank, the ``driver.calc`` spans add up to the
        measured calc and the ``exchange.post`` spans to the measured
        call (to the nanosecond the spans round to)."""
        with obs.observed() as tracer:
            run = run_executed(_problem(), method, timesteps=3)
        events = tracer.events()
        obs.TRACER.clear()
        for ledger in run.metrics.ranks:
            for name, phase in (("driver.calc", "calc"), ("exchange.post", "call")):
                spans = [
                    ev.dur_ns for ev in events
                    if ev.rank == ledger.rank and ev.name == name
                ]
                assert len(spans) == 3
                assert sum(spans) / 1e9 == pytest.approx(
                    getattr(ledger.measured, phase), abs=1e-8
                )
