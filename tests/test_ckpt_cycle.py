"""Restart at every cycle position: a snapshot holds what a restore at
its step reads, and a resumed run is bit-identical to an uninterrupted
one wherever in the exchange cycle it was taken.

Exchange period 2 (4^3 bricks, ghost 8): even steps exchange, odd steps
sweep the redundantly computed ghost margin.  At an exchange-step epoch
the received ghost sections are dead -- the step's exchange rewrites
them -- and a snapshot leaves them out; at a mid-cycle epoch the margin
is what the next sweep reads, and a snapshot must hold it.

The 2 x 2 x 1 world makes every rank a neighbour of every other, so a
crash at the step after an epoch pins the epoch the world resumes from:
the crashing rank commits nothing later, and every rank committed the
epoch before the crashing rank got there.  An exchange-step epoch is
committed before that step's exchange posts; a mid-cycle epoch before
a rank's sweep returns from waiting on the sends of the exchange that
opened the cycle.
"""

import numpy as np
import pytest

from repro.ckpt import CheckpointStore
from repro.core.driver import run_executed
from repro.core.problem import StencilProblem
from repro.faults import FaultPlan
from repro.stencil.spec import SEVEN_POINT

PERIOD = 2
STEPS = 8
CRASH_RANK = 1

#: (checkpoint period, where the resumed epoch sits) -> resumed epoch;
#: the crash comes at the next step (mid-cycle after an exchange-step
#: epoch, at an exchange step after a mid-cycle one).
EPOCHS = {
    (1, "exchange"): 4,
    (1, "mid"): 3,
    (3, "exchange"): 6,
    (3, "mid"): 3,
}


def _problem(periodic=True):
    return StencilProblem(
        global_extent=(32, 32, 16),
        rank_dims=(2, 2, 1),
        stencil=SEVEN_POINT,
        brick_dim=(4, 4, 4),
        ghost=8,
        periodic=periodic,
    )


_BASELINES = {}


def _baseline(method, periodic=True):
    key = (method, periodic)
    if key not in _BASELINES:
        _BASELINES[key] = run_executed(
            _problem(periodic), method, timesteps=STEPS, seed=0,
            exchange_period=PERIOD,
        )
    return _BASELINES[key]


def _crash_resume(tmp_path, method, ckpt_period, at, *, periodic=True,
                  degrade=()):
    """Crash once so the world resumes from the epoch ``EPOCHS`` names;
    checks the resumed run against the uninterrupted one (demoted at
    the same steps, when *degrade* asks for it)."""
    epoch = EPOCHS[ckpt_period, at]
    crash = epoch + 1
    assert (crash % PERIOD == 0) == (at == "mid")
    kwargs = dict(
        timesteps=STEPS, seed=0, exchange_period=PERIOD, fabric_timeout=15.0,
    )
    run = run_executed(
        _problem(periodic), method,
        fault_plan=FaultPlan(seed=3, crashes=((CRASH_RANK, crash),), degrade=degrade),
        checkpoint_dir=tmp_path, checkpoint_period=ckpt_period, **kwargs,
    )
    if degrade:
        base = run_executed(
            _problem(periodic), method,
            fault_plan=FaultPlan(seed=3, degrade=degrade), **kwargs,
        )
    else:
        base = _baseline(method, periodic)
    assert (run.restarts, run.resumed_epoch) == (1, epoch)
    np.testing.assert_array_equal(run.global_result, base.global_result)
    for r0, r1 in zip(base.metrics.ranks, run.metrics.ranks):
        assert r0.totals.as_dict() == r1.totals.as_dict()
    assert run.messages_per_rank == base.messages_per_rank
    return run, CheckpointStore(tmp_path)


def _held(store, rank, epoch):
    """Section names the snapshot of *rank* at *epoch* holds."""
    man = store.manifest(rank, epoch)
    return [s[0] for run in man["runs"] for s in run["sections"]]


def _assert_holds_what_restore_reads(store, method, periodic=True):
    """No received ghost section at an exchange-step epoch; the ghost
    margin at a mid-cycle one; an array rank's one ``array`` run."""
    ranks = store.ranks()
    epochs = store.consistent_epochs(len(ranks))
    assert {e % PERIOD for e in epochs} == {0, 1}, epochs
    for rank in ranks:
        ghosts = {}
        for epoch in epochs:
            held = _held(store, rank, epoch)
            if method == "yask":
                assert held == ["array"]
                continue
            assert "interior" in held or any(n.startswith("surface:") for n in held)
            ghosts[epoch] = {n for n in held if n.startswith("ghost:")}
        if method == "yask":
            continue
        mid = [ghosts[e] for e in epochs if e % PERIOD]
        exch = [ghosts[e] for e in epochs if not e % PERIOD]
        assert all(g for g in mid) and len({frozenset(g) for g in mid}) == 1
        for g in exch:
            if periodic:
                assert not g
            else:
                # Open faces: the ghosts no neighbour sends into stay.
                assert g and g < mid[0]


class TestRestartAtEveryCyclePosition:
    @pytest.mark.parametrize("at", ["exchange", "mid"])
    @pytest.mark.parametrize("ckpt_period", [1, 3])
    @pytest.mark.parametrize("method", ["layout", "memmap", "yask"])
    def test_resumed_run_matches_uninterrupted(
        self, tmp_path, method, ckpt_period, at
    ):
        _, store = _crash_resume(tmp_path, method, ckpt_period, at)
        if ckpt_period == 1:
            _assert_holds_what_restore_reads(store, method)

    @pytest.mark.parametrize("at", ["exchange", "mid"])
    @pytest.mark.parametrize("method", ["layout", "memmap", "yask"])
    def test_open_boundaries(self, tmp_path, method, at):
        _, store = _crash_resume(tmp_path, method, 1, at, periodic=False)
        _assert_holds_what_restore_reads(store, method, periodic=False)

    @pytest.mark.parametrize("at", ["exchange", "mid"])
    def test_across_a_memmap_ladder_demotion(self, tmp_path, at):
        # Demoted at step 2 (MemMap -> basic Layout over the same padded
        # storage), crashed after: the resumed world binds the restored
        # rung, whose receives cover the same ghost sections.
        run, store = _crash_resume(
            tmp_path, "memmap", 1, at, degrade=((2, 2),)
        )
        assert run.demotions > 0 and run.final_method == "basic"
        _assert_holds_what_restore_reads(store, "memmap")


class TestTheCommitCounted:
    def test_strong16_layout_exchange_step_save_is_one_owned_run(
        self, tmp_path, monkeypatch
    ):
        """On the ``strong16`` geometry a Layout save at an exchange step
        is one run of 32 768 B (the 8 owned bricks): one write call, two
        fsyncs, one rename."""
        import os

        problem = StencilProblem((32, 32, 32), (2, 2, 2), SEVEN_POINT, (8, 8, 8), 8)
        calls = {"fsync": 0, "replace": 0, "writev": 0}
        for name in calls:
            real = getattr(os, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(os, name, counted)
        run = run_executed(
            problem, "layout", timesteps=2, seed=0,
            checkpoint_dir=tmp_path, checkpoint_period=1,
        )
        assert run.checkpoint_saves == 1
        assert calls == {"fsync": 2 * 8, "replace": 8, "writev": 8}
        store = CheckpointStore(tmp_path)
        for rank in range(8):
            man = store.manifest(rank, 1)
            assert [(r["nbytes"], len(r["sections"])) for r in man["runs"]] == [
                (32768, 8)
            ]
            assert man["data_bytes"] == 32768
