"""Shift over bound cuts: one cut per axis, fired in axis order.

Shift's exchange has three rounds: axis *d+1* packs faces that include
the ghost bands axis *d* just received (corner forwarding).  Each round
is one bound cut of the fabric, and the round's receive completing is
the only synchronisation between rounds.  These worlds are the ones
where that is easiest to get wrong: on 2 x 2 x 2 ranks one peer is both
neighbours of an axis, on 1 x 1 x 1 every deposit goes to the sending
rank itself, and on open boundaries some faces have no partner.
"""

import numpy as np
import pytest

from repro.core.driver import run_executed
from repro.core.geometry import RunGeometry
from repro.core.problem import StencilProblem
from repro.faults import FaultPlan
from repro.simmpi.fabric import SimFabric
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import SEVEN_POINT

STEPS = 3

#: world name -> (rank grid, periodic, messages per rank per exchange)
WORLDS = {
    "2x2x2": ((2, 2, 2), True, 6),
    "1x1x1": ((1, 1, 1), True, 6),
    "open": ((2, 2, 2), False, 3),
}


def _problem(dims, periodic):
    return StencilProblem(
        tuple(16 * d for d in dims), dims, SEVEN_POINT, (8, 8, 8), ghost=8,
        periodic=periodic,
    )


def _axis(cut) -> int:
    """The Shift axis of a bound cut, from the tag of its first item."""
    ((_dst, items, _nbytes), *_rest) = cut.groups
    return (items[0][0][1] - 1000) // 4


@pytest.fixture
def posts(monkeypatch):
    """Spy: ``(rank, axis)`` of every bound post, and every per-message post."""
    seen = {"batch": [], "message": 0}
    post_batch, post_send = SimFabric.post_send_batch, SimFabric.post_send

    def batch(self, cut):
        if cut.groups:
            seen["batch"].append((cut.rank, _axis(cut)))
        return post_batch(self, cut)

    def message(self, *args):
        seen["message"] += 1
        return post_send(self, *args)

    monkeypatch.setattr(SimFabric, "post_send_batch", batch)
    monkeypatch.setattr(SimFabric, "post_send", message)
    return seen


def _oracle(problem):
    """The field after STEPS steps: the serial reference on a periodic
    world, Pack's executed run on an open one."""
    if problem.periodic:
        return apply_periodic_reference(problem.initial_global(0), SEVEN_POINT, STEPS)
    return run_executed(problem, "yask", timesteps=STEPS, seed=0).global_result


@pytest.mark.parametrize("verify_wire", [False, True], ids=["plain", "verified"])
@pytest.mark.parametrize("world", WORLDS)
def test_bit_exact_one_cut_per_axis(world, verify_wire, posts):
    dims, periodic, nmsgs = WORLDS[world]
    problem = _problem(dims, periodic)
    want = _oracle(problem)
    del posts["batch"][:]
    run = run_executed(
        problem, "shift", timesteps=STEPS, seed=0, verify_wire=verify_wire
    )
    np.testing.assert_array_equal(run.global_result, want)

    # Every exchange posts each axis's cut once, and nothing per message.
    assert posts["message"] == 0
    expected = sorted(
        (rank, axis)
        for rank in range(problem.nranks)
        for axis in range(3)
        for _step in range(STEPS)
    )
    assert sorted(posts["batch"]) == expected

    # The ledger is the plan's: 3 priced rounds, the messages of the plan.
    geometry = RunGeometry(problem, "shift")
    assert run.messages_per_rank == nmsgs
    for ledger, plan, price in zip(
        run.metrics.ranks, geometry.plans, geometry.results
    ):
        assert plan.nphases == 3 and len(plan.sends) == nmsgs
        assert ledger.exchanges == STEPS
        assert ledger.messages == STEPS * nmsgs
        assert ledger.wire_bytes == STEPS * price.wire_bytes_sent
        assert ledger.totals.pack == pytest.approx(STEPS * price.breakdown.pack)
        assert ledger.totals.wait == pytest.approx(STEPS * price.breakdown.wait)
    assert run.fabric.pending_messages == 0


def test_retry_resumes_at_the_axis_that_faulted(posts):
    """Every axis-1 item is dropped once: each rank's axis-1 receive
    raises and the retry heals it from axis 1 -- axis 0's cut, whose
    receive already returned, is not posted a second time."""
    dims = (2, 2, 2)
    problem = _problem(dims, True)
    axis1 = {(r, r ^ 2): {"drop": 1.0} for r in range(8)}  # coords[1] flips
    del posts["batch"][:]
    run = run_executed(
        problem, "shift", timesteps=STEPS, seed=0,
        fault_plan=FaultPlan(seed=0, edge_overrides=axis1), fabric_timeout=10.0,
    )
    np.testing.assert_array_equal(
        run.global_result,
        apply_periodic_reference(problem.initial_global(0), SEVEN_POINT, STEPS),
    )
    events = run.faults["events"]
    assert events["injected_drop"] == events["retransmit"] == 8 * 2 * STEPS
    assert events["retry"] == events["healed"] == 8 * STEPS
    per_axis = {axis: 0 for axis in range(3)}
    for _rank, axis in posts["batch"]:
        per_axis[axis] += 1
    # Axes 0 and 2 post once per exchange; axis 1 is re-fired once
    # (its posts absorbed by the guard) on every rank, every step.
    assert per_axis == {0: 8 * STEPS, 1: 2 * 8 * STEPS, 2: 8 * STEPS}
