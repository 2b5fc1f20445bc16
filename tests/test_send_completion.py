"""Where a send completes: where its buffer is next written.

A bound cut's items stay outstanding after its exchange returns.  The
channel completes its own previous epoch before it packs and posts
again, the run plan completes a slot's sends before any sweep writes
that slot (and before new engines, and at the end), and a FIFO may hold
two epochs of one edge -- the two cuts of a ping-pong pair -- in order.
With an exchange every step the wait before the sweep is already
satisfied; with a longer exchange period it really blocks (that every
method stays bit-identical at every period is the property in
``tests/test_composition.py``).
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.driver import run_executed
from repro.core.problem import StencilProblem
from repro.exchange.base import ExchangeChannel
from repro.faults.errors import ProtocolError, RankDeadError
from repro.simmpi import SimComm, SimFabric, run_spmd
from repro.simmpi.fabric import AbortedError
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import SEVEN_POINT
from tests.conftest import wire_copy


def _problem():
    # 2^3 bricks and an 8-wide ghost: a 2-step cycle fits at brick
    # granularity.
    return StencilProblem(
        (32, 32, 32), (2, 2, 2), SEVEN_POINT, brick_dim=(2, 2, 2), ghost=8
    )


@pytest.fixture
def send_waits(monkeypatch):
    """Spy: the ranks of the bound send waits that really blocked (not
    the collectives' per-message ones)."""
    blocked = []
    bound = threading.local()
    real_wait, real_await = SimFabric.wait_send_batch, SimFabric._await

    def wait_send_batch(self, cut):
        bound.on = True
        try:
            return real_wait(self, cut)
        finally:
            bound.on = False

    def spy(self, rank, ready, missing, sending=False):
        if getattr(bound, "on", False) and not ready():
            blocked.append(rank)
        return real_await(self, rank, ready, missing, sending)

    monkeypatch.setattr(SimFabric, "wait_send_batch", wait_send_batch)
    monkeypatch.setattr(SimFabric, "_await", spy)
    return blocked


# ----------------------------------------------------------------------
# Exchange periods > 1: the same slot is written before any receive
# ----------------------------------------------------------------------
def test_the_wait_before_the_sweep_blocks_only_with_a_period(send_waits):
    """Period 1: a rank's only blocking send wait is its final drain.
    Period 2: the sweep after an exchange writes the slot just sent
    from, with no receive in between -- a peer that has not taken its
    items yet holds the sender there."""
    problem = _problem()
    run_executed(problem, "layout", timesteps=12, seed=0)
    assert len(send_waits) <= problem.nranks
    del send_waits[:]
    run = run_executed(problem, "layout", timesteps=24, seed=0, exchange_period=2)
    np.testing.assert_array_equal(
        run.global_result,
        apply_periodic_reference(problem.initial_global(0), SEVEN_POINT, 24),
    )
    assert len(send_waits) > problem.nranks


# ----------------------------------------------------------------------
# Two epochs of one edge: two cuts, queued and taken in order
# ----------------------------------------------------------------------
@pytest.mark.parametrize("verified", [False, True])
def test_two_cuts_epochs_on_one_edge_are_taken_in_order(verified):
    fab = SimFabric(2, timeout=5.0)
    if verified:
        fab.enable_envelope()
    data = [np.full(4, 1.0), np.full(4, 2.0)]
    outs = [np.full(4, -1.0), np.full(4, -1.0)]
    senders = [fab.bind_request(0, [(1, 3, d)], [], wire_copy) for d in data]
    receivers = [fab.bind_request(1, [], [(0, 3, o)], wire_copy) for o in outs]
    for sender in senders:  # the second slot's epoch before the first is taken
        fab.post_send_batch(sender)
    assert len(fab._ports[1].fifos[0]) == 2
    fab.complete_recv_batch(receivers[0])
    np.testing.assert_array_equal(outs[0], 1.0)
    np.testing.assert_array_equal(outs[1], -1.0)  # its epoch still queued
    assert [s.credit.outstanding for s in senders] == [0, 1]
    fab.complete_recv_batch(receivers[1])
    np.testing.assert_array_equal(outs[1], 2.0)
    for sender in senders:
        fab.wait_send_batch(sender)  # both consumed: returns at once
    assert fab.pending_messages == 0
    assert fab.stats[1].recvs == 2


def test_deferred_sends_lose_no_wake_under_contention():
    """Eight rank threads on fewer cores, a 10 us switch interval, an
    all-to-all over two alternating cuts with the run plan's waits: a
    lost wake ends in a DeadlockError, a lost credit update in a wait
    that never returns or a send buffer rewritten under its reader (a
    wrong payload), a misordered take in a wrong payload too."""
    nranks, steps = 8, 60
    fab = SimFabric(nranks, timeout=20.0)

    def fn(comm):
        rank = comm.rank
        peers = [p for p in range(nranks) if p != rank]
        slots = []
        for _ in range(2):
            send = {p: np.zeros(16) for p in peers}
            recv = {p: np.zeros(16) for p in peers}
            cut = fab.bind_request(
                rank, [(p, 3, send[p]) for p in peers],
                [(p, 3, recv[p]) for p in peers], wire_copy,
            )
            slots.append((cut, send, recv))
        for step in range(steps):
            cut, send, recv = slots[step % 2]
            fab.wait_send_batch(cut)
            for p in peers:
                send[p][:] = 1000 * step + 10 * rank + p
            fab.post_send_batch(cut)
            fab.complete_recv_batch(cut)
            for p in peers:
                np.testing.assert_array_equal(recv[p], 1000 * step + 10 * p + rank)
            fab.wait_send_batch(slots[1 - step % 2][0])
        for cut, _send, _recv in slots:
            fab.wait_send_batch(cut)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_spmd(nranks, fn, fabric=fab)
    finally:
        sys.setswitchinterval(interval)
    assert fab.pending_messages == 0
    total = fab.total_stats()
    assert total.sends == total.recvs == steps * nranks * (nranks - 1)


def test_a_cut_posted_again_before_its_epoch_was_taken_is_refused():
    """A second epoch of *one* cut cannot be told from the first on a
    plain fabric: the receive refuses it before any byte lands."""
    fab = SimFabric(2, timeout=5.0)
    data, out = np.full(4, 1.0), np.full(4, -1.0)
    sender = fab.bind_request(0, [(1, 3, data)], [], wire_copy)
    receiver = fab.bind_request(1, [], [(0, 3, out)], wire_copy)
    fab.post_send_batch(sender)
    fab.complete_recv_batch(receiver)  # frozen on this very deposit
    fab.post_send_batch(sender)
    fab.post_send_batch(sender)
    with pytest.raises(ProtocolError, match="posted a cut again"):
        fab.complete_recv_batch(receiver)
    np.testing.assert_array_equal(out, 1.0)


# ----------------------------------------------------------------------
# A deferred send wait is a wait like any other
# ----------------------------------------------------------------------
def _posted_channel(fab):
    """Rank 0's channel toward the silent rank 1, exchanged once: the
    exchange returns with its send still outstanding."""
    channel = ExchangeChannel(
        SimComm(fab, 0), "test", [(1, 3, np.zeros(4))], [], result=None
    )
    channel.exchange()
    return channel


@pytest.mark.parametrize(
    "disturb, error, words",
    [
        (lambda fab: fab.mark_dead(1), RankDeadError,
         r"rank 0 cannot send to rank 1 \(tag=3\): rank 1 is permanently dead"),
        (SimFabric.abort, AbortedError, "another rank failed; abandoning send"),
    ],
    ids=["dead-peer", "abort"],
)
def test_a_rank_blocked_in_a_deferred_send_wait_is_woken(disturb, error, words):
    fab = SimFabric(2, timeout=30.0)
    channel = _posted_channel(fab)
    timer = threading.Timer(0.05, disturb, (fab,))
    timer.start()
    start = time.monotonic()
    try:
        with pytest.raises(error, match=words):
            channel.wait_sends()
    finally:
        timer.join(timeout=5.0)
    assert time.monotonic() - start < 3.0


def test_the_channel_completes_its_previous_epoch_before_posting_again():
    fab = SimFabric(2, timeout=0.3)
    channel = _posted_channel(fab)
    with pytest.raises(Exception, match=r"unmatched send \(dst=1, tag=3\)"):
        channel.exchange()  # rank 1 never took the first epoch
    assert fab.stats[0].sends == 1  # nothing posted the second time
