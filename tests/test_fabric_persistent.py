"""Bound persistent requests: bind once, fire with no per-message state.

The bound path under :class:`~repro.exchange.base.ExchangeChannel`
(``SimFabric.bind_request`` / ``post_send_batch`` /
``complete_recv_batch`` / ``wait_send_batch``): buffers live on the
handle, steady state allocates nothing per message, wake-ups are
targeted, every failure mode of the per-message path is kept, and
per-message traffic never counts as a bound arrival.
"""

import threading
import time

import numpy as np
import pytest

from repro.brick.decomp import BrickDecomp
from repro.exchange.envelope import seal
from repro.exchange.layout_ex import LayoutExchanger, layout_template
from repro.faults.errors import (
    ExchangeConfigError,
    ProtocolError,
    RankDeadError,
    SplitMismatchError,
)
from repro.hardware.profiles import generic_host
from repro.simmpi import SimFabric, run_spmd
from repro.simmpi import fabric as fabric_mod
from repro.simmpi.collectives import allreduce
from repro.simmpi.fabric import AbortedError, DeadlockError
from repro.stencil import cbackend
from tests.conftest import wire_copy


def _fire(fab, cut):
    """One bulk exchange of *cut*, as ExchangeChannel.exchange does it."""
    fab.post_send_batch(cut)
    fab.complete_recv_batch(cut)
    fab.wait_send_batch(cut)


def _ring_request(fab, rank, send, recv, tag=5):
    """Send to the right neighbour, receive from the left one."""
    n = fab.nranks
    return fab.bind_request(
        rank, [((rank + 1) % n, tag, send)], [((rank - 1) % n, tag, recv)], wire_copy
    )


# ----------------------------------------------------------------------
# (a) buffers live on the handle, not on the edge
# ----------------------------------------------------------------------
def test_two_handles_on_the_same_edges_keep_their_own_buffers():
    def fn(comm):
        fab, rank = comm.fabric, comm.rank
        sends = [np.zeros(6), np.zeros(6)]
        recvs = [np.full(6, -1.0), np.full(6, -1.0)]
        handles = [
            _ring_request(fab, rank, sends[i], recvs[i]) for i in (0, 1)
        ]
        left = (rank - 1) % fab.nranks
        for step in range(4):
            cur, other = step % 2, 1 - step % 2
            sends[cur][:] = 100 * step + rank
            before = recvs[other].copy()
            _fire(fab, handles[cur])
            np.testing.assert_array_equal(recvs[cur], 100 * step + left)
            # The idle handle's ghost buffer still holds the previous step.
            np.testing.assert_array_equal(recvs[other], before)

    fab = SimFabric(3)
    run_spmd(3, fn, fabric=fab)
    assert fab.pending_messages == 0
    assert fab.total_stats().sends == fab.total_stats().recvs == 12


# ----------------------------------------------------------------------
# (b) steady state creates no per-message object
# ----------------------------------------------------------------------
def test_steady_state_allocates_nothing_per_message(monkeypatch):
    counts = {"entries": 0, "events": 0, "armed": False}
    entry_init = fabric_mod._SendEntry.__init__

    def counting_entry_init(self, *args, **kwargs):
        counts["entries"] += counts["armed"]
        entry_init(self, *args, **kwargs)

    class CountingEvent(threading.Event):
        def __init__(self):
            counts["events"] += counts["armed"]
            super().__init__()

    monkeypatch.setattr(fabric_mod._SendEntry, "__init__", counting_entry_init)
    monkeypatch.setattr(threading, "Event", CountingEvent)
    sub, ghost = (16, 16, 16), 8

    def fn(comm):
        cart = comm.Create_cart((2, 2, 2))
        decomp = BrickDecomp(sub, (8, 8, 8), ghost)
        storage, asn = decomp.allocate()
        plan = layout_template(decomp, asn).for_rank(cart.rank, cart.dims)
        ex = LayoutExchanger(cart, plan, storage, generic_host())
        channel = ex.make_channel()
        result = channel.exchange()  # warm-up
        comm.Barrier()
        if comm.rank == 0:
            counts["armed"] = True
        comm.Barrier()
        for _ in range(5):
            channel.exchange()
        comm.Barrier()
        return result.messages_sent

    fab = SimFabric(8)
    msgs = run_spmd(8, fn, fabric=fab)
    counts["armed"] = False
    assert counts["entries"] == 0 and counts["events"] == 0
    assert fab.total_stats().sends == 6 * sum(msgs)
    assert fab.pending_messages == 0


@pytest.mark.parametrize("verified", [False, True])
def test_steady_state_with_collectives_constructs_no_event(monkeypatch, verified):
    """Per-message traffic rides the ports too: once set up, an 8-rank
    layout world -- bound channels, on a plain fabric or under the
    envelope of a ``verify_wire`` run -- constructs no
    ``threading.Event``, even with an allreduce after every exchange,
    and builds a ``_SendEntry`` for the collectives only: halo traffic,
    verified or not, is the prebuilt bound items.  Ranks leave the
    exchange at different times, so those collective entries reach ports
    whose owners still await halo arrivals; one mistaken for an arrival
    would be a ProtocolError or a wrong sum."""
    events = {"n": 0, "armed": False}
    halo_entries = []
    entry_init = fabric_mod._SendEntry.__init__

    class CountingEvent(threading.Event):
        def __init__(self):
            events["n"] += events["armed"]
            super().__init__()

    def recording_entry_init(self, buf, src, dst, tag):
        if events["armed"] and tag < (1 << 20):  # below the collective tags
            halo_entries.append((src, dst, tag))
        entry_init(self, buf, src, dst, tag)

    monkeypatch.setattr(threading, "Event", CountingEvent)
    monkeypatch.setattr(fabric_mod._SendEntry, "__init__", recording_entry_init)
    steps = 5

    def fn(comm):
        cart = comm.Create_cart((2, 2, 2))
        decomp = BrickDecomp((16, 16, 16), (8, 8, 8), 8)
        storage, asn = decomp.allocate()
        plan = layout_template(decomp, asn).for_rank(cart.rank, cart.dims)
        ex = LayoutExchanger(cart, plan, storage, generic_host())
        fire = ex.make_channel().exchange
        fire()  # warm-up
        comm.Barrier()
        if comm.rank == 0:
            events["armed"] = True
        comm.Barrier()
        sums = []
        for step in range(steps):
            comm.set_epoch(step)
            fire()
            comm.set_epoch(None)
            sums.append(float(allreduce(comm, np.float64(comm.rank + step))))
        comm.Barrier()
        return sums

    fab = SimFabric(8)
    if verified:
        fab.enable_envelope()
    results = run_spmd(8, fn, fabric=fab)
    events["armed"] = False
    assert events["n"] == 0 and halo_entries == []
    assert all(r == [28.0 + 8 * step for step in range(steps)] for r in results)
    assert fab.total_stats().sends == fab.total_stats().recvs
    assert fab.pending_messages == 0


# ----------------------------------------------------------------------
# (c) wake-ups are targeted
# ----------------------------------------------------------------------
def _log_notifies(fab, log):
    """Record ``(port owner, notifying thread)`` of every notify *fab*
    makes."""
    notify = fab._notify
    owner = {id(port): rank for rank, port in enumerate(fab._ports)}

    def logged(port):
        log.append((owner[id(port)], threading.current_thread().name))
        notify(port)

    fab._notify = logged


def test_wakeups_go_only_to_peers_and_once_per_exchange():
    # A 3-rank line 0 - 1 - 2: ranks 0 and 2 never talk to each other.
    steps = 4
    fab = SimFabric(3)
    log = []
    _log_notifies(fab, log)
    peers = {0: [1], 1: [0, 2], 2: [1]}

    def fn(comm):
        rank = comm.rank
        send = {p: np.full(4, float(rank)) for p in peers[rank]}
        recv = {p: np.zeros(4) for p in peers[rank]}
        cut = comm.fabric.bind_request(
            rank,
            [(p, 9, send[p]) for p in peers[rank]],
            [(p, 9, recv[p]) for p in peers[rank]], wire_copy,
        )
        for _ in range(steps):
            _fire(comm.fabric, cut)
        for p in peers[rank]:
            np.testing.assert_array_equal(recv[p], float(p))

    run_spmd(3, fn, fabric=fab)
    name = "simmpi-rank-{}".format
    assert (0, name(2)) not in log and (2, name(0)) not in log
    for owner in range(3):
        assert all(
            who in {name(p) for p in peers[owner]}
            for port, who in log if port == owner
        )
    # Per exchange a rank is woken at most once as a receiver (its count
    # completed) and at most once as a sender (its outstanding count
    # reached zero) -- never once per message.
    for owner in range(3):
        assert sum(port == owner for port, _ in log) <= 2 * steps


def test_two_alternating_cuts_wake_each_rank_once_per_exchange():
    """The run plan's shape: two cuts over the same edges, fired in
    turn; a cut's sends are completed where its buffers are next
    written -- before the other slot's sweep and before its own next
    post -- and both at the end.  A rank is then notified at most once
    per exchange (its receive) plus once for the final drain: the wait
    before a sweep is already satisfied, because the receive that just
    completed waited for every neighbour's next post, and a neighbour
    posts again only after it consumed this rank's items."""
    steps = 6
    fab = SimFabric(3)
    log = []
    _log_notifies(fab, log)
    peers = {0: [1], 1: [0, 2], 2: [1]}

    def fn(comm):
        rank, fab = comm.rank, comm.fabric
        sends = [{p: np.zeros(4) for p in peers[rank]} for _ in range(2)]
        recvs = [{p: np.zeros(4) for p in peers[rank]} for _ in range(2)]
        cuts = [
            fab.bind_request(
                rank,
                [(p, 9, sends[slot][p]) for p in peers[rank]],
                [(p, 9, recvs[slot][p]) for p in peers[rank]], wire_copy,
            )
            for slot in (0, 1)
        ]
        for step in range(steps):
            cut, other = cuts[step % 2], cuts[1 - step % 2]
            fab.wait_send_batch(cut)  # its own previous epoch
            for buf in sends[step % 2].values():
                buf[:] = 10 * step + rank
            fab.post_send_batch(cut)
            fab.complete_recv_batch(cut)
            for p in peers[rank]:
                np.testing.assert_array_equal(recvs[step % 2][p], 10 * step + p)
            fab.wait_send_batch(other)  # before the sweep writes its slot
        for cut in cuts:
            fab.wait_send_batch(cut)

    run_spmd(3, fn, fabric=fab)
    assert fab.pending_messages == 0
    for owner in range(3):
        assert sum(port == owner for port, _ in log) <= steps + 1


# ----------------------------------------------------------------------
# (d) failure modes of the bound path
# ----------------------------------------------------------------------
class TestBoundFailureModes:
    def test_sender_that_never_posts_is_a_deadlock_naming_the_edge(self):
        errors = {}

        def fn(comm):
            fab, rank = comm.fabric, comm.rank
            request = _ring_request(fab, rank, np.zeros(4), np.zeros(4), tag=7)
            if rank == 0:
                return  # never posts
            try:
                _fire(fab, request)
            except (DeadlockError, AbortedError) as err:
                errors[rank] = err
                raise

        start = time.monotonic()
        with pytest.raises(RuntimeError) as info:
            run_spmd(3, fn)
        assert time.monotonic() - start < 1.0
        assert isinstance(info.value.__cause__, DeadlockError)
        # Once rank 0 retires, rank 1 waits on it for a message and
        # rank 2, which got its own, for its send to be consumed: each
        # names its own missing edge, before the abort the first makes.
        assert isinstance(errors[1], DeadlockError)
        assert "message (src=0, tag=7)" in str(errors[1])
        assert isinstance(errors[2], DeadlockError)
        assert "unmatched send (dst=0, tag=7)" in str(errors[2])
        assert str(info.value).startswith("rank 1 failed")

    def test_message_on_the_wire_outlives_its_sender_then_edge_drains(self):
        fab = SimFabric(2)
        out = np.empty(4)
        sender = fab.bind_request(1, [(0, 0, np.full(4, 7.0))], [], wire_copy)
        receiver = fab.bind_request(0, [], [(1, 0, out)], wire_copy)
        fab.post_send_batch(sender)
        fab.mark_dead(1)
        fab.complete_recv_batch(receiver)
        np.testing.assert_array_equal(out, np.full(4, 7.0))
        start = time.monotonic()
        with pytest.raises(RankDeadError, match="permanently dead"):
            fab.complete_recv_batch(receiver)
        assert time.monotonic() - start < 5.0

    def test_destination_marked_dead_between_bind_and_fire(self):
        fab = SimFabric(3)
        cut = fab.bind_request(
            0, [(1, 0, np.zeros(4)), (2, 0, np.zeros(4))], [], wire_copy
        )
        killer = threading.Thread(target=fab.mark_dead, args=(2,))
        killer.start()
        killer.join(timeout=5.0)
        assert not killer.is_alive()
        with pytest.raises(RankDeadError, match="permanently dead"):
            fab.post_send_batch(cut)
        # Check and deposit share one lock acquisition: the live
        # destination got nothing either.
        assert fab.pending_messages == 0
        assert fab.stats[0].sends == 0

    def test_byte_count_disagreement_fails_at_negotiation(self):
        fab = SimFabric(2)
        fab.bind_request(0, [(1, 3, np.zeros(8))], [], wire_copy)
        with pytest.raises(SplitMismatchError, match="byte count disagreement"):
            fab.bind_request(1, [], [(0, 3, np.zeros(9))], wire_copy)

    def test_duplicate_receive_key_is_a_config_error(self):
        fab = SimFabric(2)
        with pytest.raises(ExchangeConfigError, match="two receives"):
            fab.bind_request(
                1, [], [(0, 3, np.zeros(4)), (0, 3, np.zeros(4))], wire_copy
            )

    def test_non_contiguous_buffer_is_a_config_error(self):
        fab = SimFabric(2)
        with pytest.raises(ExchangeConfigError, match="C-contiguous"):
            fab.bind_request(1, [], [(0, 3, np.zeros((4, 4))[:, ::2])], wire_copy)

    def test_arrival_with_no_bound_receive_is_a_protocol_error(self):
        fab = SimFabric(2)
        stray = fab.bind_request(0, [(1, 4, np.zeros(4))], [], wire_copy)
        receiver = fab.bind_request(1, [], [(0, 3, np.zeros(4))], wire_copy)
        fab.post_send_batch(stray)
        with pytest.raises(ProtocolError, match=r"\(0, 4\)"):
            fab.complete_recv_batch(receiver)

    def test_second_epoch_on_an_edge_is_a_protocol_error(self):
        fab = SimFabric(2)
        sender = fab.bind_request(0, [(1, 3, np.zeros(4))], [], wire_copy)
        receiver = fab.bind_request(1, [], [(0, 3, np.zeros(4))], wire_copy)
        fab.post_send_batch(sender)
        fab.post_send_batch(sender)  # did not wait for consumption
        with pytest.raises(ProtocolError, match="do not match"):
            fab.complete_recv_batch(receiver)

    def test_enveloped_fabric_refuses_to_bind(self):
        # ... only what a plain one refuses too: verified mode is not a
        # reason to refuse a request any more, and no excuse to take a
        # malformed one.
        fab = SimFabric(2)
        fab.enable_envelope()
        fab.bind_request(0, [(1, 3, np.zeros(4))], [], wire_copy)
        with pytest.raises(SplitMismatchError, match="byte count disagreement"):
            fab.bind_request(1, [], [(0, 3, np.zeros(5))], wire_copy)
        with pytest.raises(ExchangeConfigError, match="C-contiguous"):
            fab.bind_request(1, [], [(0, 4, np.zeros((4, 4))[:, ::2])], wire_copy)

    def test_verified_stray_arrival_is_a_protocol_error(self):
        fab = SimFabric(2)
        fab.enable_envelope()
        stray = fab.bind_request(0, [(1, 4, np.zeros(4))], [], wire_copy)
        receiver = fab.bind_request(1, [], [(0, 3, np.zeros(4))], wire_copy)
        fab.post_send_batch(stray)
        with pytest.raises(ProtocolError, match=r"\(0, 4\)"):
            fab.complete_recv_batch(receiver)

    def test_verified_second_epoch_on_an_edge_stays_queued_in_order(self):
        # What the plain fabric calls a ProtocolError the guard can
        # tell apart by sequence number: the next epoch's item waits.
        fab = SimFabric(2)
        fab.enable_envelope()
        data, out = np.zeros(4), np.full(4, -1.0)
        sender = fab.bind_request(0, [(1, 3, data)], [], wire_copy)
        receiver = fab.bind_request(1, [], [(0, 3, out)], wire_copy)
        fab.post_send_batch(sender)
        fab.post_send_batch(sender)
        fab.complete_recv_batch(receiver)
        assert [item[2].seq for item in fab._ports[1].items([0])] == [2]
        fab.complete_recv_batch(receiver)
        assert fab.pending_messages == 0
        assert fab._guard.delivered[(0, 1, 3)] == (2, None)


# ----------------------------------------------------------------------
# (e) per-message traffic stays out of the arrivals
# ----------------------------------------------------------------------
def test_collective_posted_after_the_exchange_is_not_a_halo_arrival():
    # 2 -> 0 -> 1: rank 1 only receives, so it leaves the exchange as
    # soon as rank 0 posted and races into the allreduce, whose first
    # message goes to rank 0 -- which is still blocked on its bound
    # receive from the slow rank 2.  That message must not satisfy,
    # corrupt or miscount rank 0's receive.
    steps = 3
    left_exchange = [[None] * steps for _ in range(3)]

    def fn(comm):
        fab, rank = comm.fabric, comm.rank
        send = np.zeros(8)
        recv = np.full(8, -1.0)
        posts = {0: [(1, 5, send)], 1: [], 2: [(0, 5, send)]}[rank]
        recvs = {0: [(2, 5, recv)], 1: [(0, 5, recv)], 2: []}[rank]
        cut = fab.bind_request(rank, posts, recvs, wire_copy)
        totals = []
        for step in range(steps):
            if rank == 2:
                time.sleep(0.05)
            send[:] = 10 * step + rank
            _fire(fab, cut)
            left_exchange[rank][step] = time.monotonic()
            if recvs:
                np.testing.assert_array_equal(recv, 10 * step + recvs[0][0])
            totals.append(float(allreduce(comm, np.float64(rank + step))))
        return totals

    fab = SimFabric(3)
    results = run_spmd(3, fn, fabric=fab)
    assert results[0] == results[1] == results[2] == [3.0, 6.0, 9.0]
    for step in range(steps):  # the race really happened
        assert left_exchange[1][step] < left_exchange[0][step]
    assert fab.pending_messages == 0
    assert fab.stats[0].recvs - fab.stats[1].recvs == 2 * steps - steps


def test_per_message_send_does_not_match_a_bound_receive():
    fab = SimFabric(2)
    out = np.full(4, -1.0)
    receiver = fab.bind_request(1, [], [(0, 3, out)], wire_copy)
    fab.post_send(0, 1, 3, np.zeros(4))
    start = time.monotonic()
    with pytest.raises(DeadlockError, match=r"\(src=0, tag=3\)"):
        fab.complete_recv_batch(receiver)
    assert time.monotonic() - start < 5.0
    np.testing.assert_array_equal(out, -1.0)
    assert fab.pending_messages == 1  # still in its per-message queue


# ----------------------------------------------------------------------
# (f) the wire copy: one call over a table frozen on the cut
# ----------------------------------------------------------------------
class _CountingCopyList:
    """A ``copy_list`` binder that counts tables built and copies made."""

    def __init__(self, binder):
        self.binder = binder
        self.built = 0
        self.calls = 0

    def __call__(self, srcs, dsts):
        self.built += 1
        call = self.binder(srcs, dsts)

        def counted():
            self.calls += 1
            call()

        return counted


@pytest.fixture(params=["cffi"])  # the one tier; the ids the test floor records
def copy_list(request):
    """The C movers' binder, as ``ExchangeChannel`` hands it down."""
    return cbackend._load_movers(cbackend.sanitize_flags(), False).copy_list


class TestFrozenCopyTable:
    def test_one_mover_call_per_receive_after_the_first_fire(self, copy_list):
        steps = 5

        def fn(comm):
            fab, rank, n = comm.fabric, comm.rank, comm.fabric.nranks
            counter = _CountingCopyList(copy_list)
            sends = [np.zeros(6), np.zeros(3)]
            recvs = [np.full(6, -1.0), np.full(3, -1.0)]
            right, left = (rank + 1) % n, (rank - 1) % n
            cut = fab.bind_request(
                rank,
                [(right, 5, sends[0]), (left, 6, sends[1])],
                [(left, 5, recvs[0]), (right, 6, recvs[1])],
                copy_list=counter,
            )
            for step in range(steps):
                sends[0][:] = 100 * step + rank
                sends[1][:] = -(100 * step + rank)
                _fire(fab, cut)
                np.testing.assert_array_equal(recvs[0], 100 * step + left)
                np.testing.assert_array_equal(recvs[1], -(100 * step + right))
                # The table is built by the first receive and then
                # only called: one mover call per complete_recv_batch.
                assert (counter.built, counter.calls) == (1, step + 1)

        fab = SimFabric(3)
        run_spmd(3, fn, fabric=fab)
        assert fab.pending_messages == 0

    def test_a_rebound_peer_rebuilds_the_table(self, copy_list):
        """The table is good for the very items it was built from: a peer
        that binds again (a ladder rung, a new buffer) delivers new
        objects, which are checked and frozen afresh."""
        fab = SimFabric(2)
        counter = _CountingCopyList(copy_list)
        out = np.full(4, -1.0)
        receiver = fab.bind_request(1, [], [(0, 3, out)], copy_list=counter)
        for epoch, value in enumerate((1.0, 2.0)):
            sender = fab.bind_request(0, [(1, 3, np.full(4, value))], [], wire_copy)
            for _ in range(2):
                fab.post_send_batch(sender)
                fab.complete_recv_batch(receiver)
                np.testing.assert_array_equal(out, value)
            assert counter.built == epoch + 1
        assert counter.calls == 4

    def test_size_mismatched_peer_is_refused_before_any_byte(self, copy_list):
        fab = SimFabric(2)
        counter = _CountingCopyList(copy_list)
        out = np.full(4, -1.0)
        receiver = fab.bind_request(1, [], [(0, 3, out)], copy_list=counter)
        sender = fab.bind_request(0, [(1, 3, np.full(4, 1.0))], [], wire_copy)
        fab.post_send_batch(sender)
        fab.complete_recv_batch(receiver)  # frozen on the 4-element peer
        # Re-binding a changed split drops the receiver's stale half at
        # negotiation, so only the wire's own size guard is left.
        grown = fab.bind_request(0, [(1, 3, np.full(5, 2.0))], [], wire_copy)
        fab.post_send_batch(grown)
        with pytest.raises(SplitMismatchError, match="sent 40 bytes, receiving 32"):
            fab.complete_recv_batch(receiver)
        np.testing.assert_array_equal(out, 1.0)
        assert (counter.built, counter.calls) == (1, 1)

    def test_protocol_errors_come_before_any_byte(self, copy_list):
        fab = SimFabric(2)
        counter = _CountingCopyList(copy_list)
        data, out = np.full(4, 1.0), np.full(4, -1.0)
        receiver = fab.bind_request(1, [], [(0, 3, out)], copy_list=counter)
        sender = fab.bind_request(0, [(1, 3, data)], [], wire_copy)
        fab.post_send_batch(sender)
        fab.complete_recv_batch(receiver)
        data[:] = 2.0
        # A duplicate of the very item the table was built from ...
        fab.post_send_batch(sender)
        fab.post_send_batch(sender)
        with pytest.raises(ProtocolError, match="do not match"):
            fab.complete_recv_batch(receiver)
        np.testing.assert_array_equal(out, 1.0)
        assert (counter.built, counter.calls) == (1, 1)

    def test_stray_key_after_freeze_is_a_protocol_error(self, copy_list):
        fab = SimFabric(2)
        counter = _CountingCopyList(copy_list)
        out = np.full(4, -1.0)
        receiver = fab.bind_request(1, [], [(0, 3, out)], copy_list=counter)
        sender = fab.bind_request(0, [(1, 3, np.full(4, 1.0))], [], wire_copy)
        fab.post_send_batch(sender)
        fab.complete_recv_batch(receiver)
        stray = fab.bind_request(0, [(1, 4, np.full(4, 9.0))], [], wire_copy)
        fab.post_send_batch(stray)
        with pytest.raises(ProtocolError, match=r"\(0, 4\)"):
            fab.complete_recv_batch(receiver)
        np.testing.assert_array_equal(out, 1.0)
        assert counter.calls == 1

    def test_read_only_receive_buffer_is_refused_at_bind(self):
        frozen = np.zeros(4)
        frozen.flags.writeable = False
        with pytest.raises(ExchangeConfigError, match="read-only"):
            SimFabric(2).bind_request(1, [], [(0, 3, frozen)], wire_copy)

    def test_table_pins_no_export_on_an_arena(self, copy_list):
        """Tables are raw addresses: an arena whose slot views were bound,
        fired and dropped closes like one that never was."""
        from repro.vmem import MemfdArena, realmap_available

        if not realmap_available():
            pytest.skip("real arena unavailable")
        arena = MemfdArena(8 * 4096, 4096)
        fab = SimFabric(1)
        buf = arena.buffer.view(np.float64)
        cut = fab.bind_request(
            0, [(0, 1, buf[:512])], [(0, 1, buf[512:1024])], copy_list=copy_list
        )
        buf[:512] = 3.0
        _fire(fab, cut)
        assert (buf[512:1024] == 3.0).all()
        del cut, buf, fab
        arena.close()
        assert arena._base is None  # the mmap really closed: nothing pinned it


class TestBatchedFabric:
    def test_batch_roundtrip_matches_payload(self):
        fabric = SimFabric(2)
        rng = np.random.default_rng(0)
        sends = [rng.random(16), rng.random(8)]
        outs = [np.zeros(16), np.zeros(8)]
        sender = fabric.bind_request(
            0, [(1, 11, sends[0]), (1, 12, sends[1])], [], wire_copy
        )
        receiver = fabric.bind_request(
            1, [], [(0, 11, outs[0]), (0, 12, outs[1])], wire_copy
        )
        fabric.post_send_batch(sender)
        fabric.complete_recv_batch(receiver)
        fabric.wait_send_batch(sender)
        np.testing.assert_array_equal(outs[0], sends[0])
        np.testing.assert_array_equal(outs[1], sends[1])

    def test_request_bound_before_the_envelope_is_sealed_and_verified(self):
        # A verified fabric never bypasses the sequence/CRC machinery,
        # even for a request bound before ``enable_envelope()``: its
        # items are sealed at post time and verified where they land.
        fabric = SimFabric(2)
        buf, out = np.arange(4.0), np.zeros(4)
        sender = fabric.bind_request(0, [(1, 7, buf)], [], wire_copy)
        receiver = fabric.bind_request(1, [], [(0, 7, out)], wire_copy)
        fabric.enable_envelope()
        fabric.post_send_batch(sender)
        (deposit,) = fabric._ports[1].fifos[0]
        ((_key, _view, env, _wire),) = fabric._guard.expand(1, deposit)[1]
        assert env == seal(buf, seq=1)
        buf[0] = -1.0  # changed in flight: the landed bytes do not verify
        with pytest.raises(RuntimeError, match="checksum mismatch"):
            fabric.complete_recv_batch(receiver)
        assert fabric.stats[1].recvs == 0 and fabric.pending_messages == 1
