"""Verified (envelope) fabric: sealing, detection, and idempotent healing.

The healing protocol lives on the bound item, so these tests bind a
request per rank and drive ``post_send_batch`` / ``complete_recv_batch``
directly from one thread -- a post never blocks, and a receive whose
items are all on the wire does not either -- which exercises the full
verified path without launcher machinery.  A halo exchange is one bound
cut, so a retry is a re-fire of that cut; per-message delivery
(collectives only) is detection only.
"""

import functools

import numpy as np
import pytest

from repro.exchange.envelope import Envelope, checksum, seal, verify
from repro.faults import FaultInjector, FaultPlan
from repro.simmpi.fabric import (
    ExchangeIntegrityError,
    ExchangeTimeoutError,
    SimFabric,
)
from tests.conftest import wire_copy


def _payload(n=16, seed=0):
    return np.random.default_rng(seed).random(n)


class TestEnvelopeHelpers:
    def test_checksum_is_content_hash(self):
        a = _payload(seed=1)
        assert checksum(a) == checksum(a.copy())
        b = a.copy()
        b[3] += 1.0
        assert checksum(a) != checksum(b)

    def test_checksum_noncontiguous(self):
        a = np.arange(20.0)
        assert checksum(a[::2]) == checksum(np.ascontiguousarray(a[::2]))

    def test_seal_verify_round_trip(self):
        buf = _payload()
        env = seal(buf, seq=3)
        assert env == Envelope(seq=3, crc=checksum(buf), nbytes=buf.nbytes)
        verify(env, buf, expected_seq=3, edge=(0, 1, 42))  # no raise

    def test_verify_detects_corruption(self):
        buf = _payload()
        env = seal(buf, seq=1)
        buf.reshape(-1).view(np.uint8)[5] ^= 0x10
        with pytest.raises(ExchangeIntegrityError, match="checksum"):
            verify(env, buf, expected_seq=1, edge=(0, 1, 42))

    def test_verify_detects_sequence_gap(self):
        buf = _payload()
        env = seal(buf, seq=5)
        with pytest.raises(ExchangeIntegrityError, match="sequence"):
            verify(env, buf, expected_seq=4, edge=(0, 1, 42))


def _queued(fab, dst, src):
    """The wire items queued for *dst* from *src*, each with its own
    envelope: a clean post's plain deposit is expanded from its cut's."""
    return [
        item
        for deposit in fab._ports[dst].fifos[src]
        for item in fab._guard.expand(dst, deposit)[1]
    ]


class _Pair:
    """Rank 0 sends *tags* to rank 1 over one bound request each."""

    def __init__(self, plan=None, tags=(5,), fab=None):
        self.injector = FaultInjector(plan) if plan is not None else None
        if fab is None:
            fab = SimFabric(2)
            fab.enable_envelope(self.injector)
        self.fab = fab
        self.data = [_payload(seed=tag) for tag in tags]
        self.out = [np.zeros_like(d) for d in self.data]
        self.sender = fab.bind_request(
            0, [(1, tag, d) for tag, d in zip(tags, self.data)], [], wire_copy
        )
        self.receiver = fab.bind_request(
            1, [], [(0, tag, o) for tag, o in zip(tags, self.out)], wire_copy
        )

    def epoch(self, e, ranks=(0, 1)):
        for rank in ranks:
            self.fab.set_epoch(rank, e)

    def post(self):
        self.fab.post_send_batch(self.sender)

    def recv(self):
        self.fab.complete_recv_batch(self.receiver)

    def delivered(self):
        for got, want in zip(self.out, self.data):
            np.testing.assert_array_equal(got, want)
        return True

    @property
    def events(self):
        return self.injector.event_counts()


class TestVerifiedDelivery:
    def test_clean_delivery_matches_plain(self):
        plain = _Pair(fab=SimFabric(2))
        verified = _Pair()
        for pair in (plain, verified):
            pair.post()
            pair.recv()
            pair.fab.wait_send_batch(pair.sender)
            assert pair.delivered() and pair.fab.pending_messages == 0
        assert plain.fab.stats[0].bytes_sent == verified.fab.stats[0].bytes_sent
        assert plain.fab.stats[1].recvs == verified.fab.stats[1].recvs == 1

    def test_payload_frozen_at_post_time(self):
        # What is frozen at post time is the payload's *seal*, not a copy
        # of it: a bound send view may not change while its item is
        # outstanding, and if it does the CRC over the landed bytes says
        # so -- on every retry, until the view holds the sealed bytes again.
        pair = _Pair()
        expect = pair.data[0].copy()
        pair.post()
        pair.data[0][:] = -1.0  # mutate after post, before delivery
        for _ in range(2):
            with pytest.raises(ExchangeIntegrityError, match="checksum"):
                pair.recv()
        pair.data[0][:] = expect
        pair.recv()
        assert pair.delivered()

    def test_sequence_numbers_advance_per_edge(self):
        pair = _Pair()
        for _ in range(3):
            pair.post()
            pair.recv()  # seq 1, 2, 3 all accepted
        assert pair.fab._guard.delivered[(0, 1, 5)] == (3, None)

    def test_sequence_state_outlives_the_request(self):
        # A channel rebuilt on the same fabric (ladder demotion) binds a
        # new request to edges the guard already numbered.
        pair = _Pair()
        pair.post()
        pair.recv()
        again = _Pair(fab=pair.fab)
        again.post()
        ((_key, _view, env, _wire),) = _queued(pair.fab, 1, 0)
        assert env.seq == 2
        again.recv()
        assert again.delivered()

    def test_injected_corruption_detected_and_healed(self):
        pair = _Pair(FaultPlan(seed=1, corrupt=1.0))
        pair.epoch(0)
        pair.post()
        with pytest.raises(ExchangeIntegrityError, match="checksum"):
            pair.recv()
        # The pristine retransmit is already queued: one retry heals.
        pair.recv()
        assert pair.delivered()
        assert pair.events["injected_corrupt"] == 1
        assert pair.events["retransmit"] == 1

    def test_injected_drop_raises_timeout_then_heals(self):
        pair = _Pair(FaultPlan(seed=1, drop=1.0))
        pair.epoch(0)
        pair.post()
        with pytest.raises(ExchangeTimeoutError, match="lost"):
            pair.recv()
        pair.recv()
        assert pair.delivered()
        assert pair.events["retransmit"] == 1

    def test_whole_cut_is_judged_before_the_error(self):
        # Twelve faulted items cost one retry, not twelve: the receive
        # judges everything it took, re-queues every failure pristine
        # and raises once (the default RetryPolicy allows eight).
        tags = tuple(range(12))
        pair = _Pair(FaultPlan(seed=2, drop=0.5, corrupt=0.5), tags=tags)
        pair.epoch(0)
        pair.post()
        with pytest.raises((ExchangeIntegrityError, ExchangeTimeoutError)):
            pair.recv()
        assert pair.events["retransmit"] == 12
        assert pair.fab.pending_messages == 12
        assert pair.fab.stats[1].recvs == 0
        assert pair.sender.credit.outstanding == 12
        pair.recv()
        assert pair.delivered()
        assert pair.fab.pending_messages == 0
        assert pair.sender.credit.outstanding == 0

    def test_injected_duplicate_discarded(self):
        pair = _Pair(FaultPlan(seed=1, duplicate=1.0))
        pair.epoch(0)
        pair.post()
        assert pair.fab.pending_messages == 2
        assert pair.fab.stats[0].sends == 1  # one logical message
        pair.recv()  # delivers seq 1 and drops its copy, in this epoch
        assert pair.delivered()
        assert pair.fab.pending_messages == 0
        assert pair.events["duplicate_discarded"] == 1
        assert pair.sender.credit.outstanding == 0

    def test_repost_within_epoch_suppressed(self):
        pair = _Pair(FaultPlan())
        pair.epoch(7)
        pair.post()
        pair.post()  # retry re-post, same epoch: absorbed
        assert pair.fab.pending_messages == 1  # only the original on the wire
        assert pair.fab.stats[0].sends == 1
        assert pair.sender.credit.outstanding == 1
        assert pair.events["resend_suppressed"] == 1

        pair.epoch(8)  # new epoch: posts flow again
        pair.post()
        assert pair.fab.pending_messages == 2

    def test_replay_serves_redelivered_recv(self):
        pair = _Pair(FaultPlan())
        pair.epoch(0)
        pair.post()
        pair.recv()

        # Retry of the same exchange re-receives: nothing is on the wire
        # and nothing needs to be -- the bytes sit in the bound buffer.
        pair.recv()
        assert pair.delivered()
        assert pair.events["replayed"] == 1
        assert pair.fab.stats[1].recvs == 1

    def test_replay_does_not_steal_next_epoch_message(self):
        pair = _Pair(FaultPlan())
        pair.epoch(0)
        pair.post()
        pair.recv()
        first = pair.data[0].copy()

        # Sender races ahead to epoch 1 while the receiver retries epoch 0.
        pair.epoch(1, ranks=(0,))
        pair.data[0][:] = _payload(seed=11)
        pair.post()

        pair.recv()  # receiver still in epoch 0: replay, not the new item
        np.testing.assert_array_equal(pair.out[0], first)
        assert pair.fab.pending_messages == 1

        pair.epoch(1, ranks=(1,))
        pair.recv()
        assert pair.delivered()

    def test_next_epoch_of_a_finished_peer_waits_behind_a_retry(self):
        # Two edges into rank 1, each posted by a request of its own;
        # (0, 5) is dropped, (0, 6) arrives.  The request behind (0, 6)
        # finishes and posts its next epoch while rank 1 still retries:
        # that item is neither owed nor stale.
        pair = _Pair(FaultPlan(), tags=(5, 6))
        fab = pair.fab
        five, six = (
            fab.bind_request(0, [(1, tag, d)], [], wire_copy)
            for tag, d in zip((5, 6), pair.data)
        )
        pair.injector.on_post = (
            lambda src, dst, tag, seq: "drop" if (tag, seq) == (5, 1) else None
        )
        pair.epoch(0)
        fab.post_send_batch(five)
        fab.post_send_batch(six)
        with pytest.raises(ExchangeTimeoutError):
            pair.recv()
        fab.set_epoch(0, 1)
        fab.post_send_batch(six)
        pair.recv()  # the retry: takes the pristine (0, 5) only
        assert [(item[0], item[2].seq) for item in _queued(fab, 1, 0)] == [
            ((0, 6), 2)
        ]
        fab.post_send_batch(five)
        fab.set_epoch(1, 1)
        pair.recv()
        assert fab.pending_messages == 0 and fab.stats[1].recvs == 4

    def test_stats_counted_once_despite_retry(self):
        pair = _Pair(FaultPlan(seed=1, corrupt=1.0))
        pair.epoch(0)
        pair.post()
        with pytest.raises(ExchangeIntegrityError):
            pair.recv()
        pair.post()
        pair.recv()
        # One logical message: modelled counters see exactly one send and
        # one receive regardless of the wire-level retry.
        nbytes = pair.data[0].nbytes
        assert pair.fab.stats[0].sends == 1
        assert pair.fab.stats[1].recvs == 1
        assert pair.fab.stats[0].bytes_sent == nbytes
        assert pair.fab.stats[1].bytes_received == nbytes

    def test_collective_traffic_not_faulted(self):
        # Per-message traffic (collectives, control) is never injected
        # into, even under a certain-fault plan and inside an epoch; nor
        # is a bound post that carries no epoch.
        pair = _Pair(FaultPlan(seed=1, corrupt=1.0))
        data = _payload(seed=12)
        out = np.zeros_like(data)
        pair.epoch(0)
        pair.fab.post_send(0, 1, 5, data)
        pair.fab.complete_recv(0, 1, 5, out)  # no raise
        np.testing.assert_array_equal(out, data)
        pair.epoch(None)
        pair.post()
        pair.recv()  # no raise
        assert pair.delivered() and pair.events == {}


class TestPerMessageDetection:
    """Per-message verified delivery is detection only: sealed at post,
    verified where it lands, typed error -- no suppression, no replay,
    no retransmit."""

    def test_clean_delivery_and_own_sequence_stream(self):
        fab = SimFabric(2)
        fab.enable_envelope()
        data, out = _payload(seed=7), np.zeros(16)
        bound = _Pair(fab=fab, tags=(9,))
        for _ in range(3):
            fab.post_send(0, 1, 9, data)
            fab.complete_recv(0, 1, 9, out)
            bound.post()  # same (src, dst, tag), the other container
            bound.recv()
        np.testing.assert_array_equal(out, data)
        assert fab._guard._msg_delivered[(0, 1, 9)] == 3
        assert fab._guard.delivered[(0, 1, 9)] == (3, None)

    def test_mismatch_is_a_typed_error_and_nothing_heals_it(self):
        injector = FaultInjector(FaultPlan())
        fab = SimFabric(2)
        fab.enable_envelope(injector)
        fab.set_epoch(0, 0)
        fab.set_epoch(1, 0)
        data = _payload(seed=2)
        fab.post_send(0, 1, 1, data)
        entry = fab.post_send(0, 1, 1, data)  # no suppression: a second send
        assert not entry.done and fab.pending_messages == 2
        data[3] += 1.0  # changed in flight
        out = np.zeros_like(data)
        with pytest.raises(ExchangeIntegrityError, match="checksum"):
            fab.complete_recv(0, 1, 1, out)
        assert fab.pending_messages == 1  # consumed, not re-queued
        assert injector.event_counts() == {}


def test_guard_tables_lose_no_update_under_contention():
    """The guard takes no lock: an edge's sender-side entry is written by
    its source rank's thread only, its receiver-side entry by its
    destination's.  Six rank threads on fewer cores, a 10 us switch
    interval and an all-to-all faulted at 30% per item: a lost update
    would show as a sequence gap, a wrong payload, a leftover arrival or
    an edge whose last accepted sequence number is not the step count."""
    import sys

    from repro.faults import FaultError
    from repro.simmpi import run_spmd

    nranks, steps = 6, 40
    injector = FaultInjector(
        FaultPlan(seed=11, drop=0.1, corrupt=0.1, duplicate=0.1)
    )
    fab = SimFabric(nranks)
    fab.enable_envelope(injector)

    def fn(comm):
        rank = comm.rank
        peers = [p for p in range(nranks) if p != rank]
        send = {p: np.zeros(32) for p in peers}
        recv = {p: np.zeros(32) for p in peers}
        cut = fab.bind_request(
            rank,
            [(p, 3, send[p]) for p in peers],
            [(p, 3, recv[p]) for p in peers], wire_copy,
        )
        for step in range(steps):
            for p in peers:
                send[p][:] = 1000 * step + 10 * rank + p
            comm.set_epoch(step)
            for _attempt in range(3):
                try:
                    fab.post_send_batch(cut)
                    fab.complete_recv_batch(cut)
                    fab.wait_send_batch(cut)
                    break
                except FaultError:
                    continue
            else:
                raise AssertionError("a clean retransmit did not heal")
            comm.set_epoch(None)
            for p in peers:
                np.testing.assert_array_equal(
                    recv[p], 1000 * step + 10 * p + rank
                )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_spmd(nranks, fn, fabric=fab)
    finally:
        sys.setswitchinterval(interval)
    delivered = fab._guard.delivered
    assert len(delivered) == nranks * (nranks - 1)
    assert all(seq == steps for seq, _epoch in delivered.values())
    assert fab.pending_messages == 0
    events = injector.event_counts()
    assert events["injected_drop"] + events["injected_corrupt"] == events["retransmit"]
    assert events["injected_duplicate"] == events["duplicate_discarded"] > 0
    total = fab.total_stats()
    assert total.sends == total.recvs == steps * nranks * (nranks - 1)


# ----------------------------------------------------------------------
# The guard judges a cut: one seal call per post, one copy-and-check
# call per receive, per-item judgement for what is not the common case
# ----------------------------------------------------------------------
class _Counting:
    """A binder that counts the tables it built and the calls made."""

    def __init__(self, binder):
        self.binder = binder
        self.built = 0
        self.calls = 0

    def __call__(self, *views):
        self.built += 1
        call = self.binder(*views)

        def counted():
            self.calls += 1
            return call()

        return counted


@pytest.fixture(params=["cffi", "zlib"])
def binders(request):
    """``(crc_list, copy_crc_list)``, counted: the C movers' as
    ``ExchangeChannel`` hands them down, or what the fabric falls to on
    a CPU that cannot fold the CRC (``zlib.crc32`` around the C copy)."""
    from repro.simmpi import fabric as fabric_mod
    from repro.stencil import cbackend

    if request.param == "zlib":
        pair = (
            fabric_mod._zlib_crc_list,
            functools.partial(fabric_mod._zlib_copy_crc_list, wire_copy),
        )
    else:
        movers = cbackend._load_movers(cbackend.sanitize_flags(), False)
        if movers.crc_refusal:
            pytest.skip(movers.crc_refusal)
        pair = (movers.crc_list, movers.copy_crc_list)
    return tuple(_Counting(binder) for binder in pair)


class _Cut39:
    """Rank 0 sends 39 Layout-sized items to rank 1 (three senders' worth
    of tags on one edge pair keeps it single-threaded)."""

    N = 39

    def __init__(self, binders, plan=None):
        self.seal, self.check = binders
        self.injector = FaultInjector(plan) if plan is not None else None
        self.fab = fab = SimFabric(2)
        fab.enable_envelope(self.injector)
        sizes = [512 + 64 * (tag % 5) + tag % 3 for tag in range(self.N)]
        self.data = [_payload(n, seed=tag) for tag, n in enumerate(sizes)]
        self.out = [np.zeros_like(d) for d in self.data]
        kw = {"crc_list": self.seal, "copy_crc_list": self.check}
        self.sender = fab.bind_request(
            0, [(1, tag, d) for tag, d in enumerate(self.data)], [], wire_copy, **kw
        )
        self.receiver = fab.bind_request(
            1, [], [(0, tag, o) for tag, o in enumerate(self.out)], wire_copy, **kw
        )

    def delivered(self):
        return all((o == d).all() for o, d in zip(self.out, self.data))


class TestTheGuardJudgesACut:
    def test_one_seal_call_per_post_one_check_call_per_receive(self, binders):
        cut = _Cut39(binders)
        fab = cut.fab
        for step in range(4):
            for d in cut.data:
                d += 1.0
            fab.post_send_batch(cut.sender)
            fab.complete_recv_batch(cut.receiver)
            fab.wait_send_batch(cut.sender)
            assert cut.delivered()
            # Bound once (each side's table: the seal at bind, the
            # copy-and-check on the first receive), then only called.
            assert (cut.seal.built, cut.seal.calls) == (2, step + 1)
            assert (cut.check.built, cut.check.calls) == (1, step + 1)
        assert fab.stats[1].recvs == 4 * cut.N and fab.pending_messages == 0
        assert all(seq == 4 for seq, _ in fab._guard.delivered.values())

    @pytest.mark.parametrize("fault", ["corrupt", "drop", "duplicate"])
    def test_a_faulted_item_is_judged_alone(self, binders, fault, monkeypatch):
        # A faulted post goes item by item: every taken item is judged
        # once, after every arrived item landed in one call, and item 17
        # alone fails.
        cut = _Cut39(binders, FaultPlan())
        fab, guard = cut.fab, cut.fab._guard
        cut.injector.on_post = (
            lambda src, dst, tag, seq: fault if (tag, seq) == (17, 1) else None
        )
        judged = []  # (key, whether it was judged lost)
        real_accept = guard.accept
        monkeypatch.setattr(
            guard, "accept",
            lambda c, item, crc, epoch: judged.append((item[0], crc is None))
            or real_accept(c, item, crc, epoch),
        )
        for rank in (0, 1):
            fab.set_epoch(rank, 0)
        fab.post_send_batch(cut.sender)
        every = [((0, tag), False) for tag in range(cut.N)]
        if fault == "duplicate":
            fab.complete_recv_batch(cut.receiver)  # the copy is dropped
            assert judged == every and (cut.check.built, cut.check.calls) == (1, 1)
            assert cut.delivered() and fab.pending_messages == 0
            return
        error = ExchangeIntegrityError if fault == "corrupt" else ExchangeTimeoutError
        with pytest.raises(error, match=r"tag=17, seq=1\)"):
            fab.complete_recv_batch(cut.receiver)
        # Its 38 neighbours were credited; the corrupted copy landed in
        # the same call, a lost item in none.
        every[17] = ((0, 17), fault == "drop")
        assert judged == every
        assert fab.stats[1].recvs == cut.N - 1
        assert cut.sender.credit.outstanding == 1 and fab.pending_messages == 1
        assert (cut.check.built, cut.check.calls) == (1, 1)
        fab.complete_recv_batch(cut.receiver)  # the retry: 38 replayed
        assert cut.delivered() and fab.pending_messages == 0
        assert judged[cut.N:] == [((0, 17), False)]
        assert (cut.check.built, cut.check.calls) == (2, 2)
        events = cut.injector.event_counts()
        assert events["retransmit"] == 1 and events["replayed"] == cut.N - 1

    def test_corrupted_dropped_and_duplicated_items_land_in_one_call(
        self, binders, monkeypatch
    ):
        faults = {(4, 1): "drop", (9, 1): "corrupt", (20, 1): "duplicate"}
        cut = _Cut39(binders, FaultPlan())
        fab, injector = cut.fab, cut.injector
        injector.on_post = lambda src, dst, tag, seq: faults.get((tag, seq))
        corrupted = []
        real_corrupt = injector.corrupt
        monkeypatch.setattr(
            injector, "corrupt",
            lambda *args: corrupted.append(real_corrupt(*args)) or corrupted[-1],
        )
        tables = []  # the send side of every copy-and-check table built
        real_binder = cut.check.binder
        cut.check.binder = lambda srcs, dsts: tables.append(srcs) or real_binder(
            srcs, dsts
        )
        for rank in (0, 1):
            fab.set_epoch(rank, 0)
        fab.post_send_batch(cut.sender)
        # One typed error, for the first item that failed: item 4 was
        # lost; item 9's corruption is recorded, not raised.
        with pytest.raises(ExchangeTimeoutError, match=r"tag=4, seq=1\)"):
            fab.complete_recv_batch(cut.receiver)
        # Every arrived item -- one copy of item 20, the corrupted copy
        # of item 9, none of item 4 -- landed in one call over one table.
        assert cut.check.calls == 1
        (table,) = tables
        arrived = [tag for tag in range(cut.N) if tag != 4]
        assert len(table) == len(arrived) and table[8] is corrupted[0]
        assert all(
            np.shares_memory(view, cut.data[tag])
            for view, tag in zip(table, arrived) if tag != 9
        )
        assert fab.stats[1].recvs == cut.N - 2 and fab.pending_messages == 2
        fab.complete_recv_batch(cut.receiver)  # one retry heals the cut
        assert cut.delivered() and fab.pending_messages == 0
        assert fab.stats[1].recvs == cut.N
        events = injector.event_counts()
        assert (
            events["retransmit"], events["replayed"], events["duplicate_discarded"]
        ) == (2, cut.N - 2, 1)

    def test_an_item_the_vector_verdict_fails_is_named(self, binders):
        # No injector: a send view that changes after its seal fails the
        # vector verdict, and the per-item judgement says which and why.
        cut = _Cut39(binders)
        fab = cut.fab
        for rank in (0, 1):
            fab.set_epoch(rank, 0)  # a retry replays what it accepted
        fab.post_send_batch(cut.sender)
        cut.data[5][0] += 1.0
        with pytest.raises(ExchangeIntegrityError, match=r"checksum.*tag=5,"):
            fab.complete_recv_batch(cut.receiver)
        assert fab.stats[1].recvs == cut.N - 1 and fab.pending_messages == 1
        cut.data[5][0] -= 1.0
        fab.complete_recv_batch(cut.receiver)
        assert cut.delivered() and fab.stats[1].recvs == cut.N

    @pytest.mark.parametrize("forged", ["crc", "seq"])
    def test_a_vector_envelope_that_fails_falls_to_the_item_path(
        self, binders, forged, monkeypatch
    ):
        # A clean post's one envelope with item 17's CRC flipped, or its
        # sequence number skipped: the vector compare fails, the same
        # deposits go to the per-item path, which judges every item and
        # names item 17 alone.
        cut = _Cut39(binders)
        fab, guard = cut.fab, cut.fab._guard
        judged = []
        real_accept = guard.accept
        monkeypatch.setattr(
            guard, "accept",
            lambda c, item, crc, epoch: judged.append(item[0])
            or real_accept(c, item, crc, epoch),
        )
        for rank in (0, 1):
            fab.set_epoch(rank, 0)
        fab.post_send_batch(cut.sender)
        ((_dst, deposit),) = cut.sender.deposits
        assert fab._ports[1].fifos[0][0] is deposit  # the plain post's own
        stamp = cut.sender.credit.envelope
        if forged == "crc":
            crcs = bytearray(stamp.crcs)
            crcs[4 * 17] ^= 1
            cut.sender.credit.envelope = stamp._replace(crcs=bytes(crcs))
            match = r"checksum mismatch on \(src=0, dst=1, tag=17, seq=1\)"
        else:
            seqs = np.frombuffer(stamp.seqs, np.int64).copy()
            seqs[17] += 1
            cut.sender.credit.envelope = stamp._replace(seqs=seqs.tobytes())
            match = r"sequence gap on \(src=0, dst=1, tag=17\): got seq 2, expected 1"
        with pytest.raises(ExchangeIntegrityError, match=match):
            fab.complete_recv_batch(cut.receiver)
        assert judged == [(0, tag) for tag in range(cut.N)]
        assert fab.stats[1].recvs == cut.N - 1 and fab.pending_messages == 1
        assert cut.sender.credit.outstanding == 1
        assert cut.delivered()
        # The CRC compare follows the landing call; a sequence mismatch
        # is found before it, so only the per-item path landed bytes.
        assert cut.check.calls == (2 if forged == "crc" else 1)

    def test_stray_key_is_a_protocol_error_before_any_byte(self, binders):
        from repro.simmpi.fabric import ProtocolError

        cut = _Cut39(binders)
        fab = cut.fab
        stray = fab.bind_request(0, [(1, 99, np.ones(4))], [], wire_copy)
        fab.post_send_batch(stray)
        fab.post_send_batch(cut.sender)
        with pytest.raises(ProtocolError, match=r"\(0, 99\)"):
            fab.complete_recv_batch(cut.receiver)
        assert not any(o.any() for o in cut.out) and cut.check.calls == 0

    def test_size_mismatched_peer_is_refused_before_any_byte(self, binders):
        from repro.simmpi.fabric import SplitMismatchError

        seal, check = binders
        fab = SimFabric(2)
        fab.enable_envelope()
        outs = [np.full(4, -1.0), np.full(4, -1.0)]
        kw = {"crc_list": seal, "copy_crc_list": check}
        receiver = fab.bind_request(
            1, [], [(0, 3, outs[0]), (0, 4, outs[1])], wire_copy, **kw
        )
        good = fab.bind_request(
            0, [(1, 3, np.full(4, 1.0)), (1, 4, np.full(4, 2.0))], [], wire_copy, **kw
        )
        fab.post_send_batch(good)
        fab.complete_recv_batch(receiver)
        # Re-binding a changed split drops the receiver's stale half at
        # negotiation, so only the wire's own size guard is left.
        grown = fab.bind_request(
            0, [(1, 3, np.full(4, 7.0)), (1, 4, np.full(5, 8.0))], [], wire_copy, **kw
        )
        fab.post_send_batch(grown)
        with pytest.raises(SplitMismatchError, match="sent 40 bytes, receiving 32"):
            fab.complete_recv_batch(receiver)
        assert outs[0].tolist() == [1.0] * 4 and outs[1].tolist() == [2.0] * 4
        assert check.calls == 1

    def test_a_rebound_peer_rebuilds_the_check_table(self, binders):
        seal, check = binders
        fab = SimFabric(2)
        fab.enable_envelope()
        out = np.full(4, -1.0)
        receiver = fab.bind_request(
            1, [], [(0, 3, out)], wire_copy, crc_list=seal, copy_crc_list=check
        )
        for epoch, value in enumerate((1.0, 2.0)):
            sender = fab.bind_request(0, [(1, 3, np.full(4, value))], [], wire_copy)
            for _ in range(2):
                fab.post_send_batch(sender)
                fab.complete_recv_batch(receiver)
                np.testing.assert_array_equal(out, value)
            assert check.built == epoch + 1
        assert check.calls == 4
        assert fab._guard.delivered[(0, 1, 3)] == (4, None)


@pytest.mark.parametrize("method", ["layout", "memmap", "yask", "mpi_types"])
def test_a_clean_verified_run_judges_no_item(method, monkeypatch):
    """Every exchange of a clean verified 2 x 2 x 2 run takes the common
    case -- one seal, one copy-and-check, two vector compares per cut --
    and never reaches the per-item path; and the run is the plain run,
    bit for bit, on the same ledger."""
    from repro.core.driver import run_executed
    from repro.core.problem import StencilProblem
    from repro.exchange.envelope import EnvelopeGuard
    from repro.stencil.spec import SEVEN_POINT
    from repro.vmem import realmap_available

    if method == "memmap" and not realmap_available():
        pytest.skip("memmap needs memfd_create + mmap(MAP_FIXED)")
    problem = StencilProblem(
        (32, 32, 32), (2, 2, 2), SEVEN_POINT, brick_dim=(8, 8, 8), ghost=8
    )
    plain = run_executed(problem, method, timesteps=3)
    judged = []
    for owner, name in (
        (EnvelopeGuard, "accept"), (EnvelopeGuard, "sift"),
        (SimFabric, "_land"),
    ):
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name, **kw):
            judged.append(_name)
            return _real(*args, **kw)

        monkeypatch.setattr(owner, name, counted)
    guarded = run_executed(problem, method, timesteps=3, verify_wire=True)
    assert judged == []
    assert guarded.global_result.tobytes() == plain.global_result.tobytes()
    assert guarded.fabric.total_stats() == plain.fabric.total_stats()
    for want, got in zip(plain.metrics.ranks, guarded.metrics.ranks):
        assert got.totals.as_dict() == want.totals.as_dict()
        assert (got.timesteps, got.exchanges, got.messages, got.wire_bytes) == (
            want.timesteps, want.exchanges, want.messages, want.wire_bytes
        )
