"""Fabric failure modes: deadlocks, aborts, error cascades."""

import random
import time

import numpy as np
import pytest

from repro.faults.errors import RankDeadError
from repro.simmpi import SimFabric, run_spmd
from repro.simmpi.collectives import allreduce, broadcast
from repro.simmpi.fabric import AbortedError, DeadlockError
from repro.simmpi.launcher import RankFailedError
from tests.conftest import wire_copy


# ----------------------------------------------------------------------
# One wait, one classification: every blocking site x every failure mode
# ----------------------------------------------------------------------
_TAG = 3


def _bound_recv(fab):
    cut = fab.bind_request(0, [], [(1, _TAG, np.empty(4))], wire_copy)
    return lambda: fab.complete_recv_batch(cut)


def _message_recv(fab):
    return lambda: fab.complete_recv(1, 0, _TAG, np.empty(4))


def _verified_recv(fab):
    fab.enable_envelope()
    return _message_recv(fab)


def _verified_bound_recv(fab):
    fab.enable_envelope()
    return _bound_recv(fab)


def _bound_send_wait(fab):
    cut = fab.bind_request(0, [(1, _TAG, np.zeros(4))], [], wire_copy)
    fab.post_send_batch(cut)
    return lambda: fab.wait_send_batch(cut)


def _message_send_wait(fab):
    entry = fab.post_send(0, 1, _TAG, np.zeros(4))
    return lambda: fab.wait_send(entry)


# Rank 0 blocks on rank 1 through each site; the words of its direction.
_RECV = ("receive from", r"message \(src=1")
_SEND = ("send to", r"unmatched send \(dst=1")
_SITES = {
    "bound-recv": (_bound_recv, _RECV),
    "message-recv": (_message_recv, _RECV),
    "verified-recv": (_verified_recv, _RECV),
    "verified-bound-recv": (_verified_bound_recv, _RECV),
    "bound-send-wait": (_bound_send_wait, _SEND),
    "message-send-wait": (_message_send_wait, _SEND),
}


@pytest.mark.parametrize("site", _SITES)
class TestOneClassification:
    """Rank 0 blocks on rank 1 through each of the blocking entry points;
    each failure mode must surface as the same typed error with the same
    message shape, whichever site waited."""

    def _blocked(self, site, disturb):
        """Rank 0 blocks in *site*; rank 1 runs *disturb(fab)* 50 ms into
        the wait and returns.  Returns the fabric and rank 0's error."""

        def fn(comm):
            if comm.rank == 1:
                time.sleep(0.05)
                disturb(comm.fabric)
                return None
            wait = _SITES[site][0](comm.fabric)
            with pytest.raises(Exception) as info:
                wait()
            return info

        fab = SimFabric(2)
        start = time.monotonic()
        info = run_spmd(2, fn, fabric=fab)[0]
        assert time.monotonic() - start < 3.0
        return fab, info

    def test_abort(self, site):
        _fab, info = self._blocked(site, SimFabric.abort)
        assert info.type is AbortedError
        assert info.match("another rank failed; (aborting receive|abandoning send)")

    def test_dead_peer(self, site):
        fab, info = self._blocked(site, lambda fab: fab.mark_dead(1))
        assert info.type is RankDeadError
        assert info.match(
            rf"rank 0 cannot {_SITES[site][1][0]} rank 1 \(tag={_TAG}\):"
            " rank 1 is permanently dead"
        )
        assert not fab._failed  # a death is not an abort

    def test_deadlock(self, site):
        # Rank 1 returns without a word: once it retires, every live
        # rank is blocked.
        fab, info = self._blocked(site, lambda fab: None)
        assert info.type is DeadlockError
        assert info.match(
            rf"rank 0 deadlocked waiting for {_SITES[site][1][1]}, tag={_TAG}\):"
            " every rank is blocked or finished"
        )
        assert not fab._failed  # seen, not timed out: nothing aborted

    def test_bare_fabric_deadlocks_at_once(self, site):
        # No launcher declared a rank: the calling thread drives them
        # all, so a wait that is not ready can never become ready.
        fab = SimFabric(2)
        with pytest.raises(DeadlockError, match=f"tag={_TAG}"):
            _SITES[site][0](fab)()


class TestDeadlockDetection:
    def test_unmatched_recv_detected(self):
        def fn(comm):
            buf = np.empty(1)
            comm.Recv(buf, (comm.rank + 1) % comm.size, tag=99)

        with pytest.raises(RuntimeError, match="deadlocked waiting for message"):
            run_spmd(2, fn)

    def test_unmatched_send_detected(self):
        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(1), 1, tag=5)  # nobody receives
            else:
                # rank 1 sits at the barrier: a fabric wait, so the
                # detector counts it as blocked
                try:
                    comm.Barrier()
                except Exception:
                    pass

        with pytest.raises(RuntimeError, match="unmatched|Deadlock|deadlock"):
            run_spmd(2, fn)

    def test_tag_mismatch_is_a_deadlock(self):
        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(1), 1, tag=1)
            else:
                comm.Recv(np.empty(1), 0, tag=2)

        with pytest.raises(RuntimeError):
            run_spmd(2, fn)

    def test_a_deadlock_is_reported_the_same_way_every_time(self):
        """A 3-rank cycle of receives, entered in a random order: every
        blocked rank raises its own DeadlockError before the abort the
        first raise makes, so the launcher always reports rank 0's edge,
        at once.  Were the abort to win, the rank that blocked last --
        it detects and runs on first -- would be reported instead."""
        order = random.Random(7)

        def fn(comm, delay):
            time.sleep(delay)
            comm.Recv(np.empty(1), (comm.rank + 1) % comm.size, tag=comm.rank)

        messages = set()
        for _ in range(20):
            delays = [order.choice((0.0, 0.002, 0.004)) for _ in range(3)]
            start = time.monotonic()
            with pytest.raises(RankFailedError) as info:
                run_spmd(3, lambda comm: fn(comm, delays[comm.rank]))
            assert time.monotonic() - start < 1.0
            assert isinstance(info.value.__cause__, DeadlockError)
            messages.add(str(info.value))
        assert messages == {
            "rank 0 failed: DeadlockError('rank 0 deadlocked waiting for"
            " message (src=1, tag=0): every rank is blocked or finished')"
        }

    def test_barrier_against_a_receive_raises(self):
        def fn(comm):
            if comm.rank == 0:
                comm.Barrier()
            else:
                comm.Recv(np.empty(1), 0, tag=4)

        with pytest.raises(RankFailedError) as info:
            run_spmd(2, fn)
        assert isinstance(info.value.__cause__, DeadlockError)
        assert info.match(
            r"rank 0 deadlocked waiting for barrier arrival \(rank=1\)"
        )

    def test_bound_ping_pong_with_a_sleepy_rank_never_deadlocks(self):
        """10 000 exchanges in which rank 1 sleeps 0-50 us at random
        before each: a rank woken but not yet running is not blocked, so
        no handoff is ever mistaken for a deadlock."""
        exchanges = 10_000

        def fn(comm):
            rank, fab = comm.rank, comm.fabric
            peer = 1 - rank
            send, recv = np.zeros(1), np.empty(1)
            cut = fab.bind_request(rank, [(peer, 0, send)], [(peer, 0, recv)],
                                   wire_copy)
            sleepy = random.Random(rank) if rank == 1 else None
            for i in range(exchanges):
                if sleepy is not None:
                    time.sleep(sleepy.uniform(0.0, 50e-6))
                send[0] = i + rank
                fab.post_send_batch(cut)
                fab.complete_recv_batch(cut)
                fab.wait_send_batch(cut)
                assert recv[0] == i + peer
            return exchanges

        fab = SimFabric(2)
        assert run_spmd(2, fn, fabric=fab) == [exchanges] * 2
        assert fab.pending_messages == 0


class TestAbortCascades:
    def test_one_failure_releases_blocked_peers(self):
        """A raise on one rank must not leave others hanging on recvs."""

        def fn(comm):
            if comm.rank == 0:
                raise RuntimeError("original failure")
            comm.Recv(np.empty(1), 0, tag=0)  # would block forever

        with pytest.raises(RuntimeError, match="original failure"):
            run_spmd(3, fn)

    def test_root_cause_reported_not_fallout(self):
        """The launcher reports the originating exception, not the
        AbortedError noise other ranks see -- in the barrier too."""

        def fn(comm):
            if comm.rank == 2:
                raise ValueError("root cause")
            comm.Barrier()

        with pytest.raises(RuntimeError, match="rank 2.*root cause"):
            run_spmd(4, fn)

    def test_fabric_unusable_after_abort(self):
        fab = SimFabric(2)
        fab.abort()
        with pytest.raises(AbortedError):
            fab.complete_recv(0, 1, 0, np.empty(1))


class TestCollectiveAbortPropagation:
    """Satellite (c): a crash inside a collective must release the peers
    blocked in the same collective, with the crash as the reported root
    cause -- not a bare deadlock."""

    def test_crash_inside_barrier_releases_peers(self):
        def fn(comm):
            if comm.rank == 0:
                raise RuntimeError("rank 0 died before the barrier")
            comm.Barrier()  # the fabric barrier

        with pytest.raises(RuntimeError, match="rank 0 died") as info:
            run_spmd(4, fn)
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_crash_inside_allreduce_releases_peers(self):
        def fn(comm):
            if comm.rank == 2:
                raise ValueError("rank 2 died mid-reduction")
            return allreduce(comm, np.asarray(float(comm.rank)), np.maximum)

        with pytest.raises(RuntimeError, match="rank 2.*died mid-reduction"):
            run_spmd(4, fn)

    def test_crash_inside_broadcast_releases_peers(self):
        def fn(comm):
            if comm.rank == 0:
                raise RuntimeError("root died before broadcasting")
            return broadcast(comm, np.zeros(4))

        with pytest.raises(RuntimeError, match="root died"):
            run_spmd(4, fn)

    def test_peers_see_aborted_not_deadlock(self):
        """The fallout on surviving ranks is AbortedError (fail-fast),
        which the launcher demotes in favor of the root cause."""
        seen = {}

        def fn(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            try:
                allreduce(comm, np.asarray(1.0), np.add)
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                seen[comm.rank] = exc
                raise

        with pytest.raises(RuntimeError, match="boom"):
            run_spmd(3, fn)
        assert seen  # at least one peer was actually blocked
        for exc in seen.values():
            assert isinstance(exc, AbortedError)

    def test_injected_crash_root_cause_through_collectives(
        self, small_problem
    ):
        """End-to-end: a scheduled mid-run crash during a degrade-voting
        (collective-using) run surfaces InjectedCrashError as the cause."""
        from repro.core.driver import run_executed
        from repro.faults import FaultPlan, InjectedCrashError

        plan = FaultPlan(seed=1, crashes=((2, 1),), degrade=((0, 1),))
        with pytest.raises(RuntimeError) as info:
            run_executed(small_problem, "memmap", timesteps=2, seed=0,
                         fault_plan=plan)
        chain, node = [], info.value
        while node is not None:
            chain.append(node)
            node = node.__cause__ or node.__context__
        assert any(isinstance(n, InjectedCrashError) for n in chain)


class TestPendingAccounting:
    def test_pending_messages_counter(self):
        fab = SimFabric(2)
        assert fab.pending_messages == 0
        fab.post_send(0, 1, 7, np.zeros(4))
        assert fab.pending_messages == 1
        fab.complete_recv(0, 1, 7, np.empty(4))
        assert fab.pending_messages == 0

    def test_clean_run_leaves_no_pending(self, small_problem, theta):
        from repro.core.driver import run_executed

        run = run_executed(small_problem, "layout", theta, timesteps=2)
        assert run.fabric.pending_messages == 0
