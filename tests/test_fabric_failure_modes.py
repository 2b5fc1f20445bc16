"""Fabric failure modes: deadlocks, aborts, error cascades, timeouts."""

import threading
import time

import numpy as np
import pytest

import repro.simmpi.fabric as fabric_mod
from repro.faults.errors import RankDeadError
from repro.simmpi import SimFabric, run_spmd
from repro.simmpi.collectives import allreduce, broadcast
from repro.simmpi.fabric import AbortedError, DeadlockError
from tests.conftest import wire_copy


@pytest.fixture
def fast_timeout(monkeypatch):
    """Shrink the deadlock timeout so failure tests run quickly."""
    monkeypatch.setattr(fabric_mod, "_DEADLOCK_TIMEOUT", 0.5)


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
    """Rank 0 blocks on the silent rank 1 through each of the blocking
    entry points; each failure mode must surface as the same
    typed error with the same message shape, whichever site waited."""

    def _blocked(self, site, timeout, disturb=None):
        """Block in *site*; *disturb(fab)* fires 50 ms into the wait."""
        fab = SimFabric(2, timeout=timeout)
        wait = _SITES[site][0](fab)
        timer = threading.Timer(0.05, disturb, (fab,)) if disturb else None
        if timer:
            timer.start()
        start = time.monotonic()
        try:
            with pytest.raises(Exception) as info:
                wait()
        finally:
            if timer:
                timer.join(timeout=5.0)
        assert time.monotonic() - start < 3.0
        return fab, info

    def test_abort(self, site):
        _fab, info = self._blocked(site, 30.0, SimFabric.abort)
        assert info.type is AbortedError
        assert info.match("another rank failed; (aborting receive|abandoning send)")

    def test_dead_peer(self, site):
        fab, info = self._blocked(site, 30.0, lambda fab: fab.mark_dead(1))
        assert info.type is RankDeadError
        assert info.match(
            rf"rank 0 cannot {_SITES[site][1][0]} rank 1 \(tag={_TAG}\):"
            " rank 1 is permanently dead"
        )
        assert not fab._failed  # a death is not an abort

    def test_stale_heartbeat(self, site):
        def beat_once(fab):
            fab.set_heartbeat_deadline(0.05)
            fab.heartbeat(1)

        fab, info = self._blocked(site, 0.3, beat_once)
        assert info.type is RankDeadError
        assert info.match("rank 1 missed its heartbeat deadline; declaring it dead")
        assert fab.is_dead(1) and fab._failed

    def test_timeout(self, site):
        fab, info = self._blocked(site, 0.2)
        assert info.type is DeadlockError
        assert info.match(
            rf"rank 0 waited 0\.2s for {_SITES[site][1][1]}, tag={_TAG}\)"
        )
        assert fab._failed  # a timeout aborts the fabric for everyone else


class TestDeadlockDetection:
    def test_unmatched_recv_detected(self, fast_timeout):
        def fn(comm):
            buf = np.empty(1)
            comm.Recv(buf, (comm.rank + 1) % comm.size, tag=99)

        with pytest.raises(RuntimeError, match="waited"):
            run_spmd(2, fn)

    def test_unmatched_send_detected(self, fast_timeout):
        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(1), 1, tag=5)  # nobody receives
            else:
                # rank 1 sits at the barrier forever; abort must reach it
                try:
                    comm.Barrier()
                except Exception:
                    pass

        with pytest.raises(RuntimeError, match="unmatched|Deadlock|deadlock"):
            run_spmd(2, fn)

    def test_tag_mismatch_is_a_deadlock(self, fast_timeout):
        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(1), 1, tag=1)
            else:
                comm.Recv(np.empty(1), 0, tag=2)

        with pytest.raises(RuntimeError):
            run_spmd(2, fn)


class TestAbortCascades:
    def test_one_failure_releases_blocked_peers(self, fast_timeout):
        """A raise on one rank must not leave others hanging on recvs."""

        def fn(comm):
            if comm.rank == 0:
                raise RuntimeError("original failure")
            comm.Recv(np.empty(1), 0, tag=0)  # would block forever

        with pytest.raises(RuntimeError, match="original failure"):
            run_spmd(3, fn)

    def test_root_cause_reported_not_fallout(self, fast_timeout):
        """The launcher reports the originating exception, not the
        BrokenBarrier/Aborted noise other ranks see."""

        def fn(comm):
            if comm.rank == 2:
                raise ValueError("root cause")
            comm.Barrier()

        with pytest.raises(RuntimeError, match="rank 2.*root cause"):
            run_spmd(4, fn)

    def test_fabric_unusable_after_abort(self, fast_timeout):
        fab = SimFabric(2)
        fab.abort()
        with pytest.raises(AbortedError):
            fab.complete_recv(0, 1, 0, np.empty(1))


class TestTimeoutConfiguration:
    def test_constructor_argument(self):
        assert SimFabric(2, timeout=3.5).timeout == 3.5

    def test_module_default_when_unset(self):
        assert SimFabric(2).timeout == fabric_mod._DEADLOCK_TIMEOUT

    def test_monkeypatched_module_default_still_works(self, fast_timeout):
        # The legacy override path used throughout this file: a fabric
        # without an explicit timeout follows the module global live.
        assert SimFabric(2).timeout == 0.5

    def test_environment_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_FABRIC_TIMEOUT", "2.25")
        assert SimFabric(2).timeout == 2.25
        # Explicit argument wins over the environment.
        assert SimFabric(2, timeout=1.0).timeout == 1.0

    def test_bad_environment_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_FABRIC_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_FABRIC_TIMEOUT"):
            SimFabric(2)

    def test_set_timeout_validation(self):
        fab = SimFabric(2, timeout=5.0)
        fab.set_timeout(1.5)
        assert fab.timeout == 1.5
        fab.set_timeout(None)  # back to the module default
        assert fab.timeout == fabric_mod._DEADLOCK_TIMEOUT
        with pytest.raises(ValueError, match="positive"):
            fab.set_timeout(0.0)
        with pytest.raises(ValueError, match="positive"):
            SimFabric(2, timeout=-1.0)

    def test_run_spmd_timeout_governs_deadlock(self):
        def fn(comm):
            if comm.rank == 1:
                comm.Recv(np.empty(1), 0, tag=9)  # never sent

        with pytest.raises(RuntimeError, match="waited 0.4"):
            run_spmd(2, fn, timeout=0.4)

    def test_run_spmd_timeout_overrides_supplied_fabric(self):
        fab = SimFabric(2, timeout=60.0)

        def fn(comm):
            pass

        run_spmd(2, fn, fabric=fab, timeout=0.7)
        assert fab.timeout == 0.7


class TestCollectiveAbortPropagation:
    """Satellite (c): a crash inside a collective must release the peers
    blocked in the same collective, with the crash as the reported root
    cause -- not a bare deadlock or barrier timeout."""

    def test_crash_inside_barrier_releases_peers(self, fast_timeout):
        def fn(comm):
            if comm.rank == 0:
                raise RuntimeError("rank 0 died before the barrier")
            comm.Barrier()  # the fabric barrier

        with pytest.raises(RuntimeError, match="rank 0 died") as info:
            run_spmd(4, fn)
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_crash_inside_allreduce_releases_peers(self, fast_timeout):
        def fn(comm):
            if comm.rank == 2:
                raise ValueError("rank 2 died mid-reduction")
            return allreduce(comm, np.asarray(float(comm.rank)), np.maximum)

        with pytest.raises(RuntimeError, match="rank 2.*died mid-reduction"):
            run_spmd(4, fn)

    def test_crash_inside_broadcast_releases_peers(self, fast_timeout):
        def fn(comm):
            if comm.rank == 0:
                raise RuntimeError("root died before broadcasting")
            return broadcast(comm, np.zeros(4))

        with pytest.raises(RuntimeError, match="root died"):
            run_spmd(4, fn)

    def test_peers_see_aborted_not_deadlock(self, fast_timeout):
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
        self, fast_timeout, small_problem
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
