"""Elastic restart: permanent rank loss, re-bricking, recovery planning.

The acceptance contract of the elastic subsystem: an N-rank run crashed
by a scheduled *permanent* death resumes on M survivor ranks and
finishes bit-identical both to the serial reference and to a fresh
M-rank run restored from the same re-bricked snapshot epoch.
"""

import time

import numpy as np
import pytest

from repro.ckpt import CheckpointStore, NoCommonEpochError, negotiate_epoch
from repro.core.driver import run_executed
from repro.core.geometry import RunGeometry
from repro.core.problem import StencilProblem
from repro.elastic import (
    ClusterTopology,
    candidate_dims,
    choose_rank_dims,
    negotiate_recovery_epoch,
    plan_recovery,
    rebrick,
    snapshot_key,
)
from repro.exchange.envelope import seal
from repro.faults import FaultPlan, RankDeadError
from repro.faults.runtime import FaultInjector
from repro.hardware.profiles import generic_host
from repro.simmpi import SimFabric, run_spmd
from repro.simmpi.collectives import allreduce
from repro.simmpi.fabric import DeadlockError
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import SEVEN_POINT
from tests.conftest import wire_copy

STEPS = 4


def _problem():
    """8 ranks over a domain that still decomposes after losing two."""
    return StencilProblem(
        global_extent=(48, 32, 32),
        rank_dims=(2, 2, 2),
        stencil=SEVEN_POINT,
        brick_dim=(8, 8, 8),
        ghost=8,
    )


class TestFabricLiveness:
    def test_post_to_dead_rank_raises_typed_error(self):
        fab = SimFabric(2, timeout=5.0)
        fab.mark_dead(1)
        assert fab.is_dead(1)
        assert fab.dead_ranks() == [1]
        with pytest.raises(RankDeadError, match="permanently dead"):
            fab.post_send(0, 1, tag=0, buf=np.zeros(4))

    @pytest.mark.parametrize("verified", [False, True])
    def test_post_checks_liveness_in_the_deposit_lock(self, verified):
        """A destination marked dead after ``post_send`` was entered but
        before its deposit gets nothing queued: the dead check shares the
        deposit's lock acquisition."""
        fab = SimFabric(2, timeout=5.0)
        if verified:
            fab.enable_envelope()

        class DiesWhileConverted:
            # np.ascontiguousarray(obj) runs inside post_send, ahead of
            # the deposit: the narrowest spot a death can slip into.
            def __array__(self, dtype=None, copy=None):
                fab.mark_dead(1)
                return np.zeros(4)

        with pytest.raises(RankDeadError, match="permanently dead"):
            fab.post_send(0, 1, tag=0, buf=DiesWhileConverted())
        assert fab.pending_messages == 0
        assert fab.stats[0].sends == 0

    def test_verified_batch_post_checks_liveness_in_the_deposit_lock(self):
        """The bound twin: sealing runs ahead of the deposit (the guard
        asks the injector per item), so a destination that dies in
        between still gets nothing queued -- and neither does a live
        one posted to by the same call."""
        fab = SimFabric(3, timeout=5.0)

        class DiesWhileSealing(FaultInjector):
            def on_post(self, src, dst, tag, seq):
                fab.mark_dead(2)

        fab.enable_envelope(DiesWhileSealing(FaultPlan()))
        fab.set_epoch(0, 0)
        cut = fab.bind_request(
            0, [(1, 0, np.zeros(4)), (2, 0, np.zeros(4))], [], wire_copy
        )
        with pytest.raises(RankDeadError, match="permanently dead"):
            fab.post_send_batch(cut)
        assert fab.pending_messages == 0
        assert fab.stats[0].sends == 0

    def test_recv_from_dead_rank_fails_fast(self):
        """An empty edge from a dead peer raises immediately -- the
        caller must not burn the full deadlock timeout."""
        fab = SimFabric(2, timeout=30.0)
        fab.mark_dead(1)
        start = time.monotonic()
        with pytest.raises(RankDeadError, match="permanently dead"):
            fab.complete_recv(1, 0, tag=0, buf=np.empty(4))
        assert time.monotonic() - start < 5.0

    def test_queued_message_from_dead_rank_still_delivered(self):
        """Death drains in order: data already on the wire arrives, the
        *next* receive on the drained edge raises."""
        fab = SimFabric(2, timeout=5.0)
        fab.post_send(1, 0, tag=0, buf=np.full(4, 7.0))
        fab.mark_dead(1)
        buf = np.empty(4)
        fab.complete_recv(1, 0, tag=0, buf=buf)
        np.testing.assert_array_equal(buf, np.full(4, 7.0))
        with pytest.raises(RankDeadError):
            fab.complete_recv(1, 0, tag=0, buf=buf)

    def test_stale_heartbeat_classifies_peer_as_dead(self):
        fab = SimFabric(2, timeout=0.4)
        fab.set_heartbeat_deadline(0.05)
        fab.heartbeat(1)
        time.sleep(0.1)
        with pytest.raises(RankDeadError, match="heartbeat deadline"):
            fab.complete_recv(1, 0, tag=0, buf=np.empty(1))
        assert fab.is_dead(1)

    def test_no_heartbeat_recorded_stays_a_deadlock(self):
        """A peer that never checked in cannot be declared dead -- the
        timeout keeps its deadlock classification."""
        fab = SimFabric(2, timeout=0.2)
        fab.set_heartbeat_deadline(0.05)
        with pytest.raises(DeadlockError):
            fab.complete_recv(1, 0, tag=0, buf=np.empty(1))
        assert not fab.is_dead(1)

    def test_heartbeat_deadline_must_be_positive(self):
        fab = SimFabric(2)
        with pytest.raises(ValueError):
            fab.set_heartbeat_deadline(0.0)
        fab.set_heartbeat_deadline(None)  # disables; always allowed

    def test_mark_dead_wakes_blocked_receiver(self):
        """A rank blocked in a receive is released promptly when its
        peer is declared dead, and the typed error is the root cause."""

        def fn(comm):
            if comm.rank == 0:
                comm.Recv(np.empty(1), 1, tag=0)
            else:
                time.sleep(0.05)
                comm.fabric.mark_dead(1)

        with pytest.raises(RuntimeError) as info:
            run_spmd(2, fn)
        assert isinstance(info.value.__cause__, RankDeadError)


class TestVerifiedFabricBinds:
    """The envelope rides the bound request: a verified fabric binds and
    fires the fast paths it used to refuse, each item sealed at post
    time and verified where it lands."""

    def _verified_pair(self):
        fab = SimFabric(2, timeout=5.0)
        fab.enable_envelope()
        data, out = np.arange(4.0), np.zeros(4)
        sender = fab.bind_request(0, [(1, 0, data)], [], wire_copy)
        receiver = fab.bind_request(1, [], [(0, 0, out)], wire_copy)
        return fab, sender, receiver, data, out

    def test_batched_posting_sealed(self):
        fab, sender, _receiver, data, _out = self._verified_pair()
        fab.post_send_batch(sender)
        # A clean post queues the plain post's own deposit; the envelope
        # rides on the cut's credit, and expands to the item's.
        ((_dst, deposit),) = sender.deposits
        assert fab._ports[1].fifos[0][0] is deposit
        ((key, view, env, wire),) = fab._guard.expand(1, deposit)[1]
        assert key == (0, 0) and wire is view
        assert env == seal(data, seq=1)
        assert fab.stats[0].sends == 1

    def test_batched_receives_verified(self):
        fab, sender, receiver, data, out = self._verified_pair()
        for step in (1, 2):
            data += step
            fab.post_send_batch(sender)
            fab.complete_recv_batch(receiver)
            fab.wait_send_batch(sender)
            np.testing.assert_array_equal(out, data)
            assert fab._guard.delivered[(0, 1, 0)] == (step, None)
        assert fab.pending_messages == 0


class TestFaultPlanDeaths:
    def test_deaths_round_trip_through_literal(self):
        plan = FaultPlan(seed=9, deaths=((3, 2), (5, 2)))
        again = FaultPlan.from_literal(plan.to_literal())
        assert again.deaths == plan.deaths
        assert again.dead_ranks == (3, 5)

    def test_death_due_matches_schedule(self):
        plan = FaultPlan(seed=0, deaths=((3, 2),))
        assert plan.death_due(3, 2)
        assert not plan.death_due(3, 1)
        assert not plan.death_due(2, 2)

    def test_injector_records_death_once_and_can_disable(self):
        injector = FaultInjector(FaultPlan(seed=0, deaths=((3, 2),)))
        assert injector.death_due(3, 2)
        assert injector.death_due(3, 2)  # idempotent, still due
        assert injector.died() == [(3, 2)]
        assert injector.summary()["events"].get("injected_death") == 1
        injector.deaths_disabled = True  # the post-reshape world
        assert not injector.death_due(3, 2)


class TestPlacement:
    def test_candidate_dims_cover_all_factorizations(self):
        dims = candidate_dims(6, 3)
        assert all(int(np.prod(d)) == 6 for d in dims)
        assert (3, 2, 1) in dims and (3, 1, 2) in dims and (1, 1, 6) in dims

    def test_choose_rank_dims_prefers_most_ranks_then_score(self):
        problem = _problem()
        network = generic_host().network
        # 7 survivors cannot host 7 ranks on (48, 32, 32); the best
        # feasible count is 6, and the score tie-break lands (3, 1, 2).
        assert choose_rank_dims(problem, 7, network) == (3, 1, 2)
        assert choose_rank_dims(problem, 8, network) == (2, 2, 2)

    def test_topology_groups_deaths_into_node_failures(self):
        topo = ClusterTopology(ranks_per_node=2)
        assert topo.failed_nodes([3]) == [1]
        # Losing rank 3 takes down node 1, hence rank 2 with it.
        assert topo.surviving_ranks(8, [3]) == [0, 1, 4, 5, 6, 7]

    def test_plan_recovery_avoids_failed_nodes(self):
        problem = _problem()
        plan = plan_recovery(
            problem, [3], ClusterTopology(ranks_per_node=2),
            generic_host().network,
        )
        assert plan.dead_ranks == (3,)
        assert plan.failed_nodes == (1,)
        assert plan.survivors == (0, 1, 4, 5, 6, 7)
        assert plan.new_rank_dims == (3, 1, 2)
        assert plan.new_problem.nranks == 6
        assert plan.new_problem.global_extent == problem.global_extent


class TestEpochNegotiation:
    def test_required_raises_when_one_rank_has_no_epochs(self):
        per_rank = {0: [1, 2, 3], 1: [], 2: [2, 3]}

        def fn(comm):
            return negotiate_epoch(
                comm, per_rank[comm.rank], allreduce, required=True
            )

        with pytest.raises(RuntimeError) as info:
            run_spmd(3, fn)
        err = info.value.__cause__
        assert isinstance(err, NoCommonEpochError)
        assert err.newest_by_rank == [3, -1, 3]
        assert "rank 1: none" in str(err)

    def test_required_false_keeps_the_minus_one_contract(self):
        def fn(comm):
            return negotiate_epoch(comm, [] if comm.rank else [5], allreduce)

        assert run_spmd(2, fn) == [-1, -1]

    def test_disjoint_epochs_name_each_ranks_newest(self):
        per_rank = {0: [1, 3], 1: [2, 4]}

        def fn(comm):
            return negotiate_epoch(
                comm, per_rank[comm.rank], allreduce, required=True
            )

        with pytest.raises(RuntimeError) as info:
            run_spmd(2, fn)
        err = info.value.__cause__
        assert isinstance(err, NoCommonEpochError)
        assert err.newest_by_rank == [3, 4]

    def test_recovery_negotiation_shards_old_ranks(self, tmp_path):
        problem = _problem()
        run_executed(
            problem, "layout", timesteps=STEPS, seed=0,
            checkpoint_dir=tmp_path, checkpoint_period=1,
        )
        store = CheckpointStore(tmp_path)
        key = snapshot_key(RunGeometry(problem, "layout"), 0, 1)
        # 6 survivors agree on the newest epoch common to all 8 old
        # ranks -- a period-1 run commits through STEPS - 1.
        epoch = negotiate_recovery_epoch(store, problem.nranks, 6, key)
        assert epoch == STEPS - 1

    def test_recovery_negotiation_required_surfaces_typed_error(
        self, tmp_path
    ):
        store = CheckpointStore(tmp_path)  # empty: nobody has snapshots
        with pytest.raises(NoCommonEpochError):
            negotiate_recovery_epoch(
                store, 8, 3, "no-such-key", required=True
            )
        assert negotiate_recovery_epoch(store, 8, 3, "no-such-key") == -1


class TestElasticRestartBitExact:
    """Crashed at N=8 by a permanent death, resumed at M=6: bit-identical
    to the serial reference AND to a fresh 6-rank run restored from the
    same re-bricked epoch.  Every method, with every other feature, is
    in the property of ``tests/test_composition.py``."""

    def test_survives_permanent_rank_loss(self, tmp_path):
        problem = _problem()
        dead_rank = 3
        plan = FaultPlan(seed=1, deaths=((dead_rank, 3),))
        run = run_executed(
            problem, "layout", timesteps=STEPS, seed=0, fault_plan=plan,
            checkpoint_dir=tmp_path, checkpoint_period=1, elastic=True,
            fabric_timeout=15.0,
        )
        assert run.reshapes == 1
        assert run.dead_ranks == (dead_rank,)
        assert run.final_rank_dims == (3, 1, 2)
        assert run.resumed_epoch == 2
        assert run.faults["events"].get("injected_death") == 1
        assert run.faults["events"].get("reshaped") == 1
        reference = apply_periodic_reference(
            problem.initial_global(0), SEVEN_POINT, STEPS
        )
        np.testing.assert_array_equal(run.global_result, reference)

        # A fresh M=6 world restored from the same snapshot epoch: the
        # old store's epoch is re-bricked into a pristine store holding
        # only that epoch, and a plain (non-elastic) resume finishes
        # bit-identical to the elastic run.
        profile = generic_host()
        recovery = plan_recovery(problem, [dead_rank], None, profile.network)
        fresh_store = CheckpointStore(tmp_path / "fresh")
        rebrick(
            CheckpointStore(tmp_path), RunGeometry(problem, "layout", profile),
            run.resumed_epoch, fresh_store,
            RunGeometry(recovery.new_problem, "layout", profile), seed=0,
        )
        fresh = run_executed(
            recovery.new_problem, "layout", timesteps=STEPS, seed=0,
            checkpoint_dir=tmp_path / "fresh", checkpoint_period=1,
            resume=True, fabric_timeout=15.0,
        )
        assert fresh.resumed_epoch == run.resumed_epoch
        np.testing.assert_array_equal(fresh.global_result, run.global_result)

    def test_death_before_first_checkpoint_reshapes_from_scratch(
        self, tmp_path
    ):
        """A rank that dies before committing any epoch leaves no common
        snapshot; the reshape degrades to a seeded cold start on the new
        decomposition -- still bit-exact, never a hang."""
        problem = _problem()
        plan = FaultPlan(seed=0, deaths=((3, 1),))
        run = run_executed(
            problem, "layout", timesteps=STEPS, seed=0, fault_plan=plan,
            checkpoint_dir=tmp_path, checkpoint_period=1, elastic=True,
            fabric_timeout=15.0,
        )
        assert run.reshapes == 1
        assert run.resumed_epoch == -1
        reference = apply_periodic_reference(
            problem.initial_global(0), SEVEN_POINT, STEPS
        )
        np.testing.assert_array_equal(run.global_result, reference)

    def test_two_deaths_same_step_reshape_once(self, tmp_path):
        """Losing a whole node's worth of ranks in one step is a single
        reshape onto the joint survivor set."""
        problem = _problem()
        plan = FaultPlan(seed=0, deaths=((3, 3), (5, 3)))
        run = run_executed(
            problem, "layout", timesteps=STEPS, seed=0, fault_plan=plan,
            checkpoint_dir=tmp_path, checkpoint_period=1, elastic=True,
            fabric_timeout=15.0,
        )
        assert run.reshapes == 1
        assert run.dead_ranks == (3, 5)
        assert run.final_rank_dims == (3, 1, 2)
        reference = apply_periodic_reference(
            problem.initial_global(0), SEVEN_POINT, STEPS
        )
        np.testing.assert_array_equal(run.global_result, reference)

    def test_reshaped_run_reports_the_world_that_finished(self, tmp_path):
        """8 -> 6 at epoch 4 of 8: the ledger restarts with the new
        world, so per-exchange figures are the 1x2x3 world's (rank 0
        sends 42 Layout messages) and per-step figures divide by the
        four steps that world ran -- not by the eight requested."""
        problem = StencilProblem((32, 32, 48), (2, 2, 2), SEVEN_POINT, (8, 8, 8), 8)
        run = run_executed(
            problem, "layout", timesteps=8, seed=0,
            fault_plan=FaultPlan(seed=1, deaths=((3, 5),)),
            checkpoint_dir=tmp_path, checkpoint_period=2, elastic=True,
            fabric_timeout=15.0,
        )
        assert (run.reshapes, run.resumed_epoch) == (1, 4)
        new_world = StencilProblem(
            (32, 32, 48), run.final_rank_dims, SEVEN_POINT, (8, 8, 8), 8
        )
        results = RunGeometry(new_world, "layout").results
        assert run.messages_per_rank == results[0].messages_sent == 42
        assert run.wire_bytes_per_rank == results[0].wire_bytes_sent
        for ledger, fired in zip(run.metrics.ranks, results):
            assert (ledger.timesteps, ledger.exchanges) == (4, 4)
            assert ledger.per_timestep().call == fired.breakdown.call

    def test_crash_restart_in_place_keeps_the_whole_ledger(self, tmp_path):
        """A restart in place restores the ledger from the snapshot meta:
        the same world, the same 39 messages per exchange, all 8 steps."""
        problem = StencilProblem((32, 32, 32), (2, 2, 2), SEVEN_POINT, (8, 8, 8), 8)
        run = run_executed(
            problem, "layout", timesteps=8, seed=0,
            fault_plan=FaultPlan(seed=1, crashes=((3, 5),)),
            checkpoint_dir=tmp_path, checkpoint_period=2, fabric_timeout=15.0,
        )
        assert (run.restarts, run.messages_per_rank) == (1, 39)
        assert all(
            (r.timesteps, r.exchanges) == (8, 8) for r in run.metrics.ranks
        )

    def test_not_elastic_death_is_fatal(self):
        """Without --elastic a permanent death surfaces as the typed
        root cause instead of being absorbed."""
        problem = _problem()
        plan = FaultPlan(seed=0, deaths=((3, 1),))
        with pytest.raises(RuntimeError) as info:
            run_executed(
                problem, "layout", timesteps=STEPS, seed=0,
                fault_plan=plan, fabric_timeout=10.0,
            )
        chain, node = [], info.value
        while node is not None:
            chain.append(node)
            node = node.__cause__ or node.__context__
        assert any(isinstance(n, RankDeadError) for n in chain)
