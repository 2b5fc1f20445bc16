"""Executed distributed driver: real data movement over simulated ranks.

Runs a :class:`~repro.core.problem.StencilProblem` for a number of
timesteps with a chosen exchange method.  Each rank is a thread in the
:mod:`repro.simmpi` fabric; data really moves; stencils are really applied
(vectorized).  Per-timestep *times* are modelled: each exchange a rank
fires is charged, into the rank's one ledger, the price of the plan it
bound (the pricer the figure benches' model also uses), while the run
additionally verifies itself: the assembled global result must equal the
serial periodic reference bit-for-bit.

This module sets a run up and never steps time itself.  The launching
thread builds one :class:`~repro.core.geometry.RunGeometry` per launched
world -- decomposition, slot assignment, adjacency, every rank's frozen
message plan, the initial condition -- has ``repro.check`` verify that
object when asked to, and hands it to the ranks.  A rank does only what
is per rank: it builds one :class:`_RankState` -- the two buffers, the
compiled stencil plan per cycle position, the checkpoint run layout --
from either storage kind (:func:`_array_state`, :func:`_brick_state`),
binds its plan to each buffer, wraps the exchange engines into a
:class:`~repro.core.runplan.RankRunPlan`, attaches the requested
features as step hooks (crash check, checkpoint save, degradation vote,
envelope retry) and replays the plan.  Every run,
whatever is switched on, goes through that one loop, writes its block
of the final field into the run's global result and returns its ledger
(:class:`~repro.core.metrics.RankMetrics`).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.brick.convert import bricks_to_extended, extended_to_bricks
from repro.core.expansion import (
    brick_cycle_slots,
    depths_for_period,
    margins_for_period,
    open_faces,
    resolve_period,
)
from repro.core.geometry import RunGeometry
from repro.core.methods import method_info
from repro.core.metrics import RankMetrics, RunMetrics
from repro.core.model import compute_time
from repro.core.problem import StencilProblem
from repro.core.runplan import RankRunPlan, make_engines
from repro.ckpt import (
    CheckpointConfig,
    CheckpointError,
    CheckpointStore,
    RankCheckpointer,
    negotiate_epoch,
    problem_key,
    snapshot_runs,
)
from repro.faults.errors import (
    ExchangeIntegrityError,
    ExchangeTimeoutError,
    InjectedCrashError,
    RankDeadError,
)
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.faults.runtime import FaultInjector
from repro.obs import TRACER as _TRACER
from repro.exchange.base import ExchangeResult
from repro.hardware.profiles import MachineProfile, generic_host
from repro.simmpi.collectives import allreduce
from repro.simmpi.comm import SimComm
from repro.simmpi.fabric import SimFabric
from repro.simmpi.launcher import RankFailedError, run_spmd
from repro.stencil import cbackend
from repro.stencil.kernels import owned_slices
from repro.stencil.plan import compile_array_plan, compile_brick_plan
from repro.util.timing import TimeBreakdown
from repro.vmem import realmap_available

__all__ = ["ExecutedRun", "run_executed"]


@dataclass
class ExecutedRun:
    """Everything one executed run produced; the per-exchange message
    figures are rank 0's, read off its ledger."""

    method: str
    global_result: np.ndarray
    metrics: RunMetrics
    fabric: SimFabric
    exchange_period: int = 1  # steps between exchanges (ghost expansion)
    final_method: str = ""  # exchange engine in use at the end of the run
    demotions: int = 0  # total degradation-ladder steps across all ranks
    faults: Optional[dict] = None  # injector summary (chaos runs only)
    restarts: int = 0  # world relaunches after survivable crashes
    resumed_epoch: int = -1  # negotiated restore epoch (-1: from scratch)
    checkpoint_saves: int = 0  # snapshots committed by rank 0
    checkpoint_bytes: int = 0  # snapshot bytes written across all ranks
    reshapes: int = 0  # elastic reshapes after permanent rank deaths
    final_rank_dims: Tuple[int, ...] = ()  # decomposition the run ended on
    dead_ranks: Tuple[int, ...] = ()  # old-world ranks lost permanently
    # What the stencil plans stepped on: "cffi", or "cffi (portable
    # flags: ...)" when the compiler refused the host flags.
    kernel_backend: str = ""
    # What the exchange moved bytes with, as the engines that finished
    # the run were bound: "cffi", with the reason appended where a
    # verified fabric checksums with zlib.crc32 (no carry-less multiply).
    copy_backend: str = ""

    @property
    def messages_per_rank(self) -> int:
        return self.metrics.ranks[0].messages_per_exchange

    @property
    def wire_bytes_per_rank(self) -> int:
        return self.metrics.ranks[0].wire_bytes_per_exchange

    @property
    def padding_fraction(self) -> float:
        return self.metrics.ranks[0].padding_fraction

    @property
    def mapping_count(self) -> int:
        """Live stitched-view mappings (MemMap only; 0 otherwise)."""
        return self.metrics.ranks[0].mappings


def _close_all(resources: Sequence) -> None:
    """Close whatever in *resources* has a ``close`` (views, arenas)."""
    for res in resources:
        close = getattr(res, "close", None)
        if close:
            close()


@dataclass
class _SnapshotLayout:
    """How a rank state is checkpointed: its runs per step and buffer."""

    # [exchange step, mid-cycle] -> per buffer: the store's (section
    # table, zero-copy uint8 view) runs, as :func:`snapshot_runs` rules
    runs: list
    period: int

    def at(self, step: int, buf: int) -> list:
        """The runs a snapshot of buffer *buf* before *step* holds."""
        return self.runs[step % self.period != 0][buf]


def _snapshot_layout(
    geometry: RunGeometry, rank: int, period: int, buffers
) -> _SnapshotLayout:
    """*buffers* are ``(slot_bytes, slot_nbytes)`` per buffer."""
    return _SnapshotLayout(
        runs=[
            [[run.chunk(*buf) for run in runs] for buf in buffers]
            for runs in (
                snapshot_runs(geometry, rank, step, period)
                for step in range(min(period, 2))  # exchange step, mid-cycle
            )
        ],
        period=period,
    )


@dataclass
class _RankState:
    """One rank's double-buffered field, for either storage kind.

    What the run plan steps (``buffers``, ``plans``), what the cost
    model prices (``computed_points``), how the checkpointer sees it
    (``snapshot_layout``), plus the exchangers currently bound to the
    buffers.  Built by :func:`_array_state` or :func:`_brick_state`;
    nothing downstream asks which.
    """

    buffers: list  # the two extended arrays / BrickStorages
    plans: list  # compiled stencil plan per cycle position
    computed_points: List[int]  # stencil points evaluated per position
    snapshot_layout: Callable[[int], _SnapshotLayout]  # of a rank; checkpointed runs
    fill: Callable[[np.ndarray], None]  # owned initial values into buffer 0
    result: Callable[[int, np.ndarray], None]  # buffer i's owned region into out
    exchangers: list = field(default_factory=list)
    ladder_level: Optional[int] = None  # None: no degradation ladder
    # What the launching thread reads once the world has joined.
    checkpointer: Optional[RankCheckpointer] = None
    resumed_epoch: int = -1  # negotiated restore epoch (-1: from scratch)
    copy_backend: str = ""  # what the engines the run ended on moved bytes with

    def close(self) -> None:
        """Unmap the views and release the arenas.

        A raw ``munmap``: only safe once no peer can still be reading a
        send buffer this rank posted, i.e. after the world's threads
        have joined (see :func:`run_executed`).
        """
        _close_all(self.exchangers)
        _close_all(self.buffers)
        self.exchangers = []


def _array_state(geometry: RunGeometry, period: int, faces) -> _RankState:
    """*faces*: the rank's :func:`open_faces`, which no margin grows past."""
    problem = geometry.problem
    ext, g, spec = geometry.extent, geometry.ghost, problem.stencil
    margins = [
        [(0 if below else m, 0 if above else m) for below, above in faces]
        for m in margins_for_period(period, spec.radius, g)
    ]
    own = owned_slices(ext, g)
    arrays = [
        np.zeros(geometry.extended_shape, dtype=problem.dtype) for _ in range(2)
    ]

    def fill(owned: np.ndarray) -> None:
        arrays[0][own] = owned

    def result(src: int, out: np.ndarray) -> None:
        out[...] = arrays[src][own]

    return _RankState(
        buffers=arrays,
        plans=[
            compile_array_plan(spec, ext, g, m) for m in margins
        ],
        computed_points=[
            int(np.prod([e + lo + hi for e, (lo, hi) in zip(ext, m)]))
            for m in margins
        ],
        # The whole extended subdomain (ghost margins included) is one
        # run of one "slot", rewritten by every step; the margins make
        # mid-cycle restores of period>1 runs self-contained.
        snapshot_layout=lambda rank: _snapshot_layout(
            geometry, rank, period,
            [
                (lambda start, n, a=a: a.reshape(-1).view(np.uint8), a.nbytes)
                for a in arrays
            ],
        ),
        fill=fill,
        result=result,
    )


def _brick_state(geometry: RunGeometry, period: int, faces) -> _RankState:
    """Allocate and compile over the shared geometry; nothing here
    derives a decomposition, an assignment or an adjacency.  *faces*:
    the rank's :func:`open_faces`, whose ghost bricks are never swept."""
    spec = geometry.problem.stencil
    decomp, asn, binfo = geometry.decomp, geometry.assignment, geometry.brick_info
    if geometry.base == "memmap":
        storages = [decomp.mmap_alloc(geometry.page_size)[0] for _ in range(2)]
    else:
        storages = [decomp.allocate()[0] for _ in range(2)]
    cycle_slots = brick_cycle_slots(
        decomp, asn, depths_for_period(period, decomp.width), faces
    )

    # Straight between the owned block of a global array and the owned
    # bricks' slots: one mover call over the geometry's conversion table
    # each way.  Ghost bricks keep the allocation's zeros until the
    # first exchange fills them (open faces: for good).
    def fill(owned: np.ndarray) -> None:
        extended_to_bricks(owned, decomp, storages[0], asn)

    def result(src: int, out: np.ndarray) -> None:
        bricks_to_extended(decomp, storages[src], asn, out=out)

    def snapshot_layout(rank: int) -> _SnapshotLayout:
        # Snapshots of the src storage only: the ghost-expansion
        # invariant (bricks read at cycle position pos+1 were computed at
        # pos) means the dst buffer never contributes bytes a resumed run
        # could read.
        return _snapshot_layout(
            geometry, rank, period,
            [(st.slot_bytes, st.brick_bytes) for st in storages],
        )

    return _RankState(
        buffers=storages,
        # What a step reads (the slot set's adjacency rows, a halo
        # tile), built once per cycle position;
        # the scratch is this rank's, the adjacency the geometry's.
        plans=[
            compile_brick_plan(spec, binfo, slots)
            for slots in cycle_slots
        ],
        computed_points=[len(s) * decomp.brick_volume for s in cycle_slots],
        snapshot_layout=snapshot_layout,
        fill=fill,
        result=result,
    )


# Degradation ladder for MemMap runs: when the mapping machinery fails
# (mmap refusal, vm.max_map_count budget), the run demotes -- collectively
# -- to basic Layout exchange over the same padded storage, which maps
# nothing.  Only the exchange engine changes; storage, assignment and
# results stay identical.
_LADDER = ("memmap", "basic")


def _bind_rung(cart, geometry: RunGeometry, state: _RankState, level) -> bool:
    """Bind *state* to the engine of ladder *level* on every rank or on
    none (allreduce-max of the failures), so peers always run
    wire-compatible engines; True when bound."""
    built = []
    try:
        for buf in state.buffers:
            built.append(geometry.bind(_LADDER[level], cart, buf))
        failed = 0
    except (OSError, ValueError):
        failed = 1
    if int(allreduce(cart, np.asarray(failed), np.maximum)):
        _close_all(built)
        return False
    state.exchangers, state.ladder_level = built, level
    return True


def _build_ladder(
    cart, geometry: RunGeometry, state: _RankState, level, injector, step
):
    """Bind *state* at ladder *level*: a MemMap binding that fails on any
    rank demotes every rank to basic, and a basic one ends the run."""
    if level == 0 and _bind_rung(cart, geometry, state, 0):
        return
    if level == 0 and injector is not None:
        injector.record("demoted", src=cart.rank, step=step)
    if not _bind_rung(cart, geometry, state, 1):
        raise RuntimeError(
            "degradation ladder exhausted: basic Layout exchange failed to bind"
        )


def _vmem_probe_failed(storage) -> bool:
    """Try the cheapest possible stitched view; True when mapping fails."""
    try:
        view = storage.make_view([(0, storage.arena.page_size)])
    except OSError:
        return True
    view.close()
    return False


def _ladder_vote(
    cart, geometry: RunGeometry, state: _RankState, injector, t, src
) -> bool:
    """Degradation vote of a run on MemMap, at its plan's degrade step: a
    rank whose mapping machinery fails a live probe asks for demotion;
    allreduce-max keeps every rank on the same (wire-compatible) engine.
    True when the exchangers were rebuilt."""
    rank = cart.rank
    want = 0
    if injector.degrade_due(rank, t):
        with injector.vmem_armed("view_map_chunk"):
            if _vmem_probe_failed(state.buffers[src]):
                injector.record("vmem_fault", src=rank, step=t)
                want = 1
    if not int(allreduce(cart, np.asarray(want), np.maximum)):
        return False
    _close_all(state.exchangers)
    injector.record("demoted", src=rank, step=t)  # one injector, all ranks
    _build_ladder(cart, geometry, state, 1, injector, t)
    return True


def _crash_check(comm: SimComm, injector: FaultInjector, t: int) -> None:
    rank = comm.rank
    if injector.death_due(rank, t):
        # Permanent node loss, checked before the crash: death wins.
        # Marking the fabric makes peers targeting this rank fail
        # fast with the same typed error.
        comm.fabric.mark_dead(rank)
        raise RankDeadError(
            f"rank {rank} died permanently at step {t} (scheduled by"
            f" fault plan seed {injector.plan.seed})"
        )
    if injector.crash_due(rank, t):
        raise InjectedCrashError(
            f"rank {rank} crashed at step {t} (scheduled by fault plan"
            f" seed {injector.plan.seed})"
        )


def _exchange_with_retry(
    comm: SimComm,
    fire: Callable[[], ExchangeResult],
    t: int,
    retry: RetryPolicy,
    injector: Optional[FaultInjector],
) -> ExchangeResult:
    """One enveloped exchange, healed by bounded retry-with-backoff.

    *fire* is a channel's exchange.  Safe because a receive that detects
    faults judges every item it took, leaves the failed ones queued
    pristine and raises once, and a re-fire in the same epoch is
    idempotent (posts absorbed, accepted receives skipped): one retry
    heals the exchange's one cut, however many of its items were
    faulted; see DESIGN.md.
    """
    rank = comm.rank
    comm.set_epoch(t)
    try:
        attempt = 0
        while True:
            try:
                result = fire()
            except (ExchangeIntegrityError, ExchangeTimeoutError):
                if attempt >= retry.max_retries:
                    raise
                if injector is not None:
                    injector.record("retry", src=rank, step=t)
                time.sleep(retry.sleep_for(attempt))
                attempt += 1
                continue
            if attempt and injector is not None:
                injector.record("healed", src=rank, step=t)
            return result
    finally:
        comm.set_epoch(None)


def _ckpt_meta(
    t: int,
    ledger: RankMetrics,
    ladder_level,
    period: int,
    adjacency_crc: int,
    injector: Optional[FaultInjector],
) -> dict:
    """Everything besides the field bytes a resumed rank needs back."""
    return {
        "step": int(t),
        "ledger": ledger.record(),
        "ladder_level": ladder_level,
        "period": int(period),
        "adjacency_crc": int(adjacency_crc),
        "fired_crashes": injector.crashed() if injector is not None else [],
    }


def _ckpt_apply_meta(
    meta: dict,
    ledger: RankMetrics,
    period: int,
    adjacency_crc: int,
    injector: Optional[FaultInjector],
) -> int:
    """Re-install restored cursors; returns the step to resume from."""
    if int(meta["period"]) != period:
        raise CheckpointError(
            f"snapshot was taken with exchange period {meta['period']},"
            f" this run uses {period}"
        )
    if int(meta["adjacency_crc"]) != int(adjacency_crc):
        raise CheckpointError(
            "snapshot adjacency/layout permutation does not match the"
            " rebuilt BrickInfo"
        )
    level = meta.get("ladder_level")
    if level not in (None, 0, 1):
        raise CheckpointError(
            f"snapshot was taken at degradation ladder level {level}; the"
            f" ladder {_LADDER} has levels 0 and 1 only"
        )
    if "ledger" not in meta:
        raise CheckpointError(
            "snapshot carries no run ledger: it was written before the"
            " ledger was checkpointed as one record and cannot be resumed"
        )
    ledger.restore(meta["ledger"])
    if injector is not None:
        injector.mark_fired(meta.get("fired_crashes") or ())
    return int(meta["step"])


def _rank_fn(
    comm: SimComm,
    geometry: RunGeometry,
    timesteps: int,
    seed: int,
    exchange_period,
    injector: Optional[FaultInjector],
    retry: Optional[RetryPolicy],  # None: no envelope on the fabric
    degrade_enabled: bool,
    ckpt: Optional[CheckpointConfig],
    states: List[_RankState],
    global_result: np.ndarray,
):
    """One rank's run; its owned block of the final field lands in
    *global_result* (each rank writes only its own block)."""
    problem, method, profile = geometry.problem, geometry.method, geometry.profile
    info, spec = method_info(method), problem.stencil
    cart = comm.Create_cart(
        problem.rank_dims, periods=[problem.periodic] * problem.ndim
    )
    rank = comm.rank
    # Raised here, by every rank, when the ghost width cannot support it.
    period = resolve_period(problem, method, exchange_period)
    faces = open_faces(problem, cart.coords)
    if info.uses_bricks:
        state = _brick_state(geometry, period, faces)
    else:
        state = _array_state(geometry, period, faces)
    # The launching thread closes the state once every rank has joined.
    states.append(state)

    # The one ledger of this rank: the run loop charges it, the
    # checkpoint meta saves and restores it as one record.
    ledger = RankMetrics(rank, measured=TimeBreakdown())
    start_step = 0
    restore_level = 0
    cp = snap = None
    if ckpt is not None:
        snap = state.snapshot_layout(rank)
        key = problem_key(problem, seed, method, *geometry.slot_key, period)
        cp = RankCheckpointer(ckpt, rank, key)
        state.checkpointer = cp
        adjacency_crc = geometry.adjacency_crc
        if ckpt.resume:
            epoch = negotiate_epoch(cart, cp.verified_epochs(), allreduce)
            if epoch >= 0:
                # Restoring writes through the arena, so MemMap stitched
                # views built below alias the restored bytes directly
                # (vmem re-attach).
                meta = cp.restore(epoch, snap.at(epoch, 0))
                start_step = _ckpt_apply_meta(
                    meta, ledger, period, adjacency_crc, injector
                )
                restore_level = int(meta.get("ladder_level") or 0)
                state.resumed_epoch = epoch

    # Bind this rank's frozen plan to each buffer.  A MemMap binding can
    # fail here (mapping budget, mmap refusal): the ladder catches that.
    if degrade_enabled and info.base == "memmap":
        _build_ladder(cart, geometry, state, restore_level, injector, -1)
    else:
        for buf in state.buffers:
            state.exchangers.append(geometry.bind(info.base, cart, buf))
    if state.resumed_epoch < 0:
        state.fill(geometry.initial(seed)[problem.owned_slices(cart.coords)])

    # Persistent channels: negotiated once, re-fired every step.
    engines = make_engines(state.exchangers)
    rp = RankRunPlan(
        engines, state.plans, state.buffers, period, rank, info.name,
        # Kernel time per cycle position, priced once per run.
        [compute_time(profile, info, n, spec) for n in state.computed_points],
        info.overlaps,
    )

    # ``run_executed`` refuses degrade events on more than one step.
    vote_step = injector.plan.max_degrade_step if injector is not None else -1

    def pre_step(t: int, src: int):
        if injector is not None:
            _crash_check(comm, injector, t)
        if cp is not None and ckpt.due(t, start_step):
            # After the crash check (a rank never snapshots the step it
            # dies on) and before the degradation vote (demotion events
            # after the snapshot refire identically on replay, so they
            # must not be double-counted).
            cp.save(
                t,
                snap.at(t, src),
                _ckpt_meta(
                    t, ledger, state.ladder_level, period, adjacency_crc,
                    injector,
                ),
                src,
            )
        # Only a run still on MemMap votes, and only at its plan's one
        # degrade step: no other step has a rank that could ask.  The
        # ladder level is collective, so every rank of a demoted run
        # skips the vote -- and its allreduce -- alike.
        if (
            state.ladder_level == 0
            and t == vote_step
            and _ladder_vote(cart, geometry, state, injector, t, src)
        ):
            return make_engines(state.exchangers)

    if injector is not None or cp is not None:
        rp.pre_step = pre_step
    if retry is not None:
        rp.around_exchange = lambda t, fire: _exchange_with_retry(
            comm, fire, t, retry, injector
        )

    src = rp.run(start_step, timesteps, ledger)

    if info.base == "memmap":
        # After a demotion the live engine may have no mappings at all.
        ledger.mappings = getattr(state.exchangers[0], "mapping_count", 0)
    state.copy_backend = rp.engines[0].copy_backend
    state.result(src, global_result[problem.owned_slices(cart.coords)])
    return ledger


def _elastic_reshape(
    geometry: RunGeometry,
    cur_ckpt: CheckpointConfig,
    seed: int,
    exchange_period,
    injector: FaultInjector,
    n: int,
):
    """One elastic recovery round after a permanent rank death.

    Plans the shrunken world (one rank per node), builds its geometry,
    negotiates the newest epoch verified on every old rank, re-bricks it
    into a fresh store under the old one (``reshape<n>/``) and returns
    ``(new_geometry, new_ckpt, dead)`` for the relaunch.  No common epoch degrades to a
    from-scratch reshape: the new world starts empty and recomputes --
    still bit-exact.  Imported lazily: :mod:`repro.elastic` sits above
    this module.
    """
    from repro.elastic.rebrick import rebrick, snapshot_key
    from repro.elastic.recovery import negotiate_recovery_epoch, plan_recovery

    # Sweep every scheduled death into this reshape.  Which of several
    # concurrently-dying ranks raises first is a thread race (the abort
    # may beat the others to their death step), but the plan says all of
    # them are gone: folding them in here keeps the event log, the
    # survivor set and the reshape plan deterministic per seed.
    for r, s in injector.plan.deaths:
        injector.death_due(r, s)
    dead = sorted({r for r, _ in injector.died()})
    problem, profile = geometry.problem, geometry.profile
    plan = plan_recovery(problem, dead, None, profile.network)
    new_geometry = RunGeometry(
        plan.new_problem, geometry.method, profile, geometry.page_size
    )
    period = resolve_period(problem, geometry.method, exchange_period)
    epoch = negotiate_recovery_epoch(
        cur_ckpt.store, problem.nranks, snapshot_key(geometry, seed, period)
    )
    new_store = CheckpointStore(cur_ckpt.store.root / f"reshape{n}")
    with _TRACER.span("elastic.reshape", epoch=epoch,
                      new_nranks=plan.new_nranks):
        if epoch >= 0:
            rebrick(
                cur_ckpt.store, geometry, epoch, new_store, new_geometry,
                seed=seed, exchange_period=exchange_period,
            )
    injector.record("reshaped", step=-1)
    # The plan's death schedule names old-world ranks; after the reshape
    # those nodes are excluded and ranks renumbered, so it is spent.
    injector.deaths_disabled = True
    new_ckpt = CheckpointConfig(
        store=new_store,
        period=cur_ckpt.period,
        resume=epoch >= 0,
    )
    return new_geometry, new_ckpt, dead


def _preflight(geometry: RunGeometry, check: Optional[str]) -> None:
    """``check=``: verify the world about to launch -- this very object --
    so a clean check proves deadlock freedom and byte-count agreement for
    what the ranks then bind."""
    if check is None:
        return
    from repro.check import check_geometry

    report = check_geometry(
        geometry,
        passes=("schedule", "memory"),
        strict=(check == "strict"),
    )
    if not report.ok:  # only reachable in warn mode
        print(report.render(), file=sys.stderr)


def run_executed(
    problem: StencilProblem,
    method: str,
    profile: Optional[MachineProfile] = None,
    timesteps: int = 1,
    seed: int = 0,
    page_size: Optional[int] = None,
    exchange_period=None,
    fault_plan: Optional[FaultPlan] = None,
    verify_wire: bool = False,
    degrade: Optional[bool] = None,
    checkpoint_dir=None,
    checkpoint_period: Optional[int] = None,
    resume: bool = False,
    elastic: bool = False,
    check: Optional[str] = None,
) -> ExecutedRun:
    """Run the problem end-to-end on simulated ranks; see module docs.

    *exchange_period*: exchange every N steps instead of every step,
    computing redundantly into the ghost shell in between (ghost-cell
    expansion / communication avoiding).  ``"auto"`` uses the maximum
    period the ghost width supports; the default (None) exchanges every
    step as the paper's main experiments do.

    A method whose base is ``memmap`` needs ``memfd_create`` and
    ``mmap(MAP_FIXED)`` (:func:`~repro.vmem.realmap_available`); where
    they are missing it is refused before launch.  So is every run on a
    host without ``cffi`` or a C compiler, and every problem that is not
    float64: the stencil kernels and the exchange's movers are compiled
    C over double-precision memory (:mod:`repro.stencil.cbackend`), and
    there is no other tier.

    Chaos-fabric knobs (see README "Robustness"):

    *fault_plan*: a seeded :class:`~repro.faults.FaultPlan` to inject
    wire faults / crashes / degradation events.  Implies verified
    (enveloped) exchange.  *verify_wire* turns envelopes on without any
    injection.  Envelope headers and retries cost wall-clock only:
    modelled bytes/times and the numerical results are unchanged.
    Detected faults are healed by the standard
    :class:`~repro.faults.RetryPolicy`.  Wire faults are injected into,
    and healed on, a channel's bound items, for every method: a retry
    re-fires the exchange's one cut.  The fabric's per-message path
    carries collectives only, which are never faulted.

    *degrade*: enable the MemMap->basic Layout demotion (defaults to on
    exactly when the plan schedules degradation events); refused for a
    method whose base is not ``memmap``, turned off (False) beside plan
    events, and for plan events on more than one step or off the
    exchange steps, which could never fire.  The ladder votes once, at
    the plan's degrade step.  A plan's crash, death or degrade event at
    a step ``>= timesteps`` is refused too.

    Checkpoint/restart knobs (see README "Checkpoint/restart"):

    *checkpoint_dir*: directory for the content-verified snapshot store;
    enables checkpointing.  *checkpoint_period* snapshots every N steps
    (default 1); a snapshot references each run whose bytes equal
    the same buffer's previous snapshot's.  With a checkpoint store,
    scheduled crashes in *fault_plan* become survivable: the world is
    relaunched from the latest globally consistent epoch and the run
    continues bit-exactly.  *resume* restores from an existing store
    before the first step (cold restart).  Relaunches are bounded by
    the number of distinct scheduled crashes.

    *check*: ahead-of-run static verification (``repro.check``).
    ``"strict"`` verifies the schedule and plan memory of every world
    before its first rank launches -- the caller's, and each one an
    elastic reshape lands on -- and raises
    :class:`~repro.check.CheckFailedError` on any violation;
    ``"warn"`` prints the findings and runs anyway.  What is verified
    is the run geometry the ranks then bind their plans from, so a clean
    check proves deadlock freedom and byte-count agreement for this
    exact configuration.

    Elastic restart knobs (see README "Robustness" and DESIGN.md 10):

    *elastic*: survive *permanent* rank deaths (``fault_plan.deaths``).
    Requires a checkpoint store and a periodic problem (refused up
    front otherwise).  When a rank dies, the survivors agree
    on a shrunken decomposition that avoids the failed nodes (one rank
    per node), negotiate the newest epoch verified on every old rank,
    re-brick that epoch's snapshots onto the new decomposition and
    relaunch.  With no common epoch the reshaped world recomputes from
    the seeded initial state -- still bit-exact, just slower.  Reshape
    rounds are bounded by the number of distinct scheduled deaths.  The
    reshaped world's ledger starts at the restored epoch, so per-step
    and per-exchange figures describe the world that finished.
    Without *elastic* a death is still *detected* -- peers fail fast
    with :class:`~repro.faults.RankDeadError` -- but not recovered.
    """
    if timesteps <= 0:
        raise ValueError("timesteps must be positive")
    profile = profile or generic_host()
    info = method_info(method)
    if info.base == "network":
        raise ValueError(
            "'network' is the modelled communication floor; use"
            " repro.core.model.model_timestep for it"
        )
    if check not in (None, "strict", "warn"):
        raise ValueError(f"check={check!r}: expected None, 'strict' or 'warn'")
    injector = FaultInjector(fault_plan) if fault_plan is not None else None
    envelope = verify_wire or injector is not None
    retry = RetryPolicy() if envelope else None
    if degrade is None:
        degrade = bool(fault_plan is not None and fault_plan.degrade)

    ckpt = None
    if checkpoint_dir is not None:
        ckpt = CheckpointConfig(
            store=CheckpointStore(checkpoint_dir),
            period=int(checkpoint_period if checkpoint_period is not None else 1),
            resume=bool(resume),
        )
    elif resume or checkpoint_period is not None:
        raise ValueError(
            "resume/checkpoint_period require a checkpoint_dir"
        )
    # Feature requests that could not engage are refused before launch.
    if elastic and ckpt is None:
        raise ValueError("elastic restart requires a checkpoint_dir")
    if elastic and not problem.periodic:
        raise ValueError(
            "elastic restart requires a periodic problem: ghost shells are"
            " rebuilt by periodic wrap"
        )
    missing = cbackend.toolchain_missing()
    if missing:
        raise ValueError(
            f"the stencil kernels and the exchange movers are compiled C,"
            f" and {missing}"
        )
    if problem.dtype != np.float64:
        raise ValueError(
            f"the compiled kernels step float64 fields; the problem is"
            f" {problem.dtype}"
        )
    if info.base == "memmap" and not realmap_available():
        raise ValueError(
            f"{method!r} stitches its windows with memfd_create and"
            " mmap(MAP_FIXED), which this platform lacks; 'layout' runs the"
            " same pack-free exchange without mappings"
        )
    if degrade and info.base != "memmap":
        raise ValueError(
            f"degradation needs a memmap method; {method!r} has no ladder"
        )
    # Refuse scheduled events that could never fire: past the last step;
    # degrade events without the ladder, off the exchange steps (where the
    # vote runs) or on a second step (the first demotes to the last rung).
    if fault_plan is not None:
        late = [
            f"{kind} at step {s}"
            for kind, events in (("crash", fault_plan.crashes),
                                 ("death", fault_plan.deaths),
                                 ("degrade", fault_plan.degrade))
            for s in sorted({s for _, s in events})
            if s >= timesteps
        ]
        if late:
            raise ValueError(
                f"fault events past the last step never fire: {', '.join(late)}"
                f" of a {timesteps}-step run (steps 0 to {timesteps - 1})"
            )
    when = sorted({s for _, s in fault_plan.degrade}) if fault_plan else []
    if when and not degrade:
        raise ValueError(
            f"degrade=False turns the ladder off: the degrade events at"
            f" steps {when} would fire nothing"
        )
    if when:
        period = resolve_period(problem, method, exchange_period)
        idle = [s for s in when if s % period]
        if idle:
            raise ValueError(
                f"degrade events at steps {idle} never fire: the vote runs"
                f" on multiples of the exchange period {period}"
            )
        if len(when) > 1:
            raise ValueError(
                f"degrade events at steps {when}: the first demotes the run"
                f" to {_LADDER[-1]!r}, the last rung, so the later ones never"
                " fire"
            )
    if ckpt is not None and injector is not None:
        # Checkpointing turns scheduled crashes into survivable events:
        # each fires once, then the relaunched world sails past it.
        injector.survivable = True
    # Each scheduled crash / death is survived at most once.
    max_restarts = max_reshapes = 0
    if fault_plan is not None:
        if ckpt is not None:
            max_restarts = len(set(fault_plan.crashes))
        if elastic:
            max_reshapes = len({r for r, _ in fault_plan.deaths})

    # Everything the ranks of this world share, built once, here.
    geometry = RunGeometry(problem, method, profile, page_size)
    _preflight(geometry, check)

    cur_ckpt = ckpt
    reshapes = 0
    restarts = 0
    dead_total: List[int] = []
    # Every world (an elastic reshape keeps the global extent) writes its
    # ranks' blocks here; the launch that finishes writes every block.
    global_result = np.empty(
        tuple(reversed(problem.global_extent)), dtype=problem.dtype
    )

    while True:
        # Rank states of this world.  They are closed here, by the
        # launching thread, once every rank thread has joined -- never by
        # the rank itself: peers may still be reading a crashed rank's
        # posted zero-copy send buffer, and closing is a raw munmap.
        states: List[_RankState] = []
        # A failed launch aborted its fabric: every launch gets a fresh one.
        nranks = geometry.problem.nranks
        fabric = SimFabric(nranks)
        if envelope:
            fabric.enable_envelope(injector)
        try:
            ledgers = run_spmd(
                nranks, _rank_fn, geometry, timesteps, seed, exchange_period,
                injector, retry, degrade, cur_ckpt, states, global_result,
                fabric=fabric,
            )
            break
        except RankFailedError as err:
            cause = err.__cause__
            if (
                isinstance(cause, InjectedCrashError)
                and cur_ckpt is not None
                and restarts < max_restarts
            ):
                # Resume in place: the same world -- the same (verified)
                # geometry -- relaunches and restores from its latest
                # consistent epoch.
                cur_ckpt.resume = True
                restarts += 1
                if injector is not None:
                    injector.record("restarted", step=-1)
            elif (
                elastic
                and cur_ckpt is not None
                and injector is not None
                and reshapes < max_reshapes
                and isinstance(cause, RankDeadError)
                and injector.died()
            ):
                # Elastic recovery: a *permanent* death never resumes in
                # place -- the node is gone.  Reshape onto the survivors.
                # A different world is a different schedule: verify it too.
                geometry, cur_ckpt, newly_dead = _elastic_reshape(
                    geometry, cur_ckpt, seed, exchange_period, injector,
                    reshapes + 1,
                )
                _preflight(geometry, check)
                dead_total.extend(newly_dead)
                reshapes += 1
            else:
                raise
        finally:
            _close_all(states)

    cur_problem = geometry.problem
    # Collective facts: every rank of the launch that finished agrees on
    # them, so any rank's state tells (they join in no particular order).
    state = states[0]
    final_base = (
        info.base if state.ladder_level is None else _LADDER[state.ladder_level]
    )
    checkpointers = [s.checkpointer for s in states if s.checkpointer is not None]
    return ExecutedRun(
        method=method,
        global_result=global_result,
        metrics=RunMetrics(
            method=method,
            points_per_rank=cur_problem.points_per_rank,
            nranks=cur_problem.nranks,
            timesteps=timesteps,
            ranks=ledgers,
        ),
        fabric=fabric,
        exchange_period=resolve_period(cur_problem, method, exchange_period),
        final_method=geometry.schedule(final_base)[0][0].method,
        demotions=sum(s.ladder_level or 0 for s in states),
        faults=injector.summary() if injector is not None else None,
        restarts=restarts,
        resumed_epoch=state.resumed_epoch,
        checkpoint_saves=checkpointers[0].saves if checkpointers else 0,
        checkpoint_bytes=sum(cp.saved_bytes for cp in checkpointers),
        reshapes=reshapes,
        final_rank_dims=tuple(cur_problem.rank_dims),
        dead_ranks=tuple(sorted(set(dead_total))),
        kernel_backend=state.plans[0].kernel_backend,
        copy_backend=state.copy_backend,
    )
