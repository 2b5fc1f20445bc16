"""Recovery coordination: from detected rank death to a relaunchable world.

The protocol (DESIGN.md Section 10) runs in four deterministic stages:

1. **Detection** -- the fabric's liveness state plus the fault injector's
   fired-death log identify exactly which ranks are permanently gone.
2. **Membership agreement** -- :func:`plan_recovery` maps dead ranks to
   failed nodes through the :class:`~repro.elastic.placement.ClusterTopology`,
   drops every co-located rank, and picks the best new decomposition for
   the survivor count under the machine's network model.  Pure function
   of (dead set, topology, problem), so every survivor agrees without a
   vote.
3. **Epoch negotiation** -- :func:`negotiate_recovery_epoch` intersects
   the old ranks' verified-epoch sets, which the recovering driver reads
   from the store itself, so the agreed epoch is verified on **all** N
   old ranks (the re-brick needs every shard of the global field).  No
   world is launched for it: every set is already in the caller's hands.
4. **Re-brick** -- :func:`~repro.elastic.rebrick.rebrick` materializes
   the agreed epoch for the new decomposition; the relaunched world
   resumes through the ordinary checkpoint restore.

No common epoch is not fatal: the plan degrades to a from-scratch
reshape (the new world recomputes from the seeded initial condition),
which is still bit-exact -- just slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.ckpt import CheckpointStore, NoCommonEpochError
from repro.core.problem import StencilProblem
from repro.elastic.placement import ClusterTopology, choose_rank_dims

__all__ = ["RecoveryPlan", "plan_recovery", "negotiate_recovery_epoch"]


@dataclass(frozen=True)
class RecoveryPlan:
    """The agreed shape of the world after a permanent rank loss."""

    dead_ranks: Tuple[int, ...]
    failed_nodes: Tuple[int, ...]
    survivors: Tuple[int, ...]  # old-world ranks still usable
    new_rank_dims: Tuple[int, ...]
    new_problem: StencilProblem

    @property
    def new_nranks(self) -> int:
        return self.new_problem.nranks


def plan_recovery(
    problem: StencilProblem,
    dead_ranks,
    topology: Optional[ClusterTopology],
    network,
) -> RecoveryPlan:
    """Agree on the reshaped world; deterministic, communication-free."""
    dead = tuple(sorted({int(r) for r in dead_ranks}))
    if not dead:
        raise ValueError("recovery planning needs at least one dead rank")
    topo = topology or ClusterTopology()
    survivors = tuple(topo.surviving_ranks(problem.nranks, dead))
    if not survivors:
        raise ValueError(
            f"no survivors: deaths {dead} took out every node"
        )
    new_dims = choose_rank_dims(problem, len(survivors), network)
    new_problem = StencilProblem(
        global_extent=problem.global_extent,
        rank_dims=new_dims,
        stencil=problem.stencil,
        brick_dim=problem.brick_dim,
        ghost=problem.ghost,
        layout=problem.layout,
        dtype=problem.dtype,
        periodic=problem.periodic,
    )
    return RecoveryPlan(
        dead_ranks=dead,
        failed_nodes=tuple(topo.failed_nodes(dead)),
        survivors=survivors,
        new_rank_dims=tuple(new_dims),
        new_problem=new_problem,
    )


def negotiate_recovery_epoch(
    store: CheckpointStore,
    old_nranks: int,
    problem_key: str,
    *,
    required: bool = False,
) -> int:
    """Newest epoch verified on every one of the *old_nranks* old ranks.

    Intersects each old rank's ``store.verified_epochs``.  Returns -1
    when no epoch is common to all of them (``required=True`` raises
    :class:`~repro.ckpt.NoCommonEpochError` instead, naming each old
    rank's newest verified epoch).
    """
    if old_nranks <= 0:
        raise ValueError("rank counts must be positive")
    sets = [set(store.verified_epochs(r, problem_key)) for r in range(old_nranks)]
    common = set.intersection(*sets)
    if common:
        return max(common)
    if required:
        raise NoCommonEpochError([max(epochs, default=-1) for epochs in sets])
    return -1
