"""Elastic restart: survive permanent rank loss by re-bricking snapshots
onto a new decomposition.

Where checkpoint/restart (:mod:`repro.ckpt`) relaunches the *same* world
after a survivable crash, this package handles ranks that are gone for
good -- a node loss.  The recovery protocol (DESIGN.md Section 10):

1. **Detection** -- the fabric's rank-liveness state
   (:meth:`~repro.simmpi.SimFabric.mark_dead`) turns every wait on a
   dead rank -- sends, receives, collectives and the barrier -- into a
   fast typed :class:`~repro.faults.RankDeadError`.
2. **Membership agreement** -- :func:`plan_recovery` maps deaths to
   failed nodes (:class:`ClusterTopology`) and picks the best surviving
   decomposition under the machine's network model
   (:func:`choose_rank_dims`).
3. **Epoch negotiation** -- :func:`negotiate_recovery_epoch` finds the
   newest epoch verified on *every* old rank from the store's
   verified-epoch sets.
4. **Re-brick** -- :func:`rebrick` re-slices that epoch's N-rank
   snapshots into an M-rank snapshot set the ordinary restore path
   accepts.
5. **Rebuild** -- the driver relaunches on the new decomposition
   (``run_executed(..., elastic=True)``); exchangers and channels are
   rebuilt from scratch by the normal rank setup.
"""

from repro.elastic.placement import (
    ClusterTopology,
    candidate_dims,
    choose_rank_dims,
)
from repro.elastic.rebrick import (
    rebrick,
    restore_global,
    snapshot_key,
)
from repro.elastic.recovery import (
    RecoveryPlan,
    negotiate_recovery_epoch,
    plan_recovery,
)

__all__ = [
    "ClusterTopology",
    "RecoveryPlan",
    "candidate_dims",
    "choose_rank_dims",
    "negotiate_recovery_epoch",
    "plan_recovery",
    "rebrick",
    "restore_global",
    "snapshot_key",
]
