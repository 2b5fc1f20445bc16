"""Shift exchange (related work, Section 8).

The Shift algorithm exchanges ghost zones one dimension at a time with
only the two face neighbors per dimension -- ``2 * D`` messages instead of
``3^D - 1`` -- forwarding corner data implicitly: after axis 1 has been
exchanged, the axis-2 faces *include* the already-received axis-1 ghost
bands, so diagonal data arrives in two hops.  The cost is synchronization:
axis ``d+1`` cannot start until axis ``d`` has completed, so wire
latencies serialize across dimensions.  Each axis is one bound cut; the
exchanger's channel fires them in axis order
(:class:`~repro.exchange.base.ChannelChain`), and axis ``d``'s receive
completing is what lets axis ``d+1`` pack.

Included as an ablation baseline; it still packs (the faces are
non-contiguous boxes of a lexicographic array).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exchange.base import (
    UNRESOLVED,
    Binding,
    Exchanger,
    ExchangeResult,
    PlannedMessage,
    RankMessagePlan,
    ScheduleTemplate,
)
from repro.exchange.boxes import (
    BoxTable,
    box_slices,
    box_table,
    extended_array_of,
    stage_table,
)
from repro.exchange.schedule import shift_schedule
from repro.hardware.profiles import MachineProfile
from repro.simmpi.comm import CartComm

__all__ = ["ShiftExchanger", "shift_tables", "shift_template"]


def shift_template(
    extent: Sequence[int], ghost: int, itemsize: int
) -> ScheduleTemplate:
    """One phase per axis, two faces each.  The face received from a
    neighbor has the shape of the face sent to it, so one spec prices
    both directions.  Phases serialize: each pays its own pack and
    network round."""
    sends: List[PlannedMessage] = []
    recvs: List[PlannedMessage] = []
    for axis, faces in enumerate(shift_schedule(extent, ghost, itemsize)):
        for high, spec in enumerate(faces):
            sends.append(
                PlannedMessage(UNRESOLVED, 1000 + axis * 4 + high, spec, phase=axis)
            )
            recvs.append(
                PlannedMessage(
                    UNRESOLVED, 1000 + axis * 4 + 1 - high, spec, phase=axis
                )
            )
    return ScheduleTemplate(
        "shift", tuple(sends), tuple(recvs), copy="pack", nphases=len(extent)
    )


def _face_boxes(extent: Tuple[int, ...], ghost: int, axis: int, high: bool):
    """``(send, recv)`` slices of the face on side *high* of *axis*: axes
    before it span the FULL extended range (forwarding corners already
    received), *axis* the g-wide band, axes after it the owned span."""
    g = ghost
    lo, ext = [], []
    for a, e in enumerate(extent):
        if a < axis:
            lo.append(0)
            ext.append(e + 2 * g)
        elif a == axis:
            lo.append(e if high else g)  # the surface band
            ext.append(g)
        else:
            lo.append(g)
            ext.append(e)
    recv_lo = list(lo)
    recv_lo[axis] = g + extent[axis] if high else 0
    return box_slices((lo, ext)), box_slices((recv_lo, ext))


def shift_tables(
    plan: RankMessagePlan, extent: Sequence[int], ghost: int
) -> Tuple[BoxTable, ...]:
    """The rank-invariant half of binding *plan*: per axis, the face
    boxes of its messages, checked once.  Axis *d+1*'s pack reads what
    axis *d*'s unpack wrote, which is the corner forwarding."""
    extent, ghost = tuple(int(e) for e in extent), int(ghost)
    shape = tuple(e + 2 * ghost for e in reversed(extent))
    return tuple(
        box_table(
            shape,
            [
                _face_boxes(
                    extent, ghost, axis, m.spec.neighbor.direction(axis + 1) > 0
                )
                for m in plan.sends
                if m.phase == axis
            ],
        )
        for axis in range(plan.nphases)
    )


class ShiftExchanger(Exchanger):
    """Dimension-by-dimension face exchange with corner forwarding."""

    def __init__(
        self,
        comm: CartComm,
        plan: RankMessagePlan,
        array: np.ndarray,
        extent: Sequence[int],
        ghost: int,
        profile: MachineProfile,
        result: Optional[ExchangeResult] = None,
        tables: Optional[Sequence[BoxTable]] = None,
    ) -> None:
        self.extent, self.ghost = extended_array_of(array, extent, ghost)
        super().__init__(comm, plan, array, profile, result, tables)

    _tables = staticmethod(shift_tables)

    def _bind(self, arr: np.ndarray, tables) -> List[Binding]:
        """Per-axis staging over the face boxes of *tables*."""
        return [stage_table(arr, table) for table in tables]
