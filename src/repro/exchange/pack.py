"""The packing baseline: explicit pack -> send -> recv -> unpack.

This is the classic ghost-zone exchange the paper's Figure 1 profiles
(YASK operates this way): for each of the ``3^D - 1`` neighbors, gather
the surface box into a contiguous staging buffer, send it, receive the
neighbor's buffer, and scatter it into the ghost box.  Both the gather
and the scatter are pure on-node data movement -- the red "Packing" bars
the optimized schemes eliminate.

The staging buffers are allocated once and reused every timestep (as any
competent implementation would), so the measured cost is the copies
themselves, not allocation.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.exchange.base import Binding, Exchanger, ExchangeResult, RankMessagePlan
from repro.exchange.boxes import (
    BoxTable,
    box_slices,
    box_table,
    extended_array_of,
    neighbor_boxes,
    stage_table,
)
from repro.hardware.profiles import MachineProfile
from repro.simmpi.comm import CartComm

__all__ = ["PackExchanger", "pack_tables"]


def pack_tables(
    plan: RankMessagePlan, extent: Sequence[int], ghost: int
) -> BoxTable:
    """The rank-invariant half of binding *plan*: per message its (send,
    recv) boxes of the extended array, checked once."""
    extent, ghost = tuple(int(e) for e in extent), int(ghost)
    shape = tuple(e + 2 * ghost for e in reversed(extent))
    boxes = [
        neighbor_boxes(m.spec.neighbor, extent, ghost) for m in plan.sends
    ]
    return box_table(
        shape, [(box_slices(send), box_slices(recv)) for send, recv in boxes]
    )


class PackExchanger(Exchanger):
    """Explicit-packing exchange over a lexicographic extended array."""

    def __init__(
        self,
        comm: CartComm,
        plan: RankMessagePlan,
        array: np.ndarray,
        extent: Sequence[int],
        ghost: int,
        profile: MachineProfile,
        result: Optional[ExchangeResult] = None,
        table: Optional[BoxTable] = None,
    ) -> None:
        self.extent, self.ghost = extended_array_of(array, extent, ghost)
        super().__init__(comm, plan, array, profile, result, table)

    # benchmarks/halobench/spans.py wraps vars(PackExchanger)["exchange"],
    # a class-__dict__ lookup that does not see inherited attributes.
    exchange = Exchanger.exchange

    _tables = staticmethod(pack_tables)

    def _bind(self, arr: np.ndarray, table: BoxTable) -> Binding:
        """Staging allocated once and reused every timestep, over the
        boxes of *table*."""
        return stage_table(arr, table)
