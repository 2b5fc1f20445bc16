"""MPI derived-datatype baseline: the library packs internally.

Functionally identical to :class:`~repro.exchange.pack.PackExchanger` --
one box per neighbor -- but the application never copies anything: it
hands MPI a :class:`~repro.simmpi.datatypes.SubarrayType` describing each
box, and the datatype engine does the gathering/scattering inside the
``call``/``wait`` phases.  The paper finds this engine catastrophically
slow on KNL (MemMap is "460x faster than MPI_Types"), which the profile's
``type_msg_overhead``/``type_engine_bw`` constants model.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exchange.base import Binding, Exchanger, ExchangeResult, RankMessagePlan
from repro.exchange.boxes import (
    BoxTable,
    box_table,
    extended_array_of,
    neighbor_boxes,
    stage_table,
)
from repro.hardware.profiles import MachineProfile
from repro.simmpi.comm import CartComm
from repro.simmpi.datatypes import SubarrayType

__all__ = ["MPITypesExchanger", "mpitypes_tables"]


def mpitypes_tables(
    plan: RankMessagePlan, extent: Sequence[int], ghost: int
) -> Tuple[BoxTable]:
    """The rank-invariant half of binding *plan*: per message its (send,
    recv) derived datatypes, each :class:`SubarrayType` built once over
    the extended array's shape and committed as its selection.  The
    engine's gathers and scatters are on-node movement too, just hidden
    inside the library -- the same bound box moves as an application's
    pack and unpack."""
    extent, ghost = tuple(int(e) for e in extent), int(ghost)
    shape = tuple(e + 2 * ghost for e in reversed(extent))

    def subarray(box) -> SubarrayType:
        lo, ext = box
        return SubarrayType(
            shape=shape, subshape=tuple(reversed(ext)), start=tuple(reversed(lo))
        )

    boxes = [
        neighbor_boxes(m.spec.neighbor, extent, ghost) for m in plan.sends
    ]
    return (
        box_table(
            shape,
            [(subarray(send).slices, subarray(recv).slices) for send, recv in boxes],
        ),
    )


class MPITypesExchanger(Exchanger):
    """Derived-datatype exchange over a lexicographic extended array."""

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

    # benchmarks/halobench/spans.py wraps vars(MPITypesExchanger)["exchange"],
    # a class-__dict__ lookup that does not see inherited attributes.
    exchange = Exchanger.exchange

    _tables = staticmethod(mpitypes_tables)

    def _bind(self, arr: np.ndarray, tables) -> List[Binding]:
        """Persistent wire buffers the datatype engine re-fills each
        step, over the committed datatypes of *tables*."""
        return [stage_table(arr, table) for table in tables]
