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

from typing import List, Optional, Sequence

import numpy as np

from repro.exchange.base import Binding, Exchanger, ExchangeResult, RankMessagePlan
from repro.exchange.boxes import extended_array_of, neighbor_boxes, stage_boxes
from repro.hardware.profiles import MachineProfile
from repro.simmpi.comm import CartComm
from repro.simmpi.datatypes import SubarrayType

__all__ = ["MPITypesExchanger"]


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
    ) -> None:
        self.extent, self.ghost = extended_array_of(array, extent, ghost)
        super().__init__(comm, plan, array, profile, result)

    # benchmarks/halobench/spans.py wraps vars(MPITypesExchanger)["exchange"],
    # a class-__dict__ lookup that does not see inherited attributes.
    exchange = Exchanger.exchange

    def _bind(self, arr: np.ndarray) -> List[Binding]:
        """Persistent wire buffers the datatype engine re-fills each
        step: per message its (send, recv) derived datatypes, committed
        against *arr* once.  The engine's gathers and scatters are
        on-node movement too, just hidden inside the library -- the same
        bound box moves as an application's pack and unpack."""

        def subarray(box) -> SubarrayType:
            lo, ext = box
            return SubarrayType(
                shape=arr.shape,
                subshape=tuple(reversed(ext)),
                start=tuple(reversed(lo)),
            )

        boxes = (
            neighbor_boxes(m.spec.neighbor, self.extent, self.ghost)
            for m in self.plan.sends
        )
        return [
            stage_boxes(
                arr,
                [
                    (subarray(send).slices, subarray(recv).slices)
                    for send, recv in boxes
                ],
            )
        ]
