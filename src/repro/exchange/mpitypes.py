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

from repro.exchange.base import Binding, Exchanger, PlannedMessage
from repro.exchange.boxes import box_messages, neighbor_recv_box, neighbor_send_box
from repro.faults.errors import ExchangeConfigError
from repro.hardware.profiles import MachineProfile
from repro.simmpi.comm import CartComm
from repro.simmpi.datatypes import SubarrayType

__all__ = ["MPITypesExchanger"]


class MPITypesExchanger(Exchanger):
    """Derived-datatype exchange over a lexicographic extended array."""

    method = "mpi_types"

    def __init__(
        self,
        comm: CartComm,
        array: Optional[np.ndarray],
        extent: Sequence[int],
        ghost: int,
        profile: MachineProfile,
        dtype=np.float64,
    ) -> None:
        super().__init__(comm, profile)
        self.extent = tuple(int(e) for e in extent)
        self.ghost = int(ghost)
        expected = tuple(e + 2 * self.ghost for e in reversed(self.extent))
        if array is not None:
            if array.shape != expected:
                raise ExchangeConfigError(
                    f"extended array shape {array.shape}, expected {expected}"
                )
            dtype = array.dtype
        self.array = array  # None = plan-only (static verification)
        self.dtype = np.dtype(dtype)

        def subarray(box):
            lo, ext = box
            return SubarrayType(
                shape=expected,
                subshape=tuple(reversed(ext)),
                start=tuple(reversed(lo)),
            )

        sends: List[PlannedMessage] = []
        recvs: List[PlannedMessage] = []
        self._types = []  # per message: its (send, recv) derived datatypes
        for neighbor, send, recv in box_messages(
            comm, self.extent, self.ghost, self.dtype.itemsize
        ):
            self._types.append(
                (
                    subarray(neighbor_send_box(neighbor, self.extent, self.ghost)),
                    subarray(neighbor_recv_box(neighbor, self.extent, self.ghost)),
                )
            )
            sends.append(send)
            recvs.append(recv)
        # The datatype engine's gathers and scatters are on-node movement
        # too, just hidden inside the library.
        self._install(sends, recvs, array, copy="datatype")

    # benchmarks/halobench/spans.py wraps vars(MPITypesExchanger)["exchange"],
    # a class-__dict__ lookup that does not see inherited attributes.
    exchange = Exchanger.exchange

    def _bind(self, arr: np.ndarray) -> List[Binding]:
        """Persistent wire buffers the datatype engine re-fills each step."""
        types = self._types
        send_bufs = [np.empty(s.count, dtype=arr.dtype) for s, _ in types]
        recv_bufs = [np.empty(r.count, dtype=arr.dtype) for _, r in types]

        def extract() -> None:  # "inside MPI": gather each selection
            for (send_type, _), buf in zip(types, send_bufs):
                send_type.extract_into(arr, buf)

        def insert() -> None:
            for (_, recv_type), buf in zip(types, recv_bufs):
                recv_type.insert(arr, buf)

        moved = sum(b.nbytes for b in send_bufs + recv_bufs)
        return [Binding(send_bufs, recv_bufs, extract, insert, moved)]
