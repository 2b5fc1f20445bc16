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

from typing import List, Optional, Sequence

import numpy as np

from repro.exchange.base import Binding, Exchanger, PlannedMessage
from repro.exchange.boxes import (
    box_messages,
    box_slices,
    neighbor_recv_box,
    neighbor_send_box,
    stage_boxes,
)
from repro.faults.errors import ExchangeConfigError
from repro.hardware.profiles import MachineProfile
from repro.simmpi.comm import CartComm

__all__ = ["PackExchanger"]


class PackExchanger(Exchanger):
    """Explicit-packing exchange over a lexicographic extended array."""

    method = "pack"

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
        sends: List[PlannedMessage] = []
        recvs: List[PlannedMessage] = []
        self._boxes = []  # per message: its (send, recv) slices of the array
        for neighbor, send, recv in box_messages(
            comm, self.extent, self.ghost, self.dtype.itemsize
        ):
            self._boxes.append(
                (
                    box_slices(neighbor_send_box(neighbor, self.extent, self.ghost)),
                    box_slices(neighbor_recv_box(neighbor, self.extent, self.ghost)),
                )
            )
            sends.append(send)
            recvs.append(recv)
        self._install(sends, recvs, array, copy="pack")

    # benchmarks/halobench/spans.py wraps vars(PackExchanger)["exchange"],
    # a class-__dict__ lookup that does not see inherited attributes.
    exchange = Exchanger.exchange

    def _bind(self, arr: np.ndarray) -> List[Binding]:
        """Staging allocated once and reused every timestep."""
        return [stage_boxes(arr, self._boxes)]
