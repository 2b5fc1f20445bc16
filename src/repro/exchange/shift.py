"""Shift exchange (related work, Section 8).

The Shift algorithm exchanges ghost zones one dimension at a time with
only the two face neighbors per dimension -- ``2 * D`` messages instead of
``3^D - 1`` -- forwarding corner data implicitly: after axis 1 has been
exchanged, the axis-2 faces *include* the already-received axis-1 ghost
bands, so diagonal data arrives in two hops.  The cost is synchronization:
axis ``d+1`` cannot start until axis ``d`` has completed, so wire
latencies serialize across dimensions.

Included as an ablation baseline; it still packs (the faces are
non-contiguous boxes of a lexicographic array).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.exchange.base import Binding, Exchanger, PlannedMessage
from repro.exchange.boxes import box_slices, stage_boxes
from repro.exchange.schedule import shift_schedule
from repro.faults.errors import ExchangeConfigError
from repro.hardware.profiles import MachineProfile
from repro.simmpi.comm import CartComm

__all__ = ["ShiftExchanger"]


class ShiftExchanger(Exchanger):
    """Dimension-by-dimension face exchange with corner forwarding."""

    method = "shift"

    def __init__(
        self,
        comm: CartComm,
        array: Optional[np.ndarray],
        extent: Sequence[int],
        ghost: int,
        profile: MachineProfile,
        dtype: np.dtype = np.float64,
    ) -> None:
        super().__init__(comm, profile)
        self.extent = tuple(int(e) for e in extent)
        self.ghost = int(ghost)
        ndim = len(self.extent)
        expected = tuple(e + 2 * self.ghost for e in reversed(self.extent))
        if array is not None:
            if array.shape != expected:
                raise ExchangeConfigError(
                    f"extended array shape {array.shape}, expected {expected}"
                )
            dtype = array.dtype
        self.array = array
        self.dtype = np.dtype(dtype)
        specs = shift_schedule(self.extent, self.ghost, self.dtype.itemsize)
        sends: List[PlannedMessage] = []
        recvs: List[PlannedMessage] = []
        # One phase per axis, two directions each; per phase, per message,
        # its (send, recv) slices of the array.
        self._boxes: List[list] = []
        g = self.ghost
        for axis in range(ndim):  # axis order 1..D
            self._boxes.append([])
            for high, sign in enumerate((-1, 1)):
                vec = [0] * ndim
                vec[axis] = sign
                rank = comm.neighbor_rank(vec)
                if rank is None:
                    continue  # non-periodic boundary: skip this face
                # Box extents: axes < axis use the FULL extended span
                # (forwarding corners already received), axis uses the g-
                # wide band, axes > axis use the owned span.
                lo, ext = [], []
                for a, e in enumerate(self.extent):
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
                recv_lo[axis] = g + self.extent[axis] if high else 0
                self._boxes[axis].append(
                    (box_slices((lo, ext)), box_slices((recv_lo, ext)))
                )
                # The face received from a neighbor has the shape of the
                # face sent to it, so one spec prices both directions.
                spec = specs[axis][high]
                sends.append(
                    PlannedMessage(rank, 1000 + axis * 4 + high, spec, phase=axis)
                )
                recvs.append(
                    PlannedMessage(
                        rank, 1000 + axis * 4 + 1 - high, spec, phase=axis
                    )
                )
        # Phases serialize: each pays its own pack and network round.
        self._install(sends, recvs, array, copy="pack", nphases=ndim)

    def _bind(self, arr: np.ndarray) -> List[Binding]:
        """Per-axis staging: axis *d+1*'s pack reads what axis *d*'s
        unpack wrote, which is the corner forwarding."""
        return [stage_boxes(arr, boxes) for boxes in self._boxes]
