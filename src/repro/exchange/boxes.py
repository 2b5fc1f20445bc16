"""Surface/ghost boxes of a lexicographic extended array.

The array-based baselines (Pack, MPI_Types, Shift) exchange one
axis-aligned box per neighbor.  In an extended array of shape
``(E_D + 2g, ..., E_1 + 2g)`` (numpy order), for neighbor direction ``T``:

* the **send** box is the surface band of width ``g`` on side ``T_i`` for
  constrained axes and the full owned span for free axes;
* the **recv** box is the ghost band on side ``T_i`` for constrained axes
  and the owned span for free axes.

Send and recv boxes of opposite directions have equal shapes, which is
what makes the one-box-per-neighbor exchange well-formed.
"""

from __future__ import annotations

import functools
from typing import Sequence, Tuple

import numpy as np

from repro.brick.info import direction_index
from repro.exchange.base import (
    UNRESOLVED,
    Binding,
    PlannedMessage,
    ScheduleTemplate,
    exchange_tag,
)
from repro.exchange.schedule import array_schedule
from repro.faults.errors import ExchangeConfigError
from repro.util.bitset import BitSet

__all__ = [
    "neighbor_send_box",
    "neighbor_recv_box",
    "neighbor_boxes",
    "box_slices",
    "box_template",
    "extended_array_of",
    "stage_boxes",
]

Box = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (lo, extent), axis order 1..D
Slices = Tuple[slice, ...]


def neighbor_send_box(
    neighbor: BitSet, extent: Sequence[int], ghost: int
) -> Box:
    """Surface box (axis order 1..D, offsets into the extended array)."""
    _check(neighbor, extent, ghost)
    lo, ext = [], []
    for axis, e in enumerate(extent):
        d = neighbor.direction(axis + 1)
        if d < 0:
            lo.append(ghost)
            ext.append(ghost)
        elif d > 0:
            lo.append(e)  # last g owned elements: [g + e - g, g + e)
            ext.append(ghost)
        else:
            lo.append(ghost)
            ext.append(e)
    return tuple(lo), tuple(ext)


def neighbor_recv_box(
    neighbor: BitSet, extent: Sequence[int], ghost: int
) -> Box:
    """Ghost box receiving from ``N(neighbor)`` (axis order 1..D)."""
    _check(neighbor, extent, ghost)
    lo, ext = [], []
    for axis, e in enumerate(extent):
        d = neighbor.direction(axis + 1)
        if d < 0:
            lo.append(0)
            ext.append(ghost)
        elif d > 0:
            lo.append(ghost + e)
            ext.append(ghost)
        else:
            lo.append(ghost)
            ext.append(e)
    return tuple(lo), tuple(ext)


@functools.lru_cache(maxsize=1024)
def neighbor_boxes(
    neighbor: BitSet, extent: Tuple[int, ...], ghost: int
) -> Tuple[Box, Box]:
    """``(send box, recv box)`` exchanged with *neighbor*: immutable
    geometry, memoised -- every rank and both double-buffer slots of a
    run bind the same ``3^D - 1`` pairs."""
    return (
        neighbor_send_box(neighbor, extent, ghost),
        neighbor_recv_box(neighbor, extent, ghost),
    )


def box_slices(box: Box) -> Tuple[slice, ...]:
    """Numpy slices (axis D first) selecting *box* in an extended array."""
    lo, ext = box
    return tuple(
        slice(l, l + e) for l, e in zip(reversed(lo), reversed(ext))
    )


def box_template(
    method: str, copy: str, extent: Sequence[int], ghost: int, itemsize: int
) -> ScheduleTemplate:
    """The one-box-per-neighbor schedule of Pack and MPI_Types.

    The box received from a neighbor has the shape of the box sent to
    it, so one spec prices both directions.
    """
    ndim = len(extent)
    sends, recvs = [], []
    for spec in array_schedule(extent, ghost, itemsize):
        vec = spec.neighbor.to_vector(ndim)
        opp = spec.neighbor.opposite().to_vector(ndim)
        sends.append(
            PlannedMessage(UNRESOLVED, exchange_tag(direction_index(opp), 0), spec)
        )
        recvs.append(
            PlannedMessage(UNRESOLVED, exchange_tag(direction_index(vec), 0), spec)
        )
    return ScheduleTemplate(method, tuple(sends), tuple(recvs), copy)


def extended_array_of(
    array: np.ndarray, extent: Sequence[int], ghost: int
) -> Tuple[Tuple[int, ...], int]:
    """The array exchangers' shared opening: normalised ``(extent,
    ghost)``, after checking *array* is the extended array -- shape
    ``(E_D + 2g, ..., E_1 + 2g)`` -- of that subdomain."""
    extent = tuple(int(e) for e in extent)
    ghost = int(ghost)
    expected = tuple(e + 2 * ghost for e in reversed(extent))
    if array.shape != expected:
        raise ExchangeConfigError(
            f"extended array shape {array.shape}, expected {expected}"
        )
    return extent, ghost


def stage_boxes(
    arr: np.ndarray, boxes: Sequence[Tuple[Slices, Slices]]
) -> Binding:
    """Bind box messages to *arr* through persistent staging buffers.

    *boxes* holds each message's ``(send, recv)`` selections of *arr*.
    The flat staging buffers go on the wire; box-shaped reshapes of the
    same memory let the pack and the unpack run as one strided copy per
    message, with no per-step temporaries.
    """
    send_bufs, recv_bufs, packs, unpacks = [], [], [], []
    for send_slc, recv_slc in boxes:
        shape = arr[send_slc].shape
        send_bufs.append(np.empty(arr[send_slc].size, dtype=arr.dtype))
        recv_bufs.append(np.empty(arr[recv_slc].size, dtype=arr.dtype))
        packs.append((send_bufs[-1].reshape(shape), send_slc))
        unpacks.append((recv_slc, recv_bufs[-1].reshape(shape)))

    def pack() -> None:
        for view, slc in packs:
            np.copyto(view, arr[slc])

    def unpack() -> None:
        for slc, view in unpacks:
            arr[slc] = view

    return Binding(
        send_bufs, recv_bufs, pack, unpack,
        sum(b.nbytes for b in send_bufs + recv_bufs),
    )


def _check(neighbor: BitSet, extent: Sequence[int], ghost: int) -> None:
    if not neighbor:
        raise ExchangeConfigError("the empty set is not a neighbor")
    if ghost <= 0:
        raise ExchangeConfigError("ghost width must be positive")
    if any(e < ghost for e in extent):
        raise ExchangeConfigError(
            f"extent {tuple(extent)} smaller than the ghost width {ghost}"
        )
