"""Surface/ghost boxes of a lexicographic extended array.

The array-based baselines (Pack, MPI_Types) exchange one
axis-aligned box per neighbor.  In an extended array of shape
``(E_D + 2g, ..., E_1 + 2g)`` (numpy order), for neighbor direction ``T``:

* the **send** box is the surface band of width ``g`` on side ``T_i`` for
  constrained axes and the full owned span for free axes;
* the **recv** box is the ghost band on side ``T_i`` for constrained axes
  and the owned span for free axes.

Send and recv boxes of opposite directions have equal shapes, which is
what makes the one-box-per-neighbor exchange well-formed.

Moving the boxes -- pack, unpack, and the datatype engine's gather and
scatter, which are the same movement -- is bound once
(:func:`bind_gather` / :func:`bind_scatter`): every array, box and
buffer is checked where the table is built, and the call that comes
back moves all of a side's boxes as one table-driven C call
(:class:`repro.stencil.cbackend.Movers`).  The boxes themselves are
rank-invariant: :func:`box_table` checks them once per run
(:class:`BoxTable`, held by the run geometry) and :func:`stage_table`
binds one array to them.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence, Tuple

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
from repro.stencil.cbackend import Movers, array_movers
from repro.util.bitset import BitSet

__all__ = [
    "neighbor_send_box",
    "neighbor_recv_box",
    "neighbor_boxes",
    "box_slices",
    "box_template",
    "extended_array_of",
    "bind_gather",
    "bind_scatter",
    "box_table",
    "BoxTable",
    "stage_table",
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


def neighbor_boxes(
    neighbor: BitSet, extent: Tuple[int, ...], ghost: int
) -> Tuple[Box, Box]:
    """``(send box, recv box)`` exchanged with *neighbor*."""
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


def _checked_boxes(
    shape: Tuple[int, ...], boxes: Sequence, nbufs: int
) -> np.ndarray:
    """*boxes* as an ``(nboxes, ndim, 2)`` int64 ``(lo, hi)`` table, after
    checking there is one per buffer and each lies in an array of
    *shape*: the half of :func:`_box_table` that holds for every array of
    that shape."""
    ndim = len(shape)
    if len(boxes) != nbufs:
        raise ExchangeConfigError(
            f"{len(boxes)} boxes bound to {nbufs} buffers"
        )
    try:
        table = np.asarray(boxes, dtype=np.int64).reshape(nbufs, ndim, 2)
    except (TypeError, ValueError):
        raise ExchangeConfigError(
            f"boxes are not (lo, hi) pairs per axis of a {ndim}-D array"
        ) from None
    lo, hi = table[..., 0], table[..., 1]
    if ((lo < 0) | (hi < lo) | (hi > np.array(shape))).any():
        raise ExchangeConfigError(
            f"a box leaves the array of shape {shape}: {table.tolist()}"
        )
    return table


def _box_table(
    arr: np.ndarray, boxes: Sequence, bufs: Sequence[np.ndarray], writes: str
) -> np.ndarray:
    """*boxes* as an ``(nboxes, ndim, 2)`` int64 ``(lo, hi)`` table, after
    checking everything a mover would otherwise take on trust: each box
    lies in *arr* (:func:`_checked_boxes`), its buffer is C-contiguous,
    of *arr*'s dtype and exactly the box's size, and whatever the move
    writes (*writes*: ``"array"`` or ``"buffers"``) is writeable.  The
    movers move through raw pointers, so this is the last place a mistake
    is an error and not memory corruption.
    """
    table = _checked_boxes(arr.shape, boxes, len(bufs))
    counts = (table[..., 1] - table[..., 0]).prod(axis=1).tolist()
    sizes = [buf.size for buf in bufs]
    if sizes != counts:
        raise ExchangeConfigError(
            f"buffers of {sizes} elements bound to boxes of {counts}"
        )
    if any(buf.dtype != arr.dtype for buf in bufs):
        raise ExchangeConfigError(
            f"{[str(buf.dtype) for buf in bufs]} buffers bound to boxes of a"
            f" {arr.dtype} array"
        )
    if not all(buf.flags.c_contiguous for buf in bufs):
        raise ExchangeConfigError("box buffers must be C-contiguous")
    if writes == "array" and not arr.flags.writeable:
        raise ExchangeConfigError("cannot unpack into a read-only array")
    if writes == "buffers" and not all(buf.flags.writeable for buf in bufs):
        raise ExchangeConfigError("cannot pack into a read-only buffer")
    return table


def bind_gather(
    arr: np.ndarray,
    boxes: Sequence,
    bufs: Sequence[np.ndarray],
    movers: Movers,
) -> Callable[[], None]:
    """The call that copies box *b* of *arr* into flat ``bufs[b]``, every
    *b*.  *boxes* holds per-axis ``(lo, hi)`` ranges (numpy axis order);
    a mismatch between array, boxes and buffers is refused here, once,
    with :class:`ExchangeConfigError`.  *movers* are
    :func:`~repro.stencil.cbackend.array_movers`' answer for *arr*.
    """
    table = _box_table(arr, boxes, bufs, writes="buffers")
    return movers.gather(arr, table, bufs)


def bind_scatter(
    arr: np.ndarray,
    boxes: Sequence,
    bufs: Sequence[np.ndarray],
    movers: Movers,
) -> Callable[[], None]:
    """The inverse of :func:`bind_gather`: flat ``bufs[b]`` into box *b*."""
    table = _box_table(arr, boxes, bufs, writes="array")
    return movers.scatter(arr, table, bufs)


class BoxTable(NamedTuple):
    """The rank-invariant half of binding a plan's box messages.

    ``send`` / ``recv`` are the checked ``(nmsg, ndim, 2)`` ``(lo, hi)``
    tables (numpy axis order) of each message's boxes in an array of
    ``shape``; ``send_counts`` / ``recv_counts`` its staging elements
    per message.  Read-only: one table serves every rank and buffer of a
    run.
    """

    shape: Tuple[int, ...]
    send: np.ndarray
    recv: np.ndarray
    send_counts: Tuple[int, ...]
    recv_counts: Tuple[int, ...]


def box_table(
    shape: Tuple[int, ...], boxes: Sequence[Tuple[Slices, Slices]]
) -> BoxTable:
    """The :class:`BoxTable` of *boxes* -- each message's ``(send,
    recv)`` selections of an array of *shape* -- checked once."""
    shape = tuple(shape)

    def side(which: int):
        """``(lo, hi)`` table and staging sizes of every message's send
        (0) or recv (1) selection."""
        edges = [[(slc.start, slc.stop) for slc in pair[which]] for pair in boxes]
        table = _checked_boxes(shape, edges, len(boxes))
        table.flags.writeable = False
        return table, tuple((table[..., 1] - table[..., 0]).prod(axis=1).tolist())

    (send, send_counts), (recv, recv_counts) = side(0), side(1)
    return BoxTable(shape, send, recv, send_counts, recv_counts)


def stage_table(arr: np.ndarray, table: BoxTable) -> Binding:
    """Bind *arr* to the box messages of *table* through persistent
    staging buffers.

    The flat staging buffers go on the wire; the pack before and the
    unpack after are one bound call each over the table's boxes, with no
    per-step temporaries.  What is checked here is what differs per
    array -- its shape, that the unpack may write it, and that the
    movers can walk it (:func:`~repro.stencil.cbackend.array_movers`);
    the staging buffers are made to the table's sizes and in the array's
    dtype.
    """
    if arr.shape != table.shape:
        raise ExchangeConfigError(
            f"extended array shape {arr.shape}, expected {table.shape}"
        )
    if not arr.flags.writeable:
        raise ExchangeConfigError("cannot unpack into a read-only array")
    movers = array_movers(arr)
    send_bufs = [np.empty(n, dtype=arr.dtype) for n in table.send_counts]
    recv_bufs = [np.empty(n, dtype=arr.dtype) for n in table.recv_counts]
    return Binding(
        send_bufs,
        recv_bufs,
        movers.gather(arr, table.send, send_bufs),
        movers.scatter(arr, table.recv, recv_bufs),
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
