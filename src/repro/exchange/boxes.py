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

Moving the boxes -- pack, unpack, and the datatype engine's gather and
scatter, which are the same movement -- is bound once
(:func:`bind_gather` / :func:`bind_scatter`; :func:`bind_copy` where the
pieces are contiguous runs, brick storage's slot sections): every
array, box and buffer is checked where the table is built, and the call
that comes back moves all of a side's boxes, on the C tier
(:class:`repro.stencil.cbackend.Movers`) as one table-driven call, on
the NumPy tier as one strided copy per box.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Sequence, Tuple

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
    "bind_copy",
    "bind_gather",
    "bind_scatter",
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


def _box_table(
    arr: np.ndarray, boxes: Sequence, bufs: Sequence[np.ndarray], writes: str
) -> np.ndarray:
    """*boxes* as an ``(nboxes, ndim, 2)`` int64 ``(lo, hi)`` table, after
    checking everything a mover would otherwise take on trust: each box
    lies in *arr*, its buffer is C-contiguous, of *arr*'s dtype and
    exactly the box's size, and whatever the move writes (*writes*:
    ``"array"`` or ``"buffers"``) is writeable.  The C tier moves through
    raw pointers, so this is the last place a mistake is an error and
    not memory corruption; the NumPy tier gets the same refusal instead
    of a silent cast or a reshape failure mid-run.
    """
    if len(boxes) != len(bufs):
        raise ExchangeConfigError(
            f"{len(boxes)} boxes bound to {len(bufs)} buffers"
        )
    try:
        table = np.asarray(boxes, dtype=np.int64).reshape(len(bufs), arr.ndim, 2)
    except (TypeError, ValueError):
        raise ExchangeConfigError(
            f"boxes are not (lo, hi) pairs per axis of a {arr.ndim}-D array"
        ) from None
    lo, hi = table[..., 0], table[..., 1]
    if ((lo < 0) | (hi < lo) | (hi > np.array(arr.shape))).any():
        raise ExchangeConfigError(
            f"a box leaves the array of shape {arr.shape}: {table.tolist()}"
        )
    counts = (hi - lo).prod(axis=1).tolist()
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


def _box_views(arr: np.ndarray, table: np.ndarray, bufs) -> list:
    """Per box: its selection of *arr* and its buffer in the box's shape."""
    return [
        (
            tuple(slice(lo, hi) for lo, hi in box),
            buf.reshape([hi - lo for lo, hi in box]),
        )
        for box, buf in zip(table.tolist(), bufs)
    ]


def _numpy_gather(arr: np.ndarray, table: np.ndarray, bufs) -> Callable[[], None]:
    """The NumPy tier of :func:`bind_gather`: one strided copy per box."""
    pairs = _box_views(arr, table, bufs)

    def gather() -> None:
        for slc, view in pairs:
            np.copyto(view, arr[slc])

    return gather


def _numpy_scatter(arr: np.ndarray, table: np.ndarray, bufs) -> Callable[[], None]:
    """The NumPy tier of :func:`bind_scatter`."""
    pairs = _box_views(arr, table, bufs)

    def scatter() -> None:
        for slc, view in pairs:
            arr[slc] = view

    return scatter


def bind_gather(
    arr: np.ndarray,
    boxes: Sequence,
    bufs: Sequence[np.ndarray],
    movers: Optional[Movers],
) -> Callable[[], None]:
    """The call that copies box *b* of *arr* into flat ``bufs[b]``, every
    *b*.  *boxes* holds per-axis ``(lo, hi)`` ranges (numpy axis order);
    a mismatch between array, boxes and buffers is refused here, once,
    with :class:`ExchangeConfigError`.  *movers* picks the tier
    (:func:`~repro.stencil.cbackend.array_movers`; ``None``: NumPy);
    both leave the same bytes.
    """
    table = _box_table(arr, boxes, bufs, writes="buffers")
    if movers is None:
        return _numpy_gather(arr, table, bufs)
    return movers.gather(arr, table, bufs)


def bind_scatter(
    arr: np.ndarray,
    boxes: Sequence,
    bufs: Sequence[np.ndarray],
    movers: Optional[Movers],
) -> Callable[[], None]:
    """The inverse of :func:`bind_gather`: flat ``bufs[b]`` into box *b*."""
    table = _box_table(arr, boxes, bufs, writes="array")
    if movers is None:
        return _numpy_scatter(arr, table, bufs)
    return movers.scatter(arr, table, bufs)


def _numpy_copy(srcs, dsts) -> Callable[[], None]:
    """The NumPy tier of :func:`bind_copy`: one assignment per pair."""
    pairs = list(zip(dsts, srcs))

    def copy() -> None:
        for dst, src in pairs:
            dst[:] = src

    return copy


def bind_copy(
    srcs: Sequence[np.ndarray],
    dsts: Sequence[np.ndarray],
    movers: Optional[Movers],
) -> Callable[[], None]:
    """The call that copies flat ``srcs[i]`` into flat ``dsts[i]``, every
    *i*: a gather or scatter whose pieces are contiguous runs rather
    than boxes (brick storage's slot sections).  Refused here, once,
    with :class:`ExchangeConfigError`: a pair that differs in size or
    dtype, a view that is not C-contiguous, a read-only destination.
    """
    if len(srcs) != len(dsts):
        raise ExchangeConfigError(
            f"{len(srcs)} sources bound to {len(dsts)} destinations"
        )
    for src, dst in zip(srcs, dsts):
        if src.size != dst.size or src.dtype != dst.dtype:
            raise ExchangeConfigError(
                f"a run of {src.size} {src.dtype} elements bound to one of"
                f" {dst.size} {dst.dtype}"
            )
        if not (src.flags.c_contiguous and dst.flags.c_contiguous):
            raise ExchangeConfigError("copied runs must be C-contiguous")
        if not dst.flags.writeable:
            raise ExchangeConfigError("cannot copy into a read-only run")
    if movers is None:
        return _numpy_copy(srcs, dsts)
    return movers.copy_list(srcs, dsts)


def stage_boxes(
    arr: np.ndarray, boxes: Sequence[Tuple[Slices, Slices]]
) -> Binding:
    """Bind box messages to *arr* through persistent staging buffers.

    *boxes* holds each message's ``(send, recv)`` selections of *arr*.
    The flat staging buffers go on the wire; the pack before and the
    unpack after are one bound call each (:func:`bind_gather`,
    :func:`bind_scatter`) over tables built here, with no per-step
    temporaries.
    """

    def side(which: int):
        """``(lo, hi)`` table and fresh flat buffers of every message's
        send (0) or recv (1) selection."""
        edges = [
            edge
            for pair in boxes
            for slc in pair[which]
            for edge in (slc.start, slc.stop)
        ]
        table = np.array(edges, dtype=np.int64).reshape(len(boxes), arr.ndim, 2)
        counts = (table[..., 1] - table[..., 0]).prod(axis=1).tolist()
        return table, [np.empty(n, dtype=arr.dtype) for n in counts]

    (send_table, send_bufs), (recv_table, recv_bufs) = side(0), side(1)
    movers = array_movers(arr)
    return Binding(
        send_bufs,
        recv_bufs,
        bind_gather(arr, send_table, send_bufs, movers),
        bind_scatter(arr, recv_table, recv_bufs, movers),
        backend="numpy" if movers is None else "cffi",
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
