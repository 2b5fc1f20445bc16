"""Combinatorial message schedules.

Everything a cost model needs to price one rank's ghost-zone exchange --
message count, payload and wire sizes, contiguous-segment structure --
follows from pure arithmetic on the decomposition parameters; no storage
has to be allocated.  The modelled-scale driver (strong-scaling figures up
to 1024 nodes) uses these schedules directly, and the executed exchangers'
plans are asserted equal to them in the test suite.

All schedules describe *sends*; by symmetry a rank's receives in a
periodic cubical decomposition have identical sizes
(:func:`mirror_schedule`).  The brick schedules list neighbours in
*layout* order and the mirror lists receives in the sender's order, as
the templates the ranks bind do: a wire time is a float sum over the
messages, so only the same order prices bit-equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.layout.messages import message_runs
from repro.layout.regions import all_regions, region_brick_extent
from repro.util.bitset import BitSet
from repro.util.indexing import ceil_div
from repro.faults.errors import ExchangeConfigError

__all__ = [
    "MessageSpec",
    "brick_send_schedule",
    "mirror_schedule",
    "basic_brick_schedule",
    "memmap_schedule",
    "array_schedule",
    "shift_schedule",
]


@dataclass(frozen=True)
class MessageSpec:
    """One message of an exchange, as the cost models see it.

    ``payload_bytes`` is useful data; ``wire_bytes`` includes MemMap page
    padding.  ``nsegments``/``run_elems`` describe the memory layout of
    the *source* region (for pack and datatype-engine costs).
    ``nmappings`` counts the stitched-view chunks behind the message
    (MemMap only; 1 otherwise -- a plain pointer).
    """

    neighbor: BitSet
    payload_bytes: int
    wire_bytes: int
    nsegments: int = 1
    run_elems: int = 0
    nmappings: int = 1

    def __post_init__(self) -> None:
        if self.payload_bytes < 0 or self.wire_bytes < self.payload_bytes:
            raise ExchangeConfigError("wire size must be at least the payload size")


def _region_bricks(region: BitSet, grid: Sequence[int], width: int) -> int:
    return math.prod(region_brick_extent(region, tuple(grid), width))


def brick_send_schedule(
    grid: Sequence[int],
    width: int,
    layout: Sequence[BitSet],
    brick_bytes: int,
) -> List[MessageSpec]:
    """Layout-mode sends: one message per contiguous run per neighbor.

    Empty runs (possible when the subdomain has no interior span on some
    axis) are dropped, matching the executed exchanger.
    """
    out: List[MessageSpec] = []
    for neighbor in layout:
        for start, length in message_runs(layout, neighbor):
            nb = sum(
                _region_bricks(layout[i], grid, width)
                for i in range(start, start + length)
            )
            if nb == 0:
                continue
            nbytes = nb * brick_bytes
            out.append(
                MessageSpec(
                    neighbor,
                    payload_bytes=nbytes,
                    wire_bytes=nbytes,
                    nsegments=1,
                    run_elems=nbytes // 8,
                )
            )
    return out


def mirror_schedule(sends: Sequence[MessageSpec]) -> List[MessageSpec]:
    """Receive specs of a send schedule: in a periodic uniform
    decomposition what arrives from a neighbor is what the rank there
    sends to *its* opposite neighbor -- this rank's own sends to the
    opposite direction, relabelled, in the sender's message order (the
    order the brick templates list their receives in)."""
    by_neighbor: dict = {}
    for m in sends:
        by_neighbor.setdefault(m.neighbor, []).append(m)
    return [
        replace(m, neighbor=neighbor)
        for neighbor in by_neighbor
        for m in by_neighbor.get(neighbor.opposite(), ())
    ]


def basic_brick_schedule(
    grid: Sequence[int],
    width: int,
    layout: Sequence[BitSet],
    brick_bytes: int,
) -> List[MessageSpec]:
    """Basic-mode sends: one message per (region, neighbor) pair.

    ``5^D - 3^D`` messages in total (Eq. 3); relative region order is
    irrelevant, so no layout optimization is involved.
    """
    out: List[MessageSpec] = []
    for neighbor in layout:
        for region in layout:
            if not neighbor.issubset(region):
                continue
            nb = _region_bricks(region, grid, width)
            if nb == 0:
                continue
            nbytes = nb * brick_bytes
            out.append(
                MessageSpec(
                    neighbor,
                    payload_bytes=nbytes,
                    wire_bytes=nbytes,
                    nsegments=1,
                    run_elems=nbytes // 8,
                )
            )
    return out


def shift_schedule(
    extent: Sequence[int], ghost: int, itemsize: int = 8
) -> List[List[MessageSpec]]:
    """Shift-mode sends, one phase per dimension (``2D`` messages total).

    Phase ``d`` exchanges bands of width ``ghost`` along axis ``d`` whose
    other axes span the *extended* range for already-exchanged axes
    (corner forwarding) and the owned range otherwise.  Phases serialize.
    """
    extent = tuple(int(e) for e in extent)
    ndim = len(extent)
    if ghost <= 0:
        raise ExchangeConfigError("ghost width must be positive")
    ext_shape = tuple(e + 2 * ghost for e in extent)
    phases: List[List[MessageSpec]] = []
    for axis in range(ndim):
        phase: List[MessageSpec] = []
        for sign in (-1, 1):
            sub = []
            for a, e in enumerate(extent):
                if a < axis:
                    sub.append(e + 2 * ghost)
                elif a == axis:
                    sub.append(ghost)
                else:
                    sub.append(e)
            count = math.prod(sub)
            run = 1
            for a in range(ndim):
                run *= sub[a]
                if sub[a] != ext_shape[a]:
                    break
            vec = [0] * ndim
            vec[axis] = sign
            phase.append(
                MessageSpec(
                    BitSet.from_vector(vec),
                    payload_bytes=count * itemsize,
                    wire_bytes=count * itemsize,
                    nsegments=max(1, count // run),
                    run_elems=run,
                )
            )
        phases.append(phase)
    return phases


def memmap_schedule(
    grid: Sequence[int],
    width: int,
    layout: Sequence[BitSet],
    brick_bytes: int,
    page_size: int,
) -> List[MessageSpec]:
    """MemMap sends: exactly one message per neighbor, page-padded.

    Each region in the view is padded to a page multiple; runs of
    adjacent regions coalesce into single mappings (Section 4: layout
    optimization minimises the mapping count).
    """
    if page_size <= 0:
        raise ExchangeConfigError("page_size must be positive")
    align = math.lcm(brick_bytes, page_size)
    out: List[MessageSpec] = []
    for neighbor in layout:
        payload = 0
        wire = 0
        nmappings = 0
        for start, length in message_runs(layout, neighbor):
            run_bricks = 0
            for i in range(start, start + length):
                nb = _region_bricks(layout[i], grid, width)
                run_bricks += nb
                wire += ceil_div(nb * brick_bytes, align) * align if nb else 0
            if run_bricks:
                payload += run_bricks * brick_bytes
                nmappings += 1  # a run coalesces into one mapping
        if payload == 0:
            continue
        out.append(
            MessageSpec(
                neighbor,
                payload_bytes=payload,
                wire_bytes=wire,
                nsegments=1,
                run_elems=payload // 8,
                nmappings=nmappings,
            )
        )
    return out


def array_schedule(
    extent: Sequence[int], ghost: int, itemsize: int = 8
) -> List[MessageSpec]:
    """Pack / MPI_Types sends on a lexicographic array: one box per
    neighbor.

    Segment structure: the contiguous run of a box is the product of
    trailing axes the box spans fully (axis 1 innermost); the surface
    bands never span the extended axis, so runs are short on axis-1-normal
    faces (the "strided" pattern packing suffers from).
    """
    extent = tuple(int(e) for e in extent)
    ndim = len(extent)
    if ghost <= 0:
        raise ExchangeConfigError("ghost width must be positive")
    ext_shape = tuple(e + 2 * ghost for e in extent)  # axis order 1..D
    out: List[MessageSpec] = []
    for neighbor in all_regions(ndim):
        vec = neighbor.to_vector(ndim)
        sub = tuple(ghost if v else e for v, e in zip(vec, extent))
        count = math.prod(sub)
        if count == 0:
            continue
        # contiguous run: trailing full axes in numpy order = leading axes
        # in axis-1-first order.
        run = 1
        for axis in range(ndim):
            run *= sub[axis]
            if sub[axis] != ext_shape[axis]:
                break
        nbytes = count * itemsize
        out.append(
            MessageSpec(
                neighbor,
                payload_bytes=nbytes,
                wire_bytes=nbytes,
                nsegments=max(1, count // run),
                run_elems=run,
            )
        )
    return out
