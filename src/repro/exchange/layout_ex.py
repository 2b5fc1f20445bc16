"""Layout-mode pack-free exchange (paper Section 3).

Brick storage is laid out so every surface region -- and every run of
regions consecutive in the layout -- is one contiguous slot range, and the
ghost sections mirror the *sender's* ordering.  Each message is therefore
a plain ``Isend`` of a storage view on one end and an ``Irecv`` straight
into storage on the other: zero on-node copies, at the price of more
messages (42 instead of 26 in 3-D under the optimal ``surface3d`` order).
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

import numpy as np

from repro.brick.decomp import BrickDecomp, Section, SlotAssignment
from repro.brick.info import direction_index
from repro.brick.storage import BrickStorage
from repro.exchange.base import (
    UNRESOLVED,
    Binding,
    Exchanger,
    PlannedMessage,
    RankMessagePlan,
    ScheduleTemplate,
    exchange_tag,
)
from repro.exchange.schedule import MessageSpec
from repro.faults.errors import ExchangeConfigError
from repro.util.bitset import BitSet

__all__ = [
    "LayoutExchanger",
    "RangeTable",
    "layout_tables",
    "layout_template",
    "neighbor_sections",
    "storage_bytes",
]


def neighbor_sections(
    decomp: BrickDecomp, assignment: SlotAssignment, neighbor: BitSet
) -> Tuple[List[Section], List[Section]]:
    """``(send, recv)`` brick sections exchanged with *neighbor*.

    The non-empty surface sections bound for it and the ghost sections
    filled from it, each in message-run order -- the payload order
    MemMap's one message per neighbor shares with Layout's runs, so a
    peer's receive order matches regardless of its own method.
    """
    layout = decomp.layout

    def in_run_order(target: BitSet, section) -> List[Section]:
        return [
            sec
            for start, length in decomp.runs[target]
            for i in range(start, start + length)
            if (sec := section(layout[i])).nbricks
        ]

    return (
        in_run_order(neighbor, lambda region: assignment.surface[region]),
        in_run_order(
            neighbor.opposite(), lambda region: assignment.ghost[(neighbor, region)]
        ),
    )


def layout_template(
    decomp: BrickDecomp, assignment: SlotAssignment, merge_runs: bool = True
) -> ScheduleTemplate:
    """The Layout schedule of *assignment*: one message per contiguous
    run of regions per neighbor, or -- ``merge_runs=False``, the paper's
    Basic scheme and the Fig. 4 baseline -- one per (region, neighbor)
    pair (``5^D - 3^D`` sends)."""
    method = "layout" if merge_runs else "basic"
    if merge_runs and assignment.alignment != 1:
        # Padding slots between sections break *run* contiguity, so
        # merged messages pair with plain allocation (paper Figure 7
        # left column).  Basic mode (one message per region) only
        # needs each section contiguous, which holds at any
        # alignment -- that is what lets a degraded MemMap rank fall
        # back to Layout exchange over its padded storage.
        raise ExchangeConfigError(
            "the run-merged layout schedule requires unpadded storage"
            " (alignment 1); use the memmap schedule for mmap_alloc"
            " storage, or merge_runs=False"
        )
    ndim = decomp.ndim
    bb = decomp.brick_bytes

    def groups(target: BitSet) -> List[List[int]]:
        """Region-position groups, each becoming one message."""
        if merge_runs:
            return [
                list(range(start, start + length))
                for start, length in decomp.runs[target]
            ]
        return [
            [i]
            for i, region in enumerate(decomp.layout)
            if target.issubset(region)
        ]

    def messages(neighbor, target, slab_dir, section):
        """One message per group of *target*, over the slot range of
        the group's sections (``section(region)`` looks one up)."""
        out = []
        for k, grp in enumerate(groups(target)):
            secs = [section(decomp.layout[i]) for i in grp]
            nb = sum(s.nbricks for s in secs)
            if nb == 0:
                continue
            start = secs[0].start
            if secs[-1].end - start != nb:
                raise ExchangeConfigError(
                    f"the {len(secs)} sections of a {method} message"
                    f" at slot {start} are not contiguous in storage"
                )
            out.append(
                PlannedMessage(
                    UNRESOLVED,
                    exchange_tag(slab_dir, k),
                    MessageSpec(neighbor, nb * bb, nb * bb, 1, nb * bb // 8),
                    ranges=((start * bb, nb * bb),),
                )
            )
        return out

    sends: List[PlannedMessage] = []
    recvs: List[PlannedMessage] = []
    for neighbor in decomp.layout:
        vec = neighbor.to_vector(ndim)
        opp = neighbor.opposite()
        # Sends: groups of regions (supersets of neighbor), tagged by
        # the receiver's ghost-slab direction.
        sends += messages(
            neighbor, neighbor, direction_index(opp.to_vector(ndim)),
            lambda region: assignment.surface[region],
        )
        # Receives: our ghost slab g(neighbor), partitioned exactly as
        # the sender partitioned its sends (their groups for *their*
        # neighbor -neighbor).
        recvs += messages(
            neighbor, opp, direction_index(vec),
            lambda region: assignment.ghost[(neighbor, region)],
        )
    return ScheduleTemplate(method, tuple(sends), tuple(recvs))


class RangeTable(NamedTuple):
    """The rank-invariant half of binding a pack-free brick plan: the
    storage byte ``(start, stop)`` of every wire view, sends and
    receives in plan order, and the bytes they reach."""

    sends: Tuple[Tuple[int, int], ...]
    recvs: Tuple[Tuple[int, int], ...]
    reach: int


def layout_tables(plan: RankMessagePlan, extent=None, ghost=None) -> RangeTable:
    """Every storage range of *plan*'s messages is one wire view.
    (*extent* and *ghost* size an array scheme's boxes; a brick plan
    carries its byte ranges.)"""

    def ranges(messages) -> Tuple[Tuple[int, int], ...]:
        return tuple((off, off + n) for m in messages for off, n in m.ranges)

    sends, recvs = ranges(plan.sends), ranges(plan.recvs)
    reach = max((stop for _start, stop in sends + recvs), default=0)
    return RangeTable(sends, recvs, reach)


def storage_bytes(storage: BrickStorage, reach: int) -> np.ndarray:
    """*storage*'s bricks as one flat ``uint8`` view, the buffer every
    wire view of a brick plan is cut from.  Refused unless
    it is C-contiguous, writeable (every exchange receives into it) and
    holds the *reach* bytes the plan's ranges touch."""
    data = storage.data
    if not data.flags.c_contiguous:
        raise ExchangeConfigError("brick storage must be C-contiguous")
    if not data.flags.writeable:
        raise ExchangeConfigError(
            "cannot bind read-only brick storage: the exchange receives into it"
        )
    flat = data.reshape(-1).view(np.uint8)
    if reach > flat.size:
        raise ExchangeConfigError(
            f"the plan reaches byte {reach} of a brick storage of"
            f" {flat.size} bytes"
        )
    return flat


class LayoutExchanger(Exchanger):
    """Pack-free brick exchange using contiguous region runs."""

    # benchmarks/halobench/spans.py wraps vars(LayoutExchanger)["__init__"]
    # and ["exchange"], class-__dict__ lookups that do not see inherited
    # attributes.
    __init__ = Exchanger.__init__
    exchange = Exchanger.exchange

    _tables = staticmethod(layout_tables)

    def _bind(self, st: BrickStorage, table: RangeTable) -> Binding:
        """Every message is a view of its byte range: nothing to copy."""
        flat = storage_bytes(st, table.reach)
        return Binding(
            [flat[a:b] for a, b in table.sends],
            [flat[a:b] for a, b in table.recvs],
        )
