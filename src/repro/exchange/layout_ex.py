"""Layout-mode pack-free exchange (paper Section 3).

Brick storage is laid out so every surface region -- and every run of
regions consecutive in the layout -- is one contiguous slot range, and the
ghost sections mirror the *sender's* ordering.  Each message is therefore
a plain ``Isend`` of a storage view on one end and an ``Irecv`` straight
into storage on the other: zero on-node copies, at the price of more
messages (42 instead of 26 in 3-D under the optimal ``surface3d`` order).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.brick.decomp import BrickDecomp, Section, SlotAssignment
from repro.brick.info import direction_index
from repro.brick.storage import BrickStorage
from repro.exchange.base import (
    Binding,
    Exchanger,
    PlannedMessage,
    exchange_tag,
)
from repro.exchange.schedule import MessageSpec
from repro.faults.errors import ExchangeConfigError
from repro.hardware.profiles import MachineProfile
from repro.layout.messages import message_runs
from repro.simmpi.comm import CartComm
from repro.util.bitset import BitSet

__all__ = ["LayoutExchanger", "neighbor_sections"]


def neighbor_sections(
    decomp: BrickDecomp, assignment: SlotAssignment, neighbor: BitSet
) -> Tuple[List[Section], List[Section]]:
    """``(send, recv)`` brick sections exchanged with *neighbor*.

    The non-empty surface sections bound for it and the ghost sections
    filled from it, each in message-run order -- the payload order the
    one-message-per-neighbor brick schemes (MemMap, BrickPack) share
    with Layout's runs, so a peer's receive order matches regardless of
    its own method.
    """
    layout = decomp.layout

    def in_run_order(target: BitSet, section) -> List[Section]:
        return [
            sec
            for start, length in message_runs(layout, target)
            for i in range(start, start + length)
            if (sec := section(layout[i])).nbricks
        ]

    return (
        in_run_order(neighbor, lambda region: assignment.surface[region]),
        in_run_order(
            neighbor.opposite(), lambda region: assignment.ghost[(neighbor, region)]
        ),
    )


class LayoutExchanger(Exchanger):
    """Pack-free brick exchange using contiguous region runs."""

    method = "layout"

    def __init__(
        self,
        comm: CartComm,
        decomp: BrickDecomp,
        storage: Optional[BrickStorage],
        assignment: Optional[SlotAssignment] = None,
        profile: Optional[MachineProfile] = None,
        merge_runs: bool = True,
    ) -> None:
        from repro.hardware.profiles import generic_host

        super().__init__(comm, profile or generic_host())
        self.decomp = decomp
        self.storage = storage  # None = plan-only (static verification)
        self.merge_runs = bool(merge_runs)
        if not self.merge_runs:
            # One message per (region, neighbor) pair: the paper's Basic
            # scheme (5^D - 3^D sends), used as the Fig. 4 baseline.
            self.method = "basic"
        self.assignment = assignment or decomp.assignment(1)
        if self.merge_runs and self.assignment.alignment != 1:
            # Padding slots between sections break *run* contiguity, so
            # merged messages pair with plain allocation (paper Figure 7
            # left column).  Basic mode (one message per region) only
            # needs each section contiguous, which holds at any
            # alignment -- that is what lets a degraded MemMap rank fall
            # back to Layout exchange over its padded storage.
            raise ExchangeConfigError(
                "LayoutExchanger with merge_runs requires unpadded storage"
                " (alignment 1); use MemMapExchanger for mmap_alloc"
                " storage, or merge_runs=False"
            )
        ndim = decomp.ndim
        bb = decomp.brick_bytes

        def groups(target: BitSet) -> List[List[int]]:
            """Region-position groups, each becoming one message."""
            if self.merge_runs:
                return [
                    list(range(start, start + length))
                    for start, length in message_runs(decomp.layout, target)
                ]
            return [
                [i]
                for i, region in enumerate(decomp.layout)
                if target.issubset(region)
            ]

        def messages(neighbor, rank, target, slab_dir, section):
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
                        f"the {len(secs)} sections of a {self.method} message"
                        f" at slot {start} are not contiguous in storage"
                    )
                out.append(
                    PlannedMessage(
                        rank,
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
            rank = comm.neighbor_rank(vec)
            if rank is None:
                continue  # non-periodic boundary: no partner, no messages
            opp = neighbor.opposite()
            # Sends: groups of regions (supersets of neighbor), tagged by
            # the receiver's ghost-slab direction.
            sends += messages(
                neighbor, rank, neighbor, direction_index(opp.to_vector(ndim)),
                lambda region: self.assignment.surface[region],
            )
            # Receives: our ghost slab g(neighbor), partitioned exactly as
            # the sender partitioned its sends (their groups for *their*
            # neighbor -neighbor).
            recvs += messages(
                neighbor, rank, opp, direction_index(vec),
                lambda region: self.assignment.ghost[(neighbor, region)],
            )
        self._install(sends, recvs, storage)

    # benchmarks/halobench/spans.py wraps vars(LayoutExchanger)["exchange"],
    # a class-__dict__ lookup that does not see inherited attributes.
    exchange = Exchanger.exchange

    def _bind(self, st: BrickStorage) -> List[Binding]:
        """Every message is a view of its slot range: nothing to copy."""
        bb = self.decomp.brick_bytes

        def views(messages):
            return [
                st.slot_view(off // bb, n // bb)
                for m in messages
                for off, n in m.ranges
            ]

        return [Binding(views(self.plan.sends), views(self.plan.recvs))]
