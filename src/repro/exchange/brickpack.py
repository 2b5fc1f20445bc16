"""Brick-storage packing exchange: the degradation ladder's last rung.

Functionally this is the classic pack -> send -> recv -> unpack scheme of
:class:`~repro.exchange.pack.PackExchanger`, but it runs over *brick*
storage (any alignment, padded or not) instead of a lexicographic array:
for each neighbor, the surface sections are gathered slot-range by
slot-range into one persistent staging buffer, sent as a single message,
and the neighbor's payload is scattered into the ghost sections.

It exists so a rank whose MemMap machinery fails mid-run (mapping budget
exhausted, mmap refusal) can keep computing on the same brick storage with
zero re-allocation: MemMap -> Layout -> BrickPack demotion only swaps the
exchange engine.  The modelled cost honestly re-acquires the packing tax
the pack-free schemes eliminate.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

import numpy as np

from repro.brick.decomp import BrickDecomp, SlotAssignment
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
from repro.exchange.boxes import bind_copy
from repro.exchange.layout_ex import neighbor_sections, storage_bytes
from repro.exchange.schedule import MessageSpec
from repro.faults.errors import ExchangeConfigError
from repro.stencil.cbackend import mover_kernel

__all__ = [
    "BrickPackExchanger",
    "StageTable",
    "brickpack_tables",
    "brickpack_template",
]


def brickpack_template(
    decomp: BrickDecomp, assignment: SlotAssignment
) -> ScheduleTemplate:
    """One staged message per neighbor over the sections of *assignment*
    (any alignment)."""
    ndim = decomp.ndim
    bb = decomp.brick_bytes

    def byte_ranges(secs):
        return tuple((s.start * bb, s.nbricks * bb) for s in secs)

    sends: List[PlannedMessage] = []
    recvs: List[PlannedMessage] = []
    for neighbor in decomp.layout:
        send_secs, recv_secs = neighbor_sections(decomp, assignment, neighbor)
        n_send = sum(s.nbricks for s in send_secs)
        n_recv = sum(s.nbricks for s in recv_secs)
        if n_send != n_recv:
            raise ExchangeConfigError(
                f"send/recv brick count mismatch for {neighbor.notation()}:"
                f" {n_send} vs {n_recv}"
            )
        if n_send == 0:
            continue
        spec = MessageSpec(
            neighbor,
            payload_bytes=n_send * bb,
            wire_bytes=n_send * bb,
            nsegments=len(send_secs),
            run_elems=n_send * decomp.brick_elems // len(send_secs),
        )
        # The wire message is a staged contiguous buffer; the ranges
        # say where its payload *lives in brick storage*: gather
        # sources for the send, scatter targets for the receive.
        vec = neighbor.to_vector(ndim)
        opp = neighbor.opposite().to_vector(ndim)
        sends.append(
            PlannedMessage(
                UNRESOLVED, exchange_tag(direction_index(opp), 0), spec,
                ranges=byte_ranges(send_secs),
            )
        )
        recvs.append(
            PlannedMessage(
                UNRESOLVED, exchange_tag(direction_index(vec), 0), spec,
                ranges=byte_ranges(recv_secs),
            )
        )
    return ScheduleTemplate("brickpack", tuple(sends), tuple(recvs), copy="pack")


class StageTable(NamedTuple):
    """The rank-invariant half of binding a BrickPack plan, per side:
    each message's staging bytes, and each section as ``(message,
    storage start, storage stop, staging start, staging stop)``, bytes
    into the storage and into that message's staging buffer; and the
    storage bytes the sections reach."""

    send_sizes: Tuple[int, ...]
    recv_sizes: Tuple[int, ...]
    send_pieces: Tuple[Tuple[int, int, int, int, int], ...]
    recv_pieces: Tuple[Tuple[int, int, int, int, int], ...]
    reach: int


def brickpack_tables(plan: RankMessagePlan, extent=None, ghost=None) -> Tuple[StageTable]:
    """Each message staged in a buffer of its own, section after
    section.  (*extent* and *ghost* size an array scheme's boxes; a
    brick plan carries its byte ranges.)"""

    def side(messages):
        pieces = []
        for k, m in enumerate(messages):
            pos = 0
            for off, n in m.ranges:
                pieces.append((k, off, off + n, pos, pos + n))
                pos += n
        return tuple(m.nbytes for m in messages), tuple(pieces)

    (send_sizes, send_pieces), (recv_sizes, recv_pieces) = (
        side(plan.sends), side(plan.recvs)
    )
    reach = max((p[2] for p in send_pieces + recv_pieces), default=0)
    return (StageTable(send_sizes, recv_sizes, send_pieces, recv_pieces, reach),)


class BrickPackExchanger(Exchanger):
    """One staged message per neighbor over brick slot sections."""

    _tables = staticmethod(brickpack_tables)

    def _bind(self, st: BrickStorage, tables) -> List[Binding]:
        """Persistent staging, gathered from / scattered into the slot
        ranges of each message: every section is a contiguous run, so a
        side is one bound ``copy_list`` (:func:`bind_copy`)."""
        (table,) = tables
        flat = storage_bytes(st, table.reach)

        def stage(sizes, pieces):
            """Per message a staging buffer; per section its slice of
            that buffer and the storage run of equal size."""
            bufs = [np.empty(n, dtype=np.uint8) for n in sizes]
            staged = [bufs[k][c:d] for k, _a, _b, c, d in pieces]
            runs = [flat[a:b] for _k, a, b, _c, _d in pieces]
            return bufs, staged, runs

        send_bufs, packed, surface = stage(table.send_sizes, table.send_pieces)
        recv_bufs, unpacked, ghost = stage(table.recv_sizes, table.recv_pieces)
        movers = mover_kernel()  # contiguous runs: bytes, whatever the dtype
        return [
            Binding(
                send_bufs, recv_bufs,
                bind_copy(surface, packed, movers),
                bind_copy(unpacked, ghost, movers),
            )
        ]
