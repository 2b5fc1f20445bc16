"""MemMap exchange: stitched views, one message per neighbor (Section 4).

Two stitched windows per buffer are built once and reused every timestep
(the paper: "these views can be reused throughout the application until
the communication pattern changes"):

* the **send window** maps every padded surface region of the plan,
  neighbor by neighbor in plan order, into one virtually contiguous span;
* the **receive window** maps the matching ghost subsections identically.

A neighbor's wire buffer is its consecutive slice of a window.  The
windows map the memfd arena's pages, so they alias brick storage:
``MPI_Send(slice)`` / ``MPI_Recv(slice)`` are genuinely zero-copy and the
exchange runs no hooks.  Costs relative to Layout: page padding inflates
wire bytes (Table 2), and every chunk consumes one entry of the kernel's
``vm.max_map_count`` budget -- which the layout optimization keeps small
by coalescing runs.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.brick.decomp import BrickDecomp, SlotAssignment
from repro.brick.info import direction_index
from repro.brick.storage import BrickStorage
from repro.exchange.base import (
    UNRESOLVED,
    Binding,
    Exchanger,
    ExchangeResult,
    PlannedMessage,
    RankMessagePlan,
    ScheduleTemplate,
    exchange_tag,
)
from repro.exchange.layout_ex import neighbor_sections, storage_bytes
from repro.exchange.schedule import MessageSpec
from repro.faults.errors import ExchangeConfigError
from repro.hardware.profiles import MachineProfile
from repro.simmpi.comm import CartComm
from repro.vmem.layout_plan import ViewPlan, plan_view
from repro.vmem.realmap import RealStitchedView

__all__ = ["MemMapExchanger", "WindowTable", "memmap_tables", "memmap_template"]


def memmap_template(
    decomp: BrickDecomp, assignment: SlotAssignment, page_size: int
) -> ScheduleTemplate:
    """The MemMap schedule of *assignment*: per neighbor one send and
    one receive, each the :class:`~repro.vmem.layout_plan.ViewPlan` of a
    stitched view (``ranges`` are its page-granular chunks)."""
    expected_align = decomp.alignment_for_page(page_size)
    if assignment.alignment % expected_align:
        raise ExchangeConfigError(
            f"storage alignment {assignment.alignment} is not page-"
            f"aligned for {page_size}-byte pages"
        )
    ndim = decomp.ndim
    bb = decomp.brick_bytes

    def view_plan(secs) -> ViewPlan:
        return plan_view(
            [(sec.start * bb, sec.nbricks * bb) for sec in secs], page_size
        )

    def message(neighbor, slab_dir, plan: ViewPlan) -> PlannedMessage:
        """One stitched view on the wire: payload plus page padding."""
        spec = MessageSpec(
            neighbor,
            payload_bytes=plan.payload_bytes,
            wire_bytes=plan.mapped_bytes,
            nsegments=1,
            run_elems=plan.payload_bytes // 8,
            nmappings=plan.mapping_count,
        )
        return PlannedMessage(
            UNRESOLVED, exchange_tag(slab_dir, 0), spec, ranges=tuple(plan.chunks)
        )

    sends: List[PlannedMessage] = []
    recvs: List[PlannedMessage] = []
    for neighbor in decomp.layout:
        send_secs, recv_secs = neighbor_sections(decomp, assignment, neighbor)
        if not send_secs and not recv_secs:
            continue
        send_plan = view_plan(send_secs)
        recv_plan = view_plan(recv_secs)
        if send_plan.mapped_bytes != recv_plan.mapped_bytes:
            raise ExchangeConfigError(
                "send/recv view size mismatch for"
                f" {neighbor.notation()}: {send_plan.mapped_bytes} vs"
                f" {recv_plan.mapped_bytes}"
            )
        vec = neighbor.to_vector(ndim)
        opp = neighbor.opposite().to_vector(ndim)
        sends.append(message(neighbor, direction_index(opp), send_plan))
        recvs.append(message(neighbor, direction_index(vec), recv_plan))
    return ScheduleTemplate("memmap", tuple(sends), tuple(recvs))


class WindowTable(NamedTuple):
    """The rank-invariant half of binding a MemMap plan: per window (send,
    receive) the chunks it maps, neighbor by neighbor in plan order, and
    each message's ``(start, stop)`` slice of it; and the storage bytes
    the chunks reach."""

    send_chunks: Tuple[Tuple[int, int], ...]
    recv_chunks: Tuple[Tuple[int, int], ...]
    send_cuts: Tuple[Tuple[int, int], ...]
    recv_cuts: Tuple[Tuple[int, int], ...]
    reach: int


def memmap_tables(plan: RankMessagePlan, extent=None, ghost=None) -> WindowTable:
    """The two windows of *plan*: its messages' chunks, concatenated.
    (*extent* and *ghost* size an array scheme's boxes; a brick plan
    carries its byte ranges.)"""

    def window(messages):
        chunks = tuple(c for m in messages for c in m.ranges)
        ends = np.cumsum([m.nbytes for m in messages]).tolist()
        cuts = tuple(zip([0] + ends[:-1], ends))
        return chunks, cuts

    (send_chunks, send_cuts), (recv_chunks, recv_cuts) = (
        window(plan.sends), window(plan.recvs)
    )
    reach = max((off + n for off, n in send_chunks + recv_chunks), default=0)
    return WindowTable(send_chunks, recv_chunks, send_cuts, recv_cuts, reach)


class MemMapExchanger(Exchanger):
    """One-message-per-neighbor pack-free exchange through mapped views."""

    def __init__(
        self,
        comm: CartComm,
        plan: RankMessagePlan,
        storage: BrickStorage,
        profile: MachineProfile,
        result: Optional[ExchangeResult] = None,
        table: Optional[WindowTable] = None,
    ) -> None:
        if not storage.can_map:
            raise ExchangeConfigError(
                "MemMapExchanger needs mapping-capable storage; allocate it"
                " with BrickDecomp.mmap_alloc"
            )
        #: requested chunks of the two windows: their vm.max_map_count charge
        self.mapping_count = sum(
            m.spec.nmappings for m in plan.sends + plan.recvs
        )
        # The budget is this process's, so it is checked where the views
        # are mapped -- by the rank, which the degradation ladder catches.
        if self.mapping_count > profile.mmap_limit:
            raise ExchangeConfigError(
                f"exchange needs {self.mapping_count} mappings, over the"
                f" per-process limit of {profile.mmap_limit}"
                " (vm.max_map_count); use a coarser layout or fewer fields"
            )
        super().__init__(comm, plan, storage, profile, result, table)

    # benchmarks/halobench/spans.py wraps vars(MemMapExchanger)["exchange"],
    # a class-__dict__ lookup that does not see inherited attributes.
    exchange = Exchanger.exchange

    _tables = staticmethod(memmap_tables)

    def _bind(self, storage: BrickStorage, table: WindowTable) -> Binding:
        """The two windows are the wire buffers: one slice per message."""
        storage_bytes(storage, table.reach)  # the refusals of every brick plan
        self._views: List[RealStitchedView] = []

        def window(chunks, cuts) -> List[np.ndarray]:
            if not chunks:
                return []
            view = storage.make_view(chunks)
            self._views.append(view)
            flat = view.array()
            return [flat[a:b] for a, b in cuts]

        # Pack-free through the MMU: no hooks, no staged bytes (the
        # windows burn kernel mappings instead, the vm.max_map_count budget).
        sends = window(table.send_chunks, table.send_cuts)
        recvs = window(table.recv_chunks, table.recv_cuts)
        return Binding(sends, recvs)

    def close(self) -> None:
        for v in self._views:
            v.close()
