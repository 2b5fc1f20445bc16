"""MemMap exchange: stitched views, one message per neighbor (Section 4).

For every neighbor, two stitched views are built once and reused every
timestep (the paper: "these views can be reused throughout the application
until the communication pattern changes"):

* the **send view** maps the padded surface regions bound for that
  neighbor, run by run, into one virtually contiguous window;
* the **recv view** maps the matching ghost subsections identically.

With the real memfd arena the views alias brick storage, so
``MPI_Send(view)`` / ``MPI_Recv(view)`` are genuinely zero-copy; with the
simulated arena, refresh/flush copies stand in for the MMU (charged zero
modelled time).  Costs relative to Layout: page padding inflates wire
bytes (Table 2), and every chunk consumes one entry of the kernel's
``vm.max_map_count`` budget -- which the layout optimization keeps small
by coalescing runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.brick.decomp import BrickDecomp, SlotAssignment
from repro.brick.info import direction_index
from repro.brick.storage import BrickStorage
from repro.exchange.base import Binding, Exchanger, PlannedMessage, exchange_tag
from repro.exchange.layout_ex import neighbor_sections
from repro.exchange.schedule import MessageSpec
from repro.faults.errors import ExchangeConfigError
from repro.hardware.profiles import MachineProfile
from repro.simmpi.comm import CartComm
from repro.util.bitset import BitSet
from repro.vmem.layout_plan import ViewPlan, plan_view
from repro.vmem.view import StitchedViewBase

__all__ = ["MemMapExchanger", "ExchangeView"]


@dataclass
class ExchangeView:
    """Paired send/recv views for one neighbor.

    The views are ``None`` on a plan-only exchanger (static
    verification), which computes the :class:`ViewPlan` pair without
    materializing any mapping.
    """

    neighbor: BitSet
    send_plan: ViewPlan
    recv_plan: ViewPlan
    send_view: Optional[StitchedViewBase] = None
    recv_view: Optional[StitchedViewBase] = None

    def close(self) -> None:
        if self.send_view is not None:
            self.send_view.close()
        if self.recv_view is not None:
            self.recv_view.close()


class MemMapExchanger(Exchanger):
    """One-message-per-neighbor pack-free exchange through mapped views."""

    method = "memmap"

    def __init__(
        self,
        comm: CartComm,
        decomp: BrickDecomp,
        storage: Optional[BrickStorage],
        assignment: SlotAssignment,
        profile: Optional[MachineProfile] = None,
        page_size: Optional[int] = None,
    ) -> None:
        from repro.hardware.profiles import generic_host

        super().__init__(comm, profile or generic_host())
        if storage is not None and not storage.can_map:
            raise ExchangeConfigError(
                "MemMapExchanger needs mapping-capable storage; allocate it"
                " with BrickDecomp.mmap_alloc"
            )
        self.decomp = decomp
        self.storage = storage  # None = plan-only (static verification)
        self.assignment = assignment
        if page_size is None and storage is not None:
            page_size = storage.arena.page_size
        if page_size is None:
            raise ExchangeConfigError(
                "plan-only MemMapExchanger needs an explicit page_size"
            )
        self.page_size = page_size
        expected_align = decomp.alignment_for_page(self.page_size)
        if assignment.alignment % expected_align:
            raise ExchangeConfigError(
                f"storage alignment {assignment.alignment} is not page-"
                f"aligned for {self.page_size}-byte pages"
            )
        ndim = decomp.ndim
        bb = decomp.brick_bytes

        def view_plan(secs) -> ViewPlan:
            return plan_view(
                [(sec.start * bb, sec.nbricks * bb) for sec in secs],
                self.page_size,
            )

        def message(neighbor, rank, slab_dir, plan: ViewPlan) -> PlannedMessage:
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
                rank, exchange_tag(slab_dir, 0), spec, ranges=tuple(plan.chunks)
            )

        self.views: List[ExchangeView] = []
        sends: List[PlannedMessage] = []
        recvs: List[PlannedMessage] = []
        for neighbor in decomp.layout:
            vec = neighbor.to_vector(ndim)
            rank = comm.neighbor_rank(vec)
            if rank is None:
                continue  # non-periodic boundary: no partner, no views
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
            self.views.append(
                ExchangeView(
                    neighbor,
                    send_plan,
                    recv_plan,
                    send_view=(
                        storage.make_view(send_plan.chunks)
                        if storage is not None else None
                    ),
                    recv_view=(
                        storage.make_view(recv_plan.chunks)
                        if storage is not None else None
                    ),
                )
            )
            opp = neighbor.opposite().to_vector(ndim)
            sends.append(message(neighbor, rank, direction_index(opp), send_plan))
            recvs.append(message(neighbor, rank, direction_index(vec), recv_plan))
        self._check_mapping_budget()
        self._install(sends, recvs, storage)

    # ------------------------------------------------------------------
    def _check_mapping_budget(self) -> None:
        total = self.mapping_count
        limit = self.profile.mmap_limit
        if total > limit:
            raise ExchangeConfigError(
                f"exchange needs {total} mappings, over the per-process"
                f" limit of {limit} (vm.max_map_count); use a coarser"
                " layout or fewer fields"
            )

    @property
    def mapping_count(self) -> int:
        """Kernel mappings consumed by all live exchange views."""
        return sum(
            v.send_plan.mapping_count + v.recv_plan.mapping_count
            for v in self.views
        )

    # benchmarks/halobench/spans.py wraps vars(MemMapExchanger)["exchange"],
    # a class-__dict__ lookup that does not see inherited attributes.
    exchange = Exchanger.exchange

    def _bind(self, storage: BrickStorage) -> List[Binding]:
        """The stitched views *are* the wire buffers."""
        views = self.views

        def refresh() -> None:
            for v in views:
                v.send_view.refresh()  # no-op on real mappings

        def flush() -> None:
            for v in views:
                v.recv_view.flush()  # no-op on real mappings

        # Pack-free through the MMU: no staged bytes (each view burns
        # kernel mappings instead, the vm.max_map_count budget).
        return [
            Binding(
                [v.send_view.array() for v in views],
                [v.recv_view.array() for v in views],
                refresh,
                flush,
                spans=("exchange.sync", "exchange.sync"),
            )
        ]

    def close(self) -> None:
        for v in self.views:
            v.close()
