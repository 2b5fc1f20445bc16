"""Ghost-zone exchange engines.

Four strategies from the paper's evaluation:

* :class:`PackExchanger` -- the classic baseline (YASK-style): explicitly
  pack each neighbor's surface boxes into a contiguous buffer, one message
  per neighbor, unpack on arrival.  Maximum on-node data movement.
* :class:`MPITypesExchanger` -- MPI derived datatypes; the "library" packs
  internally (no application ``pack`` phase, but the interpretive datatype
  engine is charged inside MPI time).
* :class:`LayoutExchanger` -- pack-free: bricks are laid out so each
  message is a contiguous slot range sent straight out of brick storage
  (42 messages in 3-D instead of 26, zero copies).
* :class:`MemMapExchanger` -- pack-free *and* message-minimal: stitched
  virtual-memory views make each neighbor's regions virtually contiguous
  (26 messages, zero copies, page-padding network overhead).

Each is a schedule -- data, from :func:`schedule_template` -- plus an
exchanger that binds one rank's plan of it to a buffer
(:func:`make_exchanger`), over the plan's rank-invariant bind table
(:func:`bind_tables`), as one persistent cut.
"""

from repro.exchange.base import ExchangeResult, Exchanger, ScheduleTemplate
from repro.exchange.boxes import box_template, neighbor_recv_box, neighbor_send_box
from repro.exchange.envelope import Envelope, checksum, seal, verify
from repro.exchange.layout_ex import LayoutExchanger, layout_template
from repro.exchange.memmap_ex import MemMapExchanger, memmap_template
from repro.exchange.mpitypes import MPITypesExchanger
from repro.exchange.pack import PackExchanger
from repro.exchange.schedule import MessageSpec, array_schedule
from repro.faults.errors import ExchangeConfigError

__all__ = [
    "Envelope",
    "ExchangeResult",
    "Exchanger",
    "LayoutExchanger",
    "MPITypesExchanger",
    "MemMapExchanger",
    "MessageSpec",
    "PackExchanger",
    "ScheduleTemplate",
    "array_schedule",
    "bind_tables",
    "checksum",
    "make_exchanger",
    "schedule_template",
    "seal",
    "verify",
    "neighbor_recv_box",
    "neighbor_send_box",
]


_ARRAY_EXCHANGERS = {
    "yask": PackExchanger,
    "yask_ol": PackExchanger,
    "mpi_types": MPITypesExchanger,
}
_BRICK_EXCHANGERS = {
    "layout": LayoutExchanger,
    "basic": LayoutExchanger,
    "memmap": MemMapExchanger,
}


def _exchanger_class(base):
    cls = _ARRAY_EXCHANGERS.get(base) or _BRICK_EXCHANGERS.get(base)
    if cls is None:
        raise ExchangeConfigError(
            f"method base {base!r} has no executable exchanger"
        )
    return cls


def schedule_template(
    base,
    extent,
    ghost,
    itemsize,
    decomp=None,
    assignment=None,
    page_size=None,
) -> ScheduleTemplate:
    """The per-step schedule of method base name *base*, from geometry.

    The single base-name -> schedule mapping, a pure function of what is
    the same on every rank: the subdomain *extent*, *ghost* width and
    element *itemsize* for the array schemes; the
    :class:`~repro.brick.decomp.BrickDecomp` and the
    :class:`~repro.brick.decomp.SlotAssignment` of its storage (plus the
    *page_size* for ``memmap``) for the brick schemes, the degradation
    ladder's rung ``basic`` included.  No communicator, no fabric, no
    buffer: :meth:`ScheduleTemplate.for_rank` instantiates it per rank,
    the static verifier checks those plans, and :func:`make_exchanger`
    binds them.
    """
    if base in ("yask", "yask_ol"):
        return box_template("pack", "pack", extent, ghost, itemsize)
    if base == "mpi_types":
        return box_template("mpi_types", "datatype", extent, ghost, itemsize)
    if base in ("layout", "basic"):
        return layout_template(decomp, assignment, merge_runs=(base == "layout"))
    if base == "memmap":
        return memmap_template(decomp, assignment, page_size)
    raise ExchangeConfigError(
        f"method base {base!r} has no executable exchanger"
    )


def bind_tables(base, plan, extent, ghost):
    """The bind table of *plan* -- a rank's instance of
    :func:`schedule_template` of *base*: what binding it to any buffer
    needs that does not depend on the buffer (storage byte ranges and
    windows for the brick schemes, checked boxes and staging sizes for
    the array schemes).  Equal for every rank with the same partners, so
    :class:`~repro.core.geometry.RunGeometry` builds it once per run and
    :func:`make_exchanger` hands it in."""
    return _exchanger_class(base)._tables(plan, extent, ghost)


def make_exchanger(
    base, comm, plan, buffer, extent, ghost, profile, result=None, table=None
) -> Exchanger:
    """Bind *plan* -- this rank's instance of :func:`schedule_template`
    of *base* -- to one buffer.

    The single base-name -> exchanger mapping, for the executed driver
    and its degradation ladder.  *buffer* is the extended array of a
    subdomain of *extent* with a *ghost*-wide shell (array schemes) or
    the :class:`~repro.brick.storage.BrickStorage` (brick schemes);
    *result* and *table* are the plan's price and its :func:`bind_tables`
    where the caller already holds them.
    """
    cls = _exchanger_class(base)
    if base in _ARRAY_EXCHANGERS:
        return cls(comm, plan, buffer, extent, ghost, profile, result, table)
    return cls(comm, plan, buffer, profile, result, table)
