"""Ghost-zone exchange engines.

Four strategies from the paper's evaluation plus one from related work:

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
* :class:`ShiftExchanger` -- related-work Shift algorithm: per-dimension
  face exchanges with corner forwarding (2D messages, extra
  synchronization).
"""

from repro.exchange.base import ExchangeResult, Exchanger
from repro.exchange.boxes import neighbor_recv_box, neighbor_send_box
from repro.exchange.brickpack import BrickPackExchanger
from repro.exchange.envelope import Envelope, checksum, seal, verify
from repro.exchange.layout_ex import LayoutExchanger
from repro.exchange.hierarchical import RankDomainGrid
from repro.exchange.local import LocalDomainGrid
from repro.exchange.memmap_ex import ExchangeView, MemMapExchanger
from repro.exchange.mpitypes import MPITypesExchanger
from repro.exchange.pack import PackExchanger
from repro.exchange.schedule import (
    MessageSpec,
    array_schedule,
    basic_brick_schedule,
    brick_send_schedule,
    memmap_schedule,
    mirror_schedule,
    shift_schedule,
)
from repro.exchange.shift import ShiftExchanger
from repro.faults.errors import ExchangeConfigError

__all__ = [
    "BrickPackExchanger",
    "Envelope",
    "ExchangeResult",
    "ExchangeView",
    "Exchanger",
    "LayoutExchanger",
    "LocalDomainGrid",
    "MPITypesExchanger",
    "RankDomainGrid",
    "MemMapExchanger",
    "MessageSpec",
    "PackExchanger",
    "ShiftExchanger",
    "array_schedule",
    "basic_brick_schedule",
    "checksum",
    "make_exchanger",
    "seal",
    "verify",
    "brick_send_schedule",
    "memmap_schedule",
    "mirror_schedule",
    "shift_schedule",
    "neighbor_recv_box",
    "neighbor_send_box",
]


_ARRAY_EXCHANGERS = {
    "yask": PackExchanger,
    "yask_ol": PackExchanger,
    "mpi_types": MPITypesExchanger,
    "shift": ShiftExchanger,
}


def make_exchanger(
    base,
    cart,
    problem,
    profile,
    buffer=None,
    decomp=None,
    assignment=None,
    page_size=None,
) -> Exchanger:
    """The exchanger of method base name *base* over one buffer.

    The single base-name -> exchanger mapping: the executed driver, its
    degradation ladder (rungs ``memmap`` / ``basic`` / ``brickpack``)
    and the static verifier all build through it, so the schedule
    ``repro check`` proves is built by the code that runs.  *buffer* is
    the extended array (array schemes) or the
    :class:`~repro.brick.storage.BrickStorage` (brick schemes, which
    also need *decomp* and *assignment*); ``None`` builds the exchanger
    plan-only -- message schedule from geometry, no wire buffers.
    *problem* supplies the subdomain extent, ghost width and dtype.
    """
    cls = _ARRAY_EXCHANGERS.get(base)
    if cls is not None:
        return cls(
            cart, buffer, problem.subdomain_extent, problem.ghost, profile,
            dtype=problem.dtype,
        )
    if base in ("layout", "basic"):
        return LayoutExchanger(
            cart, decomp, buffer, assignment, profile,
            merge_runs=(base == "layout"),
        )
    if base == "memmap":
        return MemMapExchanger(
            cart, decomp, buffer, assignment, profile, page_size
        )
    if base == "brickpack":
        return BrickPackExchanger(cart, decomp, buffer, assignment, profile)
    raise ExchangeConfigError(
        f"method base {base!r} has no executable exchanger"
    )
