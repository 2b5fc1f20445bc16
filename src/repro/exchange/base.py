"""Exchanger interface and shared modelled-timing helpers.

Every exchanger really moves the data (over :mod:`repro.simmpi`) *and*
returns a modelled :class:`~repro.util.timing.TimeBreakdown` for the
exchange, split into the artifact's phases: ``pack`` (on-node copies the
scheme performs), ``call`` (posting MPI operations), ``wait`` (wire time
plus any in-library processing) and ``move`` (explicit CPU-GPU staging,
zero on CPU paths).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exchange.schedule import MessageSpec
from repro.faults.errors import ExchangeConfigError, ProtocolError
from repro.hardware.profiles import MachineProfile
from repro.obs import METRICS as _METRICS
from repro.obs import TRACER as _TRACER
from repro.simmpi.comm import CartComm
from repro.util.bitset import BitSet
from repro.util.timing import TimeBreakdown

__all__ = [
    "Exchanger",
    "ExchangeChannel",
    "ExchangeResult",
    "PlannedMessage",
    "RankMessagePlan",
    "exchange_tag",
]

_MAX_RUNS_PER_NEIGHBOR = 4096


def exchange_tag(slab_dir_index: int, run: int) -> int:
    """Stable tag for (receiver's ghost-slab direction, run index)."""
    if not 0 <= run < _MAX_RUNS_PER_NEIGHBOR:
        raise ExchangeConfigError(f"run index {run} out of range")
    return slab_dir_index * _MAX_RUNS_PER_NEIGHBOR + run


@dataclass(frozen=True)
class PlannedMessage:
    """One message of a rank's static exchange schedule.

    A pure-geometry description of what :meth:`Exchanger.exchange` will
    put on (or take off) the wire: enough for the static schedule
    verifier (:mod:`repro.check`) to rebuild the global send/recv
    multigraph without touching the fabric.

    ``ranges`` are the *storage* byte intervals ``(offset, length)`` the
    message reads from (sends) or writes into (receives) for the
    zero-copy schemes that wire brick storage directly (layout / basic /
    memmap / brickpack sections); ``None`` for schemes whose wire buffer
    is separate staging (pack / mpi_types / shift), where storage
    aliasing is structurally impossible.  ``phase`` orders barrier-
    separated sub-exchanges (Shift's per-axis rounds); schedules with a
    single phase use 0.  ``partitions`` overrides the plan-wide
    partition count for this message (``None`` = inherit), which the
    mutation harness uses to model split disagreements.
    """

    peer: int
    tag: int
    nbytes: int
    phase: int = 0
    ranges: Optional[Tuple[Tuple[int, int], ...]] = None
    partitions: Optional[int] = None


@dataclass(frozen=True)
class RankMessagePlan:
    """One rank's complete per-step message schedule.

    ``channelable`` mirrors whether :meth:`Exchanger.make_channel` can
    flatten the schedule into one persistent batch (False for Shift,
    whose intra-exchange barriers serialize the phases); ``nphases`` is
    the number of barrier-separated rounds (1 for every flat schedule).
    """

    rank: int
    method: str
    sends: Tuple[PlannedMessage, ...]
    recvs: Tuple[PlannedMessage, ...]
    channelable: bool = True
    nphases: int = 1


@dataclass
class ExchangeResult:
    """Outcome of one exchange: modelled times plus actual counters."""

    breakdown: TimeBreakdown
    messages_sent: int
    messages_received: int
    payload_bytes_sent: int
    wire_bytes_sent: int

    @property
    def padding_fraction(self) -> float:
        if self.payload_bytes_sent == 0:
            return 0.0
        return (
            self.wire_bytes_sent - self.payload_bytes_sent
        ) / self.payload_bytes_sent


class ExchangeChannel:
    """Persistent exchange channel: negotiate once, fire every step.

    The run-plan analogue of persistent MPI requests.  An exchanger's
    message plan is flattened, once, into ``(peer, tag, buffer)`` tuples
    over persistent buffers (storage views for the pack-free schemes,
    staging buffers for the packing ones) and bound to the fabric as one
    :class:`~repro.simmpi.fabric.BoundRequest`; each step re-fires that
    handle -- one posting call, one receive drain, one send wait --
    instead of ``N`` point-to-point request objects through the
    per-message chokepoint.

    The modelled :class:`ExchangeResult` is a function of the (static)
    message plan, so it too is computed once and returned by reference.
    Channels carry no wire-verification machinery: they are only built on
    an unverified fabric (the envelope/chaos path keeps the per-message
    protocol, whose sequence/CRC state lives in the fabric).

    Beyond the bulk-synchronous :meth:`exchange`, a channel can run one
    exchange *phased*: :meth:`start` packs (if the scheme packs), arms the
    bound request's partitioned epoch and releases every send partition;
    :meth:`complete` drains the receives, awaits send consumption and
    unpacks.  The caller computes interior stencil work between the two
    -- the compute-comm overlap the phased timestep is built on.  With
    *partitions* > 1, each flattened buffer travels as that many
    independently-released sub-region partitions (``Pready`` semantics).
    """

    __slots__ = ("comm", "method", "_fabric", "_rank", "_request",
                 "_result", "_packed_bytes", "_pre", "_post", "_pre_span",
                 "_post_span", "_nmsgs")

    def __init__(
        self,
        comm: CartComm,
        method: str,
        posts: Sequence[Tuple[int, int, np.ndarray]],
        recvs: Sequence[Tuple[int, int, np.ndarray]],
        result: ExchangeResult,
        packed_bytes: int = 0,
        pre=None,
        post=None,
        pre_span: str = "exchange.pack",
        post_span: str = "exchange.unpack",
        partitions: int = 1,
    ) -> None:
        if comm.fabric.envelope_enabled:
            raise ExchangeConfigError(
                "exchange channels require an unverified fabric; the"
                " envelope protocol is per-message"
            )
        self.comm = comm
        self.method = method
        self._fabric = comm.fabric
        self._rank = comm.rank
        self._result = result
        self._packed_bytes = int(packed_bytes)
        self._pre = pre
        self._post = post
        self._pre_span = pre_span
        self._post_span = post_span
        self._nmsgs = len(posts)
        # Bind now: the fabric validates the buffers and registers both
        # halves of the byte split, so a cross-rank disagreement (byte
        # counts or partition bounds) surfaces at negotiation as a typed
        # SplitMismatchError instead of a DeadlockError on the first wait.
        self._request = self._fabric.bind_request(
            self._rank, posts, recvs, int(partitions)
        )

    def exchange(self) -> ExchangeResult:
        """Re-fire the negotiated plan; returns the precomputed result."""
        if self._request.started:
            raise ProtocolError(
                "channel has a phased exchange in flight; complete() it"
                " before exchanging"
            )
        fabric = self._fabric
        rank = self._rank
        cut = self._request.bulk
        if self._pre is not None:
            with _TRACER.span(self._pre_span, rank=rank, method=self.method):
                self._pre()
        with _TRACER.span("exchange.post", rank=rank, method=self.method):
            fabric.post_send_batch(cut)
        with _TRACER.span("exchange.wait", rank=rank, method=self.method):
            fabric.complete_recv_batch(cut)
            fabric.wait_send_batch(cut)
        if self._post is not None:
            with _TRACER.span(self._post_span, rank=rank, method=self.method):
                self._post()
        if _METRICS.enabled:
            _METRICS.count("exchange.bytes_packed", self._packed_bytes,
                           rank=rank)
            _METRICS.count("exchange.messages", self._nmsgs, rank=rank)
        return self._result

    # ------------------------------------------------------------------
    # Phased exchange: start -> (caller's interior compute) -> complete
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Pack, arm the bound request's epoch, release every partition.

        Returns as soon as every send partition is on the wire; nothing
        has been received yet.  The caller may compute any stencil work
        that reads no ghost data before calling :meth:`complete`.
        """
        request = self._request
        if request.started:
            raise ProtocolError(
                "channel already started; complete() the in-flight"
                " exchange first"
            )
        rank = self._rank
        if self._pre is not None:
            with _TRACER.span(self._pre_span, rank=rank, method=self.method):
                self._pre()
        with _TRACER.span("exchange.start", rank=rank, method=self.method):
            request.start()
            request.pready_all()

    def complete(self) -> ExchangeResult:
        """Drain every receive partition, await send consumption, unpack."""
        rank = self._rank
        with _TRACER.span("exchange.complete", rank=rank, method=self.method):
            self._request.complete()
        if self._post is not None:
            with _TRACER.span(self._post_span, rank=rank, method=self.method):
                self._post()
        if _METRICS.enabled:
            _METRICS.count("exchange.bytes_packed", self._packed_bytes,
                           rank=rank)
            _METRICS.count("exchange.messages", self._nmsgs, rank=rank)
        return self._result


class Exchanger(abc.ABC):
    """One rank's ghost-zone exchange engine.

    Subclasses precompute their message plan at construction; ``exchange``
    performs the data movement and returns an :class:`ExchangeResult`.
    """

    #: Name used by benchmark tables.
    method = "abstract"

    def __init__(self, comm: CartComm, profile: MachineProfile) -> None:
        self.comm = comm
        self.profile = profile

    @abc.abstractmethod
    def exchange(self) -> ExchangeResult:
        """Run one ghost-zone exchange."""

    @abc.abstractmethod
    def send_specs(self) -> List[MessageSpec]:
        """The modelled send schedule of this rank."""

    def message_plan(self) -> RankMessagePlan:
        """This rank's static per-step message schedule, from geometry.

        The introspection hook of the static verifier: every executable
        method implements it so :mod:`repro.check` can rebuild the
        global send/recv multigraph (peers, tags, byte counts, storage
        ranges) without allocating wire buffers or touching the fabric.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not expose a static message plan"
        )

    def make_channel(self, partitions: int = 1) -> Optional[ExchangeChannel]:
        """Persistent-channel form of this exchanger's plan.

        ``None`` means the scheme cannot be replayed as one batch and the
        caller keeps the per-step :meth:`exchange` path.  Verified
        (envelope) fabrics are detected *here*, once, rather than
        surfacing later as a batch-path ``RuntimeError`` from the fabric:
        the envelope protocol is per-message, so channel negotiation
        falls back cleanly regardless of the subclass.  *partitions* is
        the per-message partition count phased exchanges will use.
        """
        if self.comm.fabric.envelope_enabled:
            return None
        return self._build_channel(int(partitions))

    def _build_channel(self, partitions: int) -> Optional[ExchangeChannel]:
        """Subclass hook: build the channel (fabric already vetted).

        ``None`` (the default) marks schemes with intra-exchange barriers
        (Shift) that cannot flatten into one persistent batch.
        """
        return None

    # ------------------------------------------------------------------
    # Shared modelled-time helpers (thin wrappers over exchange.costs)
    # ------------------------------------------------------------------
    def _network_times(
        self, sends: Sequence[MessageSpec], recvs: Sequence[MessageSpec]
    ) -> Tuple[float, float]:
        """(call, wait) charged by the plain network model."""
        from repro.exchange.costs import network_times

        return network_times(self.profile.network, sends, recvs)

    def _pack_cost(self, specs: Sequence[MessageSpec]) -> float:
        """Application-level pack (or unpack) cost of a message batch."""
        from repro.exchange.costs import pack_cost

        return pack_cost(self.profile, specs)

    def _datatype_cost(self, specs: Sequence[MessageSpec]) -> float:
        """In-library derived-datatype processing cost of a batch."""
        from repro.exchange.costs import datatype_cost

        return datatype_cost(self.profile, specs)
