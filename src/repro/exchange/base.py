"""Exchanger interface: one schedule IR, bound once, fired two ways.

A method's schedule is *data*, derived from geometry alone: a
:class:`ScheduleTemplate` writes every message down once, as an
immutable :class:`PlannedMessage` keyed by the direction of its partner,
and Cartesian arithmetic (:meth:`ScheduleTemplate.for_rank`) turns it
into one rank's :class:`RankMessagePlan`.  No communicator, fabric or
buffer is involved, so the launching thread derives the schedule once
per run, the static verifier proves it, and every rank binds the very
object that was proved (:mod:`repro.core.geometry`).  Everything else is
derived from the plan here:

* the modelled :class:`ExchangeResult` (:func:`price_plan`), priced by
  :func:`repro.exchange.costs.price_exchange` (the function
  :mod:`repro.core.model` prices the combinatorial schedules with) and
  split into the artifact's phases: ``pack`` (on-node copies the scheme
  performs), ``call`` (posting MPI operations), ``wait`` (wire time
  plus any in-library processing) and ``move`` (explicit CPU-GPU
  staging, zero on CPU paths).  It is the only thing an executed run
  counts and prices an exchange from;
* the static verifier's input (``geometry.plans``; an exchanger keeps
  the one it was handed as :attr:`Exchanger.plan`);
* an :class:`Exchanger`: a plan bound to one buffer.  Its constructor
  takes the plan and the buffer and always binds -- there is no unbound
  exchanger -- and the data really moves over :mod:`repro.simmpi` one
  way: each round of the plan is one persistent :class:`ExchangeChannel`
  (one bound cut), and a plan of several rounds fires its cuts in order
  as a :class:`ChannelChain`.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exchange.costs import price_exchange
from repro.exchange.schedule import MessageSpec
from repro.faults.errors import ExchangeConfigError
from repro.hardware.profiles import MachineProfile
from repro.obs import TRACER as _TRACER
from repro.simmpi.comm import CartComm
from repro.stencil.cbackend import mover_kernel
from repro.util.timing import TimeBreakdown

__all__ = [
    "Binding",
    "ChannelChain",
    "Exchanger",
    "ExchangeChannel",
    "ExchangeResult",
    "PlannedMessage",
    "RankMessagePlan",
    "ScheduleTemplate",
    "UNRESOLVED",
    "exchange_tag",
    "price_plan",
]

_MAX_RUNS_PER_NEIGHBOR = 4096


def exchange_tag(slab_dir_index: int, run: int) -> int:
    """Stable tag for (receiver's ghost-slab direction, run index)."""
    if not 0 <= run < _MAX_RUNS_PER_NEIGHBOR:
        raise ExchangeConfigError(f"run index {run} out of range")
    return slab_dir_index * _MAX_RUNS_PER_NEIGHBOR + run


class PlannedMessage(NamedTuple):
    """One message of a rank's static exchange schedule.

    The single record of what an exchange puts on (or takes off) the
    wire.  ``peer`` / ``tag`` / ``phase`` / ``ranges`` are what the
    static schedule verifier (:mod:`repro.check`) rebuilds the global
    send/recv multigraph from, without touching the fabric; ``spec`` is
    what the cost model prices (neighbor, payload and wire bytes,
    segment structure, mapping count); ``spec.neighbor`` is the direction
    of the partner, for sends and receives alike.

    ``ranges`` are the *storage* byte intervals ``(offset, length)`` the
    message reads from (sends) or writes into (receives) for the schemes
    whose payload lives in brick storage (layout / basic / memmap wire
    it directly, brickpack gathers from and scatters into it); ``None``
    for schemes whose wire buffer is separate staging (pack / mpi_types
    / shift), where storage aliasing is structurally impossible.
    ``phase`` orders the rounds of an exchange (Shift's per-axis
    rounds, each one bound cut); schedules with a single phase use 0.
    A named tuple: every rank's plan holds one per message, made per
    run by :meth:`ScheduleTemplate.for_ranks`.
    """

    peer: int
    tag: int
    spec: MessageSpec
    phase: int = 0
    ranges: Optional[Tuple[Tuple[int, int], ...]] = None

    @property
    def nbytes(self) -> int:
        """Bytes on the wire: payload plus any page padding."""
        return self.spec.wire_bytes


@dataclass(frozen=True)
class RankMessagePlan:
    """One rank's complete per-step message schedule.

    ``copy`` names where the scheme's on-node copy happens -- ``"none"``
    (pack-free), ``"pack"`` (application pack and unpack) or
    ``"datatype"`` (inside the library's datatype engine) -- the one
    fact beyond the messages that pricing needs.  ``nphases`` is the
    number of rounds: 1 for every flat schedule, which
    :meth:`Exchanger.make_channel` binds as one persistent cut; more for
    Shift, whose rounds are cuts fired in order, each receive completing
    before the next round packs.
    """

    rank: int
    method: str
    sends: Tuple[PlannedMessage, ...]
    recvs: Tuple[PlannedMessage, ...]
    copy: str = "none"
    nphases: int = 1


#: ``PlannedMessage.peer`` of a template message: no rank chosen yet.
UNRESOLVED = -1


@dataclass(frozen=True)
class ScheduleTemplate:
    """A method's per-step schedule before a rank is chosen.

    Every message a rank of this geometry could exchange, in plan order,
    with ``peer`` left :data:`UNRESOLVED`: the partner is named by its
    direction (``spec.neighbor``).  Which rank sits in that direction is
    the only thing about a schedule that differs between the ranks of a
    uniform decomposition, so a template is derived once per run and
    instantiated per rank.
    """

    method: str
    sends: Tuple[PlannedMessage, ...]
    recvs: Tuple[PlannedMessage, ...]
    copy: str = "none"
    nphases: int = 1

    def for_rank(
        self,
        rank: int,
        dims: Sequence[int],
        periods: Optional[Sequence[bool]] = None,
    ) -> RankMessagePlan:
        """The plan of *rank* in a Cartesian grid of *dims* ranks
        (:meth:`for_ranks`)."""
        return self.for_ranks(dims, periods, (rank,))[0]

    def for_ranks(
        self,
        dims: Sequence[int],
        periods: Optional[Sequence[bool]] = None,
        ranks: Optional[Sequence[int]] = None,
    ) -> Tuple[RankMessagePlan, ...]:
        """The plans of *ranks* (default: every rank) in a Cartesian grid
        of *dims* ranks, axis 1 fastest.

        A direction with no partner (open boundary) drops its messages
        -- the ghost box there keeps whatever boundary condition the
        application wrote.  On a 1- or 2-wide periodic axis several
        directions reach the same peer (this rank itself, or one
        neighbor twice); their direction-unique tags keep the messages
        apart.  Every rank's partner in every direction of the template
        is one array expression; what is left per message is its record.
        """
        ndim = len(dims)
        if periods is None:
            periods = (True,) * ndim
        nranks = math.prod(dims)
        ranks = np.arange(nranks) if ranks is None else np.asarray(ranks)
        if ((ranks < 0) | (ranks >= nranks)).any():
            raise IndexError(f"rank outside the grid of {tuple(dims)} ranks")
        # Each distinct partner direction of the template is one column.
        columns: dict = {}

        def column(m: PlannedMessage) -> int:
            return columns.setdefault(m.spec.neighbor, len(columns))

        send_cols = list(map(column, self.sends))
        recv_cols = list(map(column, self.recvs))
        steps = np.array(
            [t.to_vector(ndim) for t in columns], dtype=np.int64
        ).reshape(len(columns), ndim)
        extent = np.array(dims, dtype=np.int64)
        strides = np.cumprod(np.concatenate(([1], extent[:-1])))
        coords = ranks[:, None] // strides % extent
        moved = coords[:, None, :] + steps[None, :, :]
        moved = np.where(np.asarray(periods, dtype=bool), moved % extent, moved)
        inside = ((moved >= 0) & (moved < extent)).all(axis=2)
        peers = np.where(inside, moved @ strides, UNRESOLVED).tolist()

        def resolve(messages, cols, row) -> Tuple[PlannedMessage, ...]:
            return tuple(
                PlannedMessage(row[c], m.tag, m.spec, m.phase, m.ranges)
                for m, c in zip(messages, cols)
                if row[c] != UNRESOLVED
            )

        return tuple(
            RankMessagePlan(
                rank, self.method, resolve(self.sends, send_cols, row),
                resolve(self.recvs, recv_cols, row), self.copy, self.nphases,
            )
            for rank, row in zip(ranks.tolist(), peers)
        )


@dataclass
class ExchangeResult:
    """Outcome of one exchange: modelled times plus actual counters.

    ``first_touch`` is the kernel time the step after the exchange pays
    to fault the received pages onto the GPU (Unified Memory only).
    """

    breakdown: TimeBreakdown
    messages_sent: int
    messages_received: int
    payload_bytes_sent: int
    wire_bytes_sent: int
    first_touch: float = 0.0

    @property
    def padding_fraction(self) -> float:
        if self.payload_bytes_sent == 0:
            return 0.0
        return (
            self.wire_bytes_sent - self.payload_bytes_sent
        ) / self.payload_bytes_sent


def _phases(plan: RankMessagePlan):
    """``(sends, recvs)`` of each round of *plan*."""
    return [
        (
            [m for m in plan.sends if m.phase == p],
            [m for m in plan.recvs if m.phase == p],
        )
        for p in range(plan.nphases)
    ]


def price_plan(
    plan: RankMessagePlan, profile: MachineProfile, transport=None
) -> ExchangeResult:
    """The modelled outcome of one exchange of *plan* on *profile* (over
    the method's GPU *transport*, if it has one): a function of the
    messages' specs, not of who the peers are, so ranks with the same
    partnered directions can share one (never mutated) result."""
    breakdown, first_touch = price_exchange(
        profile,
        [([m.spec for m in s], [m.spec for m in r]) for s, r in _phases(plan)],
        plan.copy,
        transport,
    )
    return ExchangeResult(
        breakdown,
        messages_sent=len(plan.sends),
        messages_received=len(plan.recvs),
        payload_bytes_sent=sum(m.spec.payload_bytes for m in plan.sends),
        wire_bytes_sent=sum(m.nbytes for m in plan.sends),
        first_touch=first_touch,
    )


class Binding(NamedTuple):
    """One phase of a plan bound to its buffer: a method file's one hook.

    ``send_bufs`` / ``recv_bufs`` are the wire buffer of each send and
    each receive of the phase, in plan order: a storage slot view, a
    slice of a stitched window, or a persistent staging buffer.  ``pre`` runs
    before the sends go out (pack, datatype gather) and
    ``post`` after every receive has landed (unpack, ``insert``),
    under the tracer spans named by ``spans``.
    """

    send_bufs: Sequence[np.ndarray]
    recv_bufs: Sequence[np.ndarray]
    pre: Optional[Callable[[], None]] = None
    post: Optional[Callable[[], None]] = None
    spans: Tuple[str, str] = ("exchange.pack", "exchange.unpack")


_Wire = Sequence[Tuple[int, int, np.ndarray]]  # (peer, tag, wire buffer)


class ExchangeChannel:
    """Persistent exchange channel: negotiate once, fire every step.

    The run-plan analogue of persistent MPI requests.  An exchanger's
    bound plan -- ``(peer, tag, buffer)`` tuples over persistent buffers
    (storage views for the pack-free schemes, staging buffers for the
    packing ones) -- is bound to the fabric as one
    :class:`~repro.simmpi.fabric.BoundRequest`; each step re-fires that
    handle -- one posting call, one receive drain -- instead of ``N``
    point-to-point request objects through the per-message chokepoint.
    *hooks* is the :class:`Binding` whose ``pre`` / ``post`` callables
    bracket the wire.

    A send completes where its buffer is next written, not when the
    exchange returns: :meth:`exchange` first completes this channel's
    previous epoch (before ``pre`` rewrites a staging buffer and before
    the request is posted again), and whoever writes the buffers in
    between -- the run plan's sweeps -- calls :meth:`wait_sends` first
    (:mod:`repro.core.runplan` says why that wait costs nothing with an
    exchange every step).

    The modelled :class:`ExchangeResult` is a function of the (static)
    message plan, so it is the exchanger's, returned by reference.
    Channels carry no wire-verification machinery of their own: on a
    verified fabric the same three calls seal, verify and heal the cut
    (the fabric's envelope guard), so a guarded run fires this handle
    exactly as a plain one does, and a retry is a re-fire.

    The channel is also where the fabric gets its wire copy: it
    resolves the movers (:func:`repro.stencil.cbackend.mover_kernel`,
    the point the kernels and the pack movers are resolved at) and hands
    ``copy_list`` and, where this CPU can fold them, the verified path's
    ``crc_list`` / ``copy_crc_list`` to
    :meth:`~repro.simmpi.fabric.SimFabric.bind_request`, so
    :mod:`repro.simmpi` itself knows no backend.
    """

    __slots__ = ("comm", "method", "_fabric", "_rank", "_request",
                 "_result", "_hooks", "_posted", "copy_backend")

    def __init__(
        self,
        comm: CartComm,
        method: str,
        posts: _Wire,
        recvs: _Wire,
        result: ExchangeResult,
        hooks: Binding = Binding((), ()),
    ) -> None:
        self.comm = comm
        self.method = method
        self._fabric = comm.fabric
        self._rank = comm.rank
        self._result = result
        self._hooks = hooks
        # The request is on the wire and its receive has not returned:
        # the next exchange() is a re-fire of that epoch (a retry after
        # a detected fault), whose own sends are not waited for.
        self._posted = False
        # Bind now: the fabric validates the buffers and registers both
        # ends' byte counts, so a cross-rank disagreement surfaces at
        # negotiation as a typed SplitMismatchError instead of a
        # DeadlockError on the first wait.
        movers = mover_kernel()
        folds = not movers.crc_refusal
        self._request = self._fabric.bind_request(
            self._rank, posts, recvs, movers.copy_list,
            movers.crc_list if folds else None,
            movers.copy_crc_list if folds else None,
        )
        #: What an exchange of this channel moves bytes with: the C
        #: movers -- on a verified fabric with the CRC fold they seal and
        #: check with, in bits, or, where this CPU cannot fold it,
        #: ``zlib.crc32`` around their copy, with the reason.
        self.copy_backend = "cffi"
        if self._request.checksums_on_zlib:
            self.copy_backend += f" (checksums on zlib: {movers.crc_refusal})"
        elif self._request.sealed is not None:
            self.copy_backend += f" (crc fold {movers.crc_fold})"

    def wait_sends(self) -> None:
        """Complete this channel's sends: return once its peers consumed
        every item it posted.  Call it before writing the channel's send
        buffers -- or freeing them -- outside :meth:`exchange`, which
        completes its own previous epoch."""
        self._fabric.wait_send_batch(self._request)

    def exchange(self) -> ExchangeResult:
        """Re-fire the negotiated plan; returns the precomputed result.

        Its sends are still in flight when it returns (:meth:`wait_sends`).
        """
        fabric = self._fabric
        rank = self._rank
        hooks = self._hooks
        cut = self._request
        if not self._posted:
            self.wait_sends()  # the previous epoch's
        if hooks.pre is not None:
            with _TRACER.span(hooks.spans[0], rank=rank, method=self.method):
                hooks.pre()
        with _TRACER.span("exchange.post", rank=rank, method=self.method):
            fabric.post_send_batch(cut)
        self._posted = True
        with _TRACER.span("exchange.wait", rank=rank, method=self.method):
            fabric.complete_recv_batch(cut)
        self._posted = False
        if hooks.post is not None:
            with _TRACER.span(hooks.spans[1], rank=rank, method=self.method):
                hooks.post()
        return self._result


class ChannelChain:
    """Cuts fired in order: the channel of a plan with several rounds.

    Each round is an :class:`ExchangeChannel` of its own -- one bound
    cut -- and :meth:`exchange` fires them one after another.  Round
    *d*'s receive completes before round *d+1*'s ``pre`` reads what
    round *d*'s ``post`` wrote (Shift's corner forwarding): the receive
    is the only synchronisation between rounds.  Each round completes
    its own previous epoch before its ``pre`` rewrites its staging
    buffer, as a single cut does.  An exchange that raised resumes, when
    fired again, at the round whose receive raised: a round whose
    receive returned is not posted a second time in the same exchange.
    """

    __slots__ = ("rounds", "copy_backend", "_result", "_at")

    def __init__(
        self, rounds: Sequence[ExchangeChannel], result: ExchangeResult
    ) -> None:
        self.rounds = tuple(rounds)
        self._result = result
        self._at = 0  # the round the next exchange() fires first
        self.copy_backend = "+".join(
            sorted({channel.copy_backend for channel in self.rounds})
        )

    def wait_sends(self) -> None:
        """Complete every round's sends (:meth:`ExchangeChannel.wait_sends`)."""
        for channel in self.rounds:
            channel.wait_sends()

    def exchange(self) -> ExchangeResult:
        """Fire the rounds in order, from the one an earlier attempt of
        this exchange left off at; returns the precomputed result."""
        rounds = self.rounds
        while self._at < len(rounds):
            rounds[self._at].exchange()
            self._at += 1
        self._at = 0
        return self._result


class Exchanger(abc.ABC):
    """One rank's ghost-zone exchange engine: a plan bound to a buffer.

    The plan arrives finished (:meth:`ScheduleTemplate.for_ranks`); a
    subclass says which memory each message goes through, in two
    halves: :meth:`_tables`, what is the same for every buffer (built
    once per run by :class:`~repro.core.geometry.RunGeometry`), and
    :meth:`_bind`, one buffer's views, staging and movers over them.
    The modelled result and the channel live here.
    """

    #: an array scheme's subdomain extent and ghost width, set before
    #: binding; a brick plan's tables need neither
    extent: Optional[Tuple[int, ...]] = None
    ghost: Optional[int] = None

    def __init__(
        self,
        comm: CartComm,
        plan: RankMessagePlan,
        buffer,
        profile: MachineProfile,
        result: Optional[ExchangeResult] = None,
        tables: Optional[Sequence] = None,
    ) -> None:
        """Bind *plan* to *buffer* through :meth:`_bind`.  *result* and
        *tables* are the plan's price and its rank-invariant bind tables
        (:meth:`_tables`) where the caller already holds them: the run
        geometry prices and tabulates each distinct plan once."""
        if plan.rank != comm.rank:
            raise ExchangeConfigError(
                f"rank {comm.rank} was handed the plan of rank {plan.rank}"
            )
        self.comm = comm
        self.profile = profile
        self.plan = plan
        self.method = plan.method  # name used by benchmark tables
        self.result = result if result is not None else price_plan(plan, profile)
        if tables is None:
            tables = self._tables(plan, self.extent, self.ghost)
        # Per round: (peer, tag, buffer) of every send and every receive,
        # plus the hooks -- what the channel binds to the fabric.
        self._bound: List[Tuple[_Wire, _Wire, Binding]] = [
            (
                self._wire(sends, hooks.send_bufs),
                self._wire(recvs, hooks.recv_bufs),
                hooks,
            )
            for (sends, recvs), hooks in zip(
                _phases(plan), self._bind(buffer, tables)
            )
        ]
        self._channel: Optional[Union[ExchangeChannel, ChannelChain]] = None

    def _wire(self, messages: Sequence[PlannedMessage], bufs) -> _Wire:
        """Pair each planned message with its wire buffer; the buffer must
        carry exactly the bytes the (verified) plan says."""
        planned, bound = [m.nbytes for m in messages], [b.nbytes for b in bufs]
        if planned != bound:
            raise ExchangeConfigError(
                f"the {self.method} plan of rank {self.plan.rank} does not"
                f" describe this buffer: planned {planned} bytes, bound {bound}"
            )
        return [(m.peer, m.tag, b) for m, b in zip(messages, bufs)]

    @staticmethod
    @abc.abstractmethod
    def _tables(plan: RankMessagePlan, extent, ghost) -> Sequence:
        """The rank-invariant half of binding *plan*, one table per
        round: what every buffer of every rank with *plan*'s partners
        binds alike (byte ranges, checked boxes, staging sizes).  The
        one home of this derivation: :func:`~repro.exchange.bind_tables`
        calls it too."""

    @abc.abstractmethod
    def _bind(self, buffer, tables: Sequence) -> Sequence[Binding]:
        """Bind the plan to *buffer* over its *tables*: one
        :class:`Binding` per round."""

    def make_channel(self) -> Union[ExchangeChannel, ChannelChain]:
        """This exchanger's channel: its bound plan as persistent cuts.

        An :class:`ExchangeChannel` for a one-round plan, a
        :class:`ChannelChain` of one per round otherwise (Shift's axes).
        Bound to the fabric on the first call and returned by every
        later one, so an exchanger never binds its edges twice.
        """
        if self._channel is None:
            rounds = [
                ExchangeChannel(
                    self.comm, self.method, posts, recvs, self.result, hooks
                )
                for posts, recvs, hooks in self._bound
            ]
            self._channel = (
                rounds[0] if len(rounds) == 1 else ChannelChain(rounds, self.result)
            )
        return self._channel

    def exchange(self) -> ExchangeResult:
        """Run one ghost-zone exchange and complete its sends.

        Fires :meth:`make_channel`'s channel, then waits until the peers
        consumed every item it posted, so the caller may write or free
        the buffers as soon as this returns.
        """
        channel = self.make_channel()
        result = channel.exchange()
        channel.wait_sends()
        return result
