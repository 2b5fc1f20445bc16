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

* the modelled :class:`ExchangeResult` (:func:`price_plan`, which
  :mod:`repro.core.model` also calls, on the template of a subdomain at
  any scale), priced by :func:`repro.exchange.costs.price_exchange` and
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
  way: the plan is one persistent :class:`ExchangeChannel` (one bound
  cut), fired once per exchange.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from time import perf_counter as _perf
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exchange.costs import price_exchange
from repro.exchange.schedule import MessageSpec
from repro.faults.errors import ExchangeConfigError
from repro.hardware.profiles import MachineProfile
from repro.simmpi.comm import CartComm
from repro.stencil.cbackend import mover_kernel
from repro.util.timing import TimeBreakdown

__all__ = [
    "Binding",
    "Exchanger",
    "ExchangeChannel",
    "ExchangeResult",
    "PlannedMessage",
    "RankMessagePlan",
    "ScheduleTemplate",
    "UNRESOLVED",
    "exchange_tag",
    "fire_spans",
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
    wire.  ``peer`` / ``tag`` / ``ranges`` are what the
    static schedule verifier (:mod:`repro.check`) rebuilds the global
    send/recv multigraph from, without touching the fabric; ``spec`` is
    what the cost model prices (neighbor, payload and wire bytes,
    segment structure, mapping count); ``spec.neighbor`` is the direction
    of the partner, for sends and receives alike.

    ``ranges`` are the *storage* byte intervals ``(offset, length)`` the
    message reads from (sends) or writes into (receives) for the schemes
    whose payload lives in brick storage (layout / basic / memmap wire
    it directly); ``None`` for schemes whose wire buffer is separate
    staging (pack / mpi_types), where storage aliasing is structurally
    impossible.  A named tuple: every rank's plan holds one per message,
    made per run by :meth:`ScheduleTemplate.for_ranks`.
    """

    peer: int
    tag: int
    spec: MessageSpec
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
    fact beyond the messages that pricing needs.  Every message of the
    plan goes out in one round, which :meth:`Exchanger.make_channel`
    binds as one persistent cut.
    """

    rank: int
    method: str
    sends: Tuple[PlannedMessage, ...]
    recvs: Tuple[PlannedMessage, ...]
    copy: str = "none"


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
                PlannedMessage(row[c], m.tag, m.spec, m.ranges)
                for m, c in zip(messages, cols)
                if row[c] != UNRESOLVED
            )

        return tuple(
            RankMessagePlan(
                rank, self.method, resolve(self.sends, send_cols, row),
                resolve(self.recvs, recv_cols, row), self.copy,
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


def price_plan(
    plan: Union[RankMessagePlan, ScheduleTemplate],
    profile: MachineProfile,
    transport=None,
) -> ExchangeResult:
    """The modelled outcome of one exchange of *plan* on *profile* (over
    the method's GPU *transport*, if it has one): a function of the
    messages' specs, not of who the peers are, so ranks with the same
    partnered directions can share one (never mutated) result.  It reads
    only ``sends`` / ``recvs`` / ``copy``, so a template prices as the
    plan of a rank with every neighbour present."""
    breakdown, first_touch = price_exchange(
        profile,
        [m.spec for m in plan.sends],
        [m.spec for m in plan.recvs],
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
    """A plan bound to its buffer: a method file's one hook.

    ``send_bufs`` / ``recv_bufs`` are the wire buffer of each send and
    each receive of the plan, in plan order: a storage slot view, a
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
                 "_result", "_hooks", "_posted", "_names", "fires",
                 "copy_backend")

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
        # What a fire record names (fire_spans): the method and the
        # pack / unpack regions the hooks run in, if any.
        self._names = (
            method,
            hooks.spans[0] if hooks.pre is not None else None,
            hooks.spans[1] if hooks.post is not None else None,
        )
        #: The stamps of the current exchange epoch: one record per fire
        #: (a retry re-fires), read by the run loop once the exchange
        #: returned (:func:`fire_spans` has the record's fields).
        self.fires: list = []
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

    def wait_sends(self) -> Optional[int]:
        """Complete this channel's sends: return once its peers consumed
        every item it posted.  Call it before writing the channel's send
        buffers -- or freeing them -- outside :meth:`exchange`, which
        completes its own previous epoch.  Returns what
        :meth:`~repro.simmpi.fabric.SimFabric.wait_send_batch` does: the
        items outstanding at entry on an epoch's first wait (where a
        trace shows the send wait), else ``None``."""
        return self._fabric.wait_send_batch(self._request)

    def exchange(self) -> ExchangeResult:
        """Re-fire the negotiated plan; returns the precomputed result.

        Its sends are still in flight when it returns (:meth:`wait_sends`).
        One ``perf_counter`` stamp at each boundary -- send wait, pack,
        post, receive, unpack -- goes into the fire's record in
        :attr:`fires`, also when the receive raises; a stamp a method
        has no region for (no pack hook) is the one before it, so that
        region measures exactly zero.
        """
        fabric = self._fabric
        hooks = self._hooks
        cut = self._request
        t0 = _perf()
        sent = None
        if not self._posted:
            self.fires = []
            sent = fabric.wait_send_batch(cut)  # the previous epoch's
        fires = self.fires
        t1 = packed = _perf()
        if hooks.pre is not None:
            hooks.pre()
            packed = _perf()
        fabric.post_send_batch(cut)
        self._posted = True
        posted = _perf()
        try:
            n = fabric.complete_recv_batch(cut)
        except BaseException:
            fires.append(
                (self._names, t0, t1, sent, packed, posted, cut.began,
                 _perf(), cut.nrecv, None)
            )
            raise
        self._posted = False
        received = unpacked = _perf()
        if hooks.post is not None:
            hooks.post()
            unpacked = _perf()
        fires.append(
            (self._names, t0, t1, sent, packed, posted, cut.began, received,
             n, unpacked)
        )
        return self._result


def fire_spans(fire: tuple, depth: int):
    """The spans one fire record of :attr:`ExchangeChannel.fires` stands
    for, in pre-order at *depth* (:meth:`repro.obs.Tracer.replay`).

    A record is ``(names, t0, t1, sent, packed, posted, began,
    received, n, unpacked)``: the fire's start; the end of its wait for
    the previous epoch's sends, whose item count *sent* is ``None``
    where no send wait is shown; the ends of pack and post; where a
    verified receive began taking (``None``: as it was called); the end
    of the receive and the items it delivered (0: it owed none); and the
    end of unpack, ``None`` when the receive raised.
    """
    (method, pack, unpack), t0, t1, sent, packed, posted, began, received, \
        n, end = fire
    named = {"method": method}
    if sent is not None:
        yield ("fabric.send_wait", depth, t0, t1, None, {"n": sent})
    if pack is not None:
        yield (pack, depth, t1, packed, None, named)
    yield ("exchange.post", depth, packed, posted, None, named)
    yield ("exchange.wait", depth, posted, received, None, named)
    if n:
        start = posted if began is None else began
        yield ("fabric.recv", depth + 1, start, received, None, {"n": n})
    if unpack is not None and end is not None:
        yield (unpack, depth, received, end, None, named)


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
        table=None,
    ) -> None:
        """Bind *plan* to *buffer* through :meth:`_bind`.  *result* and
        *table* are the plan's price and its rank-invariant bind table
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
        if table is None:
            table = self._tables(plan, self.extent, self.ghost)
        # (peer, tag, buffer) of every send and every receive, plus the
        # hooks -- what the channel binds to the fabric.
        hooks = self._bind(buffer, table)
        self._bound: Tuple[_Wire, _Wire, Binding] = (
            self._wire(plan.sends, hooks.send_bufs),
            self._wire(plan.recvs, hooks.recv_bufs),
            hooks,
        )
        self._channel: Optional[ExchangeChannel] = None

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
    def _tables(plan: RankMessagePlan, extent, ghost):
        """The rank-invariant half of binding *plan*, one table: what
        every buffer of every rank with *plan*'s partners binds alike
        (byte ranges, checked boxes, staging sizes).  The one home of
        this derivation: :func:`~repro.exchange.bind_tables` calls it
        too."""

    @abc.abstractmethod
    def _bind(self, buffer, table) -> Binding:
        """Bind the plan to *buffer* over its *table*."""

    def make_channel(self) -> ExchangeChannel:
        """This exchanger's channel: its bound plan as one persistent cut.

        Bound to the fabric on the first call and returned by every
        later one, so an exchanger never binds its edges twice.
        """
        if self._channel is None:
            posts, recvs, hooks = self._bound
            self._channel = ExchangeChannel(
                self.comm, self.method, posts, recvs, self.result, hooks
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
