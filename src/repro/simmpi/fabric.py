"""Message-matching fabric shared by all simulated ranks.

Ports: one primitive, two containers
------------------------------------
Every rank owns one :class:`_Port` -- its wake (a raw lock used as a
binary semaphore beside the fabric's single lock) -- and a message waits
nowhere else.  A port holds two containers, because the two kinds of
traffic match differently:

``fifos`` (bound requests, the halo-exchange path)
    A channel's whole message plan is *bound* once
    (:meth:`SimFabric.bind_request`) into a :class:`BoundRequest`: per
    destination one prebuilt *deposit* ``(credit, items)`` -- an item is
    ``((src, tag), flat byte view)``, the credit the sending cut's count
    of items not yet consumed (:class:`_Credit`) -- and per receive a map
    from ``(src, tag)`` to the flat byte view of its ghost buffer.  Each
    step re-fires the handle with O(ranks) synchronisation and no
    per-message object: *post* appends one deposit per destination to
    that port's FIFO of the poster; *complete* waits until every source
    has queued the items the cut owes it (``cut.sources``), takes exactly
    those, oldest first, and copies outside the lock; *wait* blocks until
    the cut's credit is back to zero.  A FIFO may hold two epochs of one
    edge -- the two cuts of a ping-pong pair -- and keeps them in order; a
    second epoch of *one* cut before its first was consumed, and an
    arrival no bound receive matches, are a :class:`ProtocolError`, not
    an assumption.  The copy itself is one call over a ``(sender view ->
    receive view)`` table frozen on the receiver's cut
    (:meth:`SimFabric._freeze`): deposits are prebuilt objects, so an
    epoch that delivers the very deposits the table was built from has
    already passed every per-item check.  Who makes that call -- the C
    ``copy_list`` -- is the binder handed to
    :meth:`SimFabric.bind_request`; this package knows no backend.
    Binding registers both ends' byte count of every edge under one
    acquisition of the fabric lock.

``queues`` (per-message: collectives only)
    ``post_send`` appends a :class:`_SendEntry` -- a *reference* to the
    send buffer -- to the destination port's queue keyed ``(src, tag)``;
    ``complete_recv`` pops it, copies, marks it done; ``wait_send``
    returns once it is done.  Every halo exchange is one bound request,
    so this container carries the collectives (:mod:`repro.simmpi.collectives`) and nothing else.
    Entries never enter ``fifos``: a bound receive counts what its
    sources queued, so a rank that already left the exchange and posted
    the next collective must not be counted as a halo arrival.  For the
    same reason bound and per-message operations do not match each other
    on one edge.

Who waits where, who wakes whom: a rank only ever blocks on its *own*
port, in :meth:`SimFabric._await` -- the one wait in this package, for
receives, send waits and the barrier, bound and per-message alike -- so
abort, dead peer and deadlock are classified once.  A bound post
notifies a destination only when the destination is blocked in
*complete* and this deposit brings in the last source it still lacks
(the port's ``need``); a bound receive notifies a sender only when it
consumes the last outstanding item of the cut that sender is blocked on
(``credit.waiting``).  A per-message post or receive notifies the peer's
port, the barrier's last arrival every port.  ``abort`` and
``mark_dead`` wake every port.

Deadlock is seen, not timed out.  :func:`~repro.simmpi.run_spmd`
declares its ranks live before it starts them and retires each one when
its function returns or raises.  A rank that blocks counts as blocked
until a notify wakes it; when a rank blocks or retires and every live
rank is blocked, no wait can ever end, and every blocked rank raises
:class:`DeadlockError` naming its own first missing edge -- before any
abort could turn it into :class:`AbortedError`, so the launcher reports
the same lowest rank on every run.  A fabric no launcher declared is
driven by its calling thread alone: a wait that is not ready there is a
deadlock at once.

Where a send completes is the sender's business, not the exchange's: a
cut's items stay outstanding after its receive returned, and
:class:`~repro.exchange.base.ExchangeChannel` waits for them where their
buffers are next written (DESIGN.md, "Ports").

Statistics (message and byte counts) are recorded per rank
(:class:`FabricStats`).  Nothing on the run path reads them: the tests
assert on them, halobench reads its ``sends`` row off them, and
:func:`repro.obs.counters` reports them as the run's ``fabric.*``
counters.

Verified mode (the chaos fabric)
--------------------------------
``enable_envelope()`` installs an
:class:`~repro.exchange.envelope.EnvelopeGuard`, which seals and judges
a **cut** -- one rank's bound request.  The same request is bound and
fired by the same three calls, so a guarded exchange is the plain one
plus the guard.  Both ends' buffers are persistent, so everything but
the bytes is frozen at bind: the guard's per-rank sequence / epoch
tables in cut order, and the two bound calls a cut is handed
(*crc_list*, *copy_crc_list*: C functions, or -- on a CPU that cannot
fold the CRC -- ``zlib.crc32`` per view around the cut's
``copy_list``).

A clean exchange is the plain bound exchange plus two calls and two
vector compares.  ``post_send_batch`` asks the guard what to deposit:
one vector increment stamps the cut's edges with their next sequence
numbers, **one** ``crc_list`` call takes the CRC32 of every send view,
and the deposits are the cut's prebuilt plain ones, with the cut's one
envelope (those two vectors, packed) on its credit.
``complete_recv_batch`` takes the head deposits as the plain path does
(:meth:`SimFabric._take`), under the same identity check against the
deposits its table was frozen from (:meth:`SimFabric._freeze`, which
builds the table over **one** ``copy_crc_list`` call), and the guard
compares the sequence vector with ``last accepted + 1`` and the CRCs
of what landed with the sent ones, one compare each.

Everything else goes item by item, each wire item ``(key, send view,
envelope, what the receiver will see)`` carrying its own envelope.  A
post deposits such items for a re-fire inside the exchange epoch
(absorbing what it already posted), a cut the injector corrupted,
dropped or duplicated an item of, and a cut with items still on the
wire.  A receive goes item by item when it owes less than the whole cut
(the rest was accepted by an earlier attempt), or when its head
deposits are not the clean posts it mirrors or a compare fails -- those
deposits go back to the front of their FIFOs first
(:meth:`SimFabric._recv_items`).  It waits until every receive it still
*owes* has a fresh item in its source's FIFO -- a count is not enough
once a wire duplicate, or the next epoch's item of a peer that finished
first, can sit there -- takes those (plain deposits expanded from their
cut's envelope), drops duplicates and leaves later epochs queued in
order.  Every transmission that arrived -- the bound send view, or the
injector's corrupted copy beside it -- lands in one ``copy_crc_list``
call over a table built for that receive (:meth:`SimFabric._land`);
then every taken item is judged once by the CRC of its landed bytes, a
lost one by ``None``
(:meth:`~repro.exchange.envelope.EnvelopeGuard.accept`): only accepted
items are counted and credited to the cut that sent them; every failed
one goes back pristine to the front of its source's FIFO, and the typed
error from :mod:`repro.faults.errors` -- the first item that failed --
is raised once, after the whole take was judged, so one bounded retry
of the exchange heals the whole cut.  Which path runs is decided from
what arrived, never from a setting.  Per-message delivery (collectives,
which are never faulted) is sealed and verified too, as *detection*
only: typed error, no healing.
"""

from __future__ import annotations

import _thread
import threading
import time
import zlib
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import is_
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.faults.errors import (
    ExchangeConfigError,
    ExchangeIntegrityError,
    ExchangeTimeoutError,
    ProtocolError,
    RankDeadError,
    SplitMismatchError,
)
from repro.obs import TRACER as _TRACER

__all__ = [
    "SimFabric",
    "FabricStats",
    "BoundRequest",
    "DeadlockError",
    "AbortedError",
    "ExchangeIntegrityError",
    "ExchangeTimeoutError",
    "RankDeadError",
    "ProtocolError",
    "SplitMismatchError",
    "ExchangeConfigError",
]

class DeadlockError(RuntimeError):
    """Every live rank is blocked in a fabric wait: none can ever end."""


# Per kind of wait: what an abort abandons, the verb toward a dead peer,
# and what a deadlocked wait lacks, with the word naming its peer.
_RECV = ("aborting receive", "receive from", "message", "src")
_SEND = ("abandoning send", "send to", "unmatched send", "dst")
_BARRIER = ("leaving the barrier", "pass the barrier with", "barrier arrival",
            "rank")


@dataclass
class FabricStats:
    """Per-rank communication counters."""

    sends: int = 0
    recvs: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0


class _SendEntry:
    """One per-message send; every field is guarded by the fabric lock
    once the entry is on the wire."""

    __slots__ = ("buf", "done", "src", "dst", "tag", "env")

    def __init__(self, buf: np.ndarray, src: int, dst: int, tag: int) -> None:
        self.buf = buf          # the send buffer, by reference
        self.done = False       # consumed by its receiver
        self.src = src
        self.dst = dst
        self.tag = tag
        self.env = None         # Envelope(seq, crc, nbytes) when verified


class AbortedError(RuntimeError):
    """Another rank failed; this operation was abandoned."""


def _tag(tag, before: str, after: str = "") -> str:
    """``tag=`` of a wait's missing key in an error text; a barrier
    key's ``None`` says nothing."""
    return "" if tag is None else f"{before}tag={tag}{after}"


def _flat_bytes(buf: np.ndarray) -> np.ndarray:
    """Flat byte view of a C-contiguous buffer (never a copy): the
    buffer itself when it is one already, as the pack-free exchangers'
    views, cut from one byte view of their storage, are."""
    if not buf.flags.c_contiguous:
        raise ExchangeConfigError("bound buffers must be C-contiguous")
    if buf.dtype is _BYTE and buf.ndim == 1:
        return buf
    return (buf if buf.ndim == 1 else buf.reshape(-1)).view(_BYTE)


_BYTE = np.dtype(np.uint8)


def _packed_crcs(views) -> bytes:
    """``zlib.crc32`` of every one of *views*, packed as the C movers
    pack theirs (native ``uint32``)."""
    return np.fromiter(map(zlib.crc32, views), np.uint32, len(views)).tobytes()


def _zlib_crc_list(views) -> Callable[[], bytes]:
    """A cut's seal without the C CRC: one ``zlib.crc32`` per view."""
    return partial(_packed_crcs, views)


def _zlib_copy_crc_list(copy_list, srcs, dsts) -> Callable[[], bytes]:
    """A verified cut's receive without the C CRC: *copy_list*'s call,
    then one ``zlib.crc32`` per receive view -- of the bytes that
    landed."""
    copy = copy_list(srcs, dsts)

    def copy_crcs() -> bytes:
        copy()
        return _packed_crcs(dsts)

    return copy_crcs


class _Credit:
    """A cut's send side, as its deposits name it to their receivers.

    ``outstanding`` counts the items the cut posted that no receiver has
    consumed yet; the receiver that consumes the last of them notifies
    the sender's port only if the sender is ``waiting`` on this credit.
    ``nsend`` is one epoch's items: more outstanding is a second epoch
    of the cut on the wire.  ``posted``: the cut posted since its sender
    last waited on it, so ``wait_send_batch`` reports one send wait per
    epoch -- what a trace shows -- wherever the epoch completes.
    ``envelope``: on a verified fabric,
    the :class:`~repro.exchange.envelope.CutEnvelope` of the cut's last
    clean post, whose plain deposits carry none of their own -- written
    only while none of the cut's items is on the wire.  Kept apart from
    the cut, so that a deposit does not reference the cut that holds it.
    """

    __slots__ = ("rank", "nsend", "outstanding", "waiting", "posted",
                 "envelope")

    def __init__(self, rank: int, nsend: int) -> None:
        self.rank = rank
        self.nsend = nsend
        self.outstanding = 0
        self.waiting = False
        self.posted = False
        self.envelope = None


class _Port:
    """One rank's end of the fabric, the only place a message waits; every
    field but ``wake`` is guarded by the fabric lock.

    ``wake`` is a raw lock used as a binary semaphore, released (a wake
    pending) only by a notify that finds the owner ``blocked``, under the
    fabric lock; the owner blocks on it in :meth:`SimFabric._await`, after
    dropping the fabric lock, so a notify in between is not lost.  Unlike
    ``threading.Condition`` it allocates nothing per wait.
    """

    __slots__ = ("wake", "blocked", "fifos", "need", "queues")

    def __init__(self, nranks: int) -> None:
        self.wake = _thread.allocate_lock()
        self.wake.acquire(False)  # held: no wake pending
        self.blocked = False
        # Per source: bound deposits (credit, items) not yet consumed,
        # oldest first; an item is ((src, tag), send view), followed --
        # on a verified fabric, in a deposit that is not a clean post's
        # plain one -- by (envelope, what the receiver will see).
        self.fifos = [deque() for _ in range(nranks)]
        # While the owner is blocked in a bound receive: per source it
        # still lacks, how many more items must arrive from it.
        self.need: Optional[Dict[int, int]] = None
        self.queues = defaultdict(deque)  # (src, tag) -> _SendEntry's to consume

    def items(self, sources) -> list:
        """The bound items queued from *sources*, oldest first per source."""
        fifos = self.fifos
        return [item for src in sources for _c, items in fifos[src] for item in items]


def _heads(fifos, sources) -> Tuple[list, Dict[int, int]]:
    """Per ``(src, items owed)`` of *sources*: the oldest deposits of its
    FIFO in *fifos* that hold that many items (all it has, if fewer), as
    ``(src, deposit)`` pairs; and per source that holds fewer, how many
    more items must arrive (empty: none)."""
    heads, need = [], {}
    for src, count in sources:
        for deposit in fifos[src]:
            heads.append((src, deposit))
            count -= len(deposit[1])
            if count <= 0:
                break
        else:
            need[src] = count
    return heads, need


def _owners(heads) -> Dict[int, "_Credit"]:
    """``id(item) -> credit`` of the cut that sent it, over the deposits
    of *heads* (``(src, deposit)`` pairs)."""
    return {id(item): credit for _src, (credit, items) in heads for item in items}


def _requeue(fifos, owners, items) -> None:
    """Queue *items* at the back of their sources' FIFOs, in order, one
    deposit per run of items from one sending cut (*owners*)."""
    for item in items:
        fifo, credit = fifos[item[0][0]], owners[id(item)]
        if fifo and fifo[-1][0] is credit:
            fifo[-1][1].append(item)
        else:
            fifo.append((credit, [item]))


class BoundRequest:
    """A channel's messages bound to the fabric once, fired every step.

    One rank's persistent request (the ``MPI_Send_init`` / ``Recv_init``
    analogue in one handle), built by :meth:`SimFabric.bind_request` and
    fired through ``post_send_batch`` / ``complete_recv_batch`` /
    ``wait_send_batch``.  The fabric and its guard call it a *cut*: the
    channel's buffers cut into wire items, one per message.

    ``groups`` are the items gathered per destination; a group is
    ``(dst, items, nbytes)`` and an item ``((src, tag), byte view)``.
    ``deposits`` are the groups as a post queues them, ``(dst, (credit,
    items))``, built once; ``credit`` is the cut's :class:`_Credit`.
    ``rmap`` maps each expected item key to its receive view, ``sources``
    is ``(src, item count)``.

    ``copy`` is the whole wire copy, one call over a table in the order
    of the items of the deposits in ``frozen`` -- kept alive here, so
    that an epoch whose deposits are those very objects is known to
    carry the very items the table was checked against.  It is built by
    ``copy_list`` (a ``(srcs, dsts) -> call`` binder); on a verified
    fabric by ``copy_crc_list`` (``(srcs, dsts) -> call that copies and
    returns the CRC32s of what landed``, packed), and the guard freezes
    its own view of the two halves in ``sealed`` / ``checked``, the send
    half over ``crc_list`` (``views -> call returning their CRC32s``,
    packed).  Where no CRC binders were handed in, both are
    ``zlib.crc32`` around ``copy_list``, which ``checksums_on_zlib``
    says of a verified cut.
    """

    __slots__ = ("rank", "groups", "nsend", "send_bytes", "credit",
                 "deposits", "targets", "rmap", "nrecv", "recv_bytes",
                 "sources", "copy_list", "copy", "frozen", "heads", "credits",
                 "crc_list", "copy_crc_list", "sealed", "checked",
                 "checksums_on_zlib", "began")

    def __init__(self, rank: int, posts, recvs, verified: bool, copy_list,
                 ports, crc_list=None, copy_crc_list=None) -> None:
        self.rank = rank
        by_dst: Dict[int, list] = {}
        sizes: Dict[int, int] = {}
        for dst, tag, buf in posts:
            view = _flat_bytes(buf)
            by_dst.setdefault(dst, []).append(((rank, tag), view))
            sizes[dst] = sizes.get(dst, 0) + view.size
        self.groups = [(dst, items, sizes[dst]) for dst, items in by_dst.items()]
        self.nsend = len(posts)
        self.send_bytes = sum(sizes.values())
        self.credit = _Credit(rank, self.nsend)
        self.deposits = [(dst, (self.credit, items)) for dst, items, _n in self.groups]
        self.targets = [
            (dst, ports[dst], ports[dst].fifos[rank], deposit)
            for dst, deposit in self.deposits
        ]
        rmap: Dict[Tuple[int, int], np.ndarray] = {}
        counts: Dict[int, int] = {}
        recv_bytes = 0
        for src, tag, buf in recvs:
            if not buf.flags.writeable:
                raise ExchangeConfigError(
                    f"rank {rank} binds a read-only buffer to the receive"
                    f" (src={src}, tag={tag})"
                )
            if (src, tag) in rmap:
                raise ExchangeConfigError(
                    f"rank {rank} binds two receives to (src={src},"
                    f" tag={tag}); one request matches an edge once"
                )
            view = rmap[(src, tag)] = _flat_bytes(buf)
            recv_bytes += view.size
            counts[src] = counts.get(src, 0) + 1
        self.rmap = rmap
        self.nrecv = len(rmap)
        self.recv_bytes = recv_bytes
        self.sources = list(counts.items())
        self.copy_list = copy_list
        self.copy: Optional[Callable[[], None]] = None
        self.frozen: list = []
        self.heads: list = []
        self.credits: list = []
        self.crc_list = crc_list or _zlib_crc_list
        self.copy_crc_list = copy_crc_list or partial(
            _zlib_copy_crc_list, copy_list
        )
        self.sealed = self.checked = None  # EnvelopeGuard.bind fills them
        self.checksums_on_zlib = verified and crc_list is None
        # When a verified receive began taking, after the guard counted
        # what earlier attempts already delivered (a trace's
        # ``fabric.recv`` starts there); None on a plain fabric.
        self.began: Optional[float] = None


class SimFabric:
    """The shared network of one SPMD run."""

    def __init__(self, nranks: int) -> None:
        if nranks <= 0:
            raise ExchangeConfigError("nranks must be positive")
        self.nranks = nranks
        # One lock for everything; a rank blocks only on its own port.
        self._lock = threading.RLock()
        self._ports = [_Port(nranks) for _ in range(nranks)]
        self.stats: List[FabricStats] = [FabricStats() for _ in range(nranks)]
        self._failed = False
        # -- deadlock detection (module docstring) -----------------------
        self._live = 0        # ranks a launcher declared and not retired
        self._blocked = 0     # of them, blocked with no wake pending
        self._deadlocked = False
        # -- the barrier: this generation's arrivals ----------------------
        self._arrived: set = set()
        self._generation = 0
        # -- rank-liveness state (elastic restart) -----------------------
        self._dead: set = set()
        # -- verified mode: the envelope guard (None: plain delivery) ----
        self._guard = None
        self._epochs: List[Optional[int]] = [None] * nranks
        # -- negotiated byte counts, per edge and side -------------------
        # (src, dst, tag) -> {"send"/"recv": nbytes}.  Both endpoints of
        # every persistent channel register their count; a disagreement
        # surfaces here, at negotiation time, as a typed
        # SplitMismatchError instead of a DeadlockError at wait time.
        self._splits: Dict[Tuple[int, int, int], Dict[str, int]] = {}

    # ------------------------------------------------------------------
    def enable_envelope(self, injector=None) -> None:
        """Switch to verified (sequence + checksum) delivery.

        *injector* is an optional :class:`~repro.faults.FaultInjector`
        whose plan decides which transmissions to drop/corrupt/duplicate/
        delay.  Verification works without one.
        """
        from repro.exchange.envelope import EnvelopeGuard

        self._guard = EnvelopeGuard(injector)

    @property
    def envelope_enabled(self) -> bool:
        return self._guard is not None

    def set_epoch(self, rank: int, epoch: Optional[int]) -> None:
        """Mark *rank*'s current exchange epoch (None between exchanges).

        Epochs scope the idempotency machinery of the bound requests:
        only items posted under an epoch are subject to injection,
        suppression and replay.
        """
        self._check_rank(rank)
        self._epochs[rank] = epoch

    # ------------------------------------------------------------------
    # Rank liveness (elastic restart)
    #
    # A dead rank is *permanently* gone -- node loss, not a survivable
    # crash.  Marking it wakes every waiter so operations touching the
    # dead rank fail fast with a typed RankDeadError.
    # ------------------------------------------------------------------
    def mark_dead(self, rank: int) -> None:
        """Declare *rank* permanently dead and wake every waiter."""
        self._check_rank(rank)
        with self._lock:
            self._dead.add(rank)
            self._wake_all()

    def is_dead(self, rank: int) -> bool:
        with self._lock:
            return rank in self._dead

    def dead_ranks(self) -> List[int]:
        """Ranks declared dead so far, sorted."""
        with self._lock:
            return sorted(self._dead)

    def _check_dst_alive(self, src: int, dst: int) -> None:
        """Under the lock, in the acquisition that deposits: refuse to
        post toward a dead rank, so a rank that died first gets nothing."""
        if dst in self._dead:
            raise RankDeadError(
                f"rank {src} cannot send to rank {dst}: rank {dst}"
                " is permanently dead"
            )

    # ------------------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nranks:
            raise ExchangeConfigError(
                f"rank {rank} outside communicator of {self.nranks}"
            )

    # ------------------------------------------------------------------
    # Deadlock detection (module docstring)
    # ------------------------------------------------------------------
    def declare_live(self, nranks: int) -> None:
        """Count *nranks* more ranks as live: a launcher's, before it
        starts them."""
        with self._lock:
            self._live += nranks

    def retire(self) -> None:
        """A launched rank's function returned or raised: it will never
        wake a peer again, so the ranks still blocked may now be
        deadlocked."""
        with self._lock:
            self._live -= 1
            if self._blocked and self._blocked >= self._live:
                self._deadlock()

    def _deadlock(self) -> None:
        """Under the lock: every live rank is blocked -- wake them all to
        raise :class:`DeadlockError`."""
        self._deadlocked = True
        self._wake_all()

    def _notify(self, port: _Port) -> None:
        """Under the lock: wake *port*'s owner if it is blocked; it then
        counts as running until it blocks again."""
        if port.blocked:
            port.blocked = False
            self._blocked -= 1
            port.wake.release()

    def _await(self, rank: int, ready: Callable[[], object],
               missing: Callable[[], list], kind: tuple = _RECV) -> None:
        """Under the lock (held once): block on *rank*'s port until
        ``ready()``.

        The one wait of the fabric.  *missing* lists the ``(peer, tag)``
        keys still awaited -- sources of a receive, destinations of a
        send wait, ranks not yet at the barrier (*kind* says which; a
        barrier key's tag is ``None``) -- and is only called to classify
        a failure, in this order: every live rank is blocked
        (:class:`DeadlockError`, first, so that no abort an earlier
        raise makes can reclassify it), another rank failed
        (:class:`AbortedError`), or a peer is dead so the wait can never
        end (:class:`RankDeadError`; a message already on the wire
        outlives its sender).  Reads no clock.
        """
        port = self._ports[rank]
        lock = self._lock
        while not ready():
            if self._deadlocked:
                keys = missing()
                where = ""
                if keys:
                    peer, tag = keys[0]
                    where = f" ({kind[3]}={peer}{_tag(tag, ', ')})"
                raise DeadlockError(
                    f"rank {rank} deadlocked waiting for {kind[2]}{where}:"
                    " every rank is blocked or finished"
                )
            if self._failed:
                raise AbortedError(f"another rank failed; {kind[0]}")
            if self._dead:
                for peer, tag in missing():
                    if peer in self._dead:
                        raise RankDeadError(
                            f"rank {rank} cannot {kind[1]} rank {peer}"
                            f"{_tag(tag, ' (', ')')}: rank {peer} is"
                            " permanently dead"
                        )
            port.blocked = True
            self._blocked += 1
            if self._blocked >= self._live:
                self._deadlock()  # wakes this port too: raise on re-check
            lock.release()
            try:
                port.wake.acquire()
            finally:
                lock.acquire()

    def barrier(self, rank: int) -> None:
        """Block *rank* until every rank of the fabric has entered the
        barrier (``SimComm.Barrier``): an arrival set plus a generation
        count, waited on in :meth:`_await` like any message."""
        self._check_rank(rank)
        with self._lock:
            arrived = self._arrived
            arrived.add(rank)
            if len(arrived) == self.nranks:
                arrived.clear()
                self._generation += 1
                self._wake_all()
                return
            generation = self._generation
            self._await(
                rank,
                lambda: self._generation != generation,
                lambda: [(r, None) for r in range(self.nranks) if r not in arrived],
                _BARRIER,
            )

    def post_send(self, src: int, dst: int, tag: int, buf: np.ndarray) -> _SendEntry:
        """Queue a send on *dst*'s port; returns the entry ``wait_send``
        takes.  Under an envelope the entry is sealed first."""
        self._check_rank(src)
        self._check_rank(dst)
        entry = _SendEntry(np.ascontiguousarray(buf), src, dst, tag)
        nbytes = entry.buf.nbytes
        if self._guard is not None:
            entry.env = self._guard.seal_message((src, dst, tag), entry.buf)
        with self._lock:
            self._check_dst_alive(src, dst)
            port = self._ports[dst]
            port.queues[(src, tag)].append(entry)
            self._notify(port)
            st = self.stats[src]
            st.sends += 1
            st.bytes_sent += nbytes
        return entry

    def complete_recv(self, src: int, dst: int, tag: int, buf: np.ndarray) -> None:
        """Block until a matching send exists, then copy it into *buf*.

        Under an envelope the bytes that landed are verified against the
        entry's seal; a mismatch raises the typed error (detection only).
        """
        self._check_rank(src)
        self._check_rank(dst)
        edge = (src, dst, tag)
        key = (src, tag)
        with _TRACER.span("fabric.recv", rank=dst, src=src):
            with self._lock:
                queue = self._ports[dst].queues[key]
                if not queue:
                    self._await(dst, queue.__len__, lambda: [key])
                entry = queue.popleft()
            landed = self._copy_into(entry.buf, buf, edge)  # the single wire copy
            if self._guard is not None:
                self._guard.accept_message(edge, entry.env, landed)
            with self._lock:
                st = self.stats[dst]
                st.recvs += 1
                st.bytes_received += buf.nbytes
                self._consumed(entry)

    def wait_send(self, entry: _SendEntry) -> None:
        """Block until *entry* is consumed by its receiver."""
        with _TRACER.span("fabric.send_wait", rank=entry.src):
            # Unlocked read: the flag only ever goes from False to True.
            if not entry.done:
                with self._lock:
                    self._await(
                        entry.src,
                        lambda: entry.done,
                        lambda: [(entry.dst, entry.tag)],
                        _SEND,
                    )

    def _consumed(self, entry: _SendEntry) -> None:
        """Under the lock: complete *entry*'s send and wake its sender."""
        entry.done = True
        self._notify(self._ports[entry.src])

    def _copy_into(self, src_buf: np.ndarray, buf: np.ndarray,
                   edge: Tuple[int, int, int]) -> np.ndarray:
        """The single wire copy, with the size guard; returns buf flat."""
        flat = buf.reshape(-1)
        src_flat = src_buf.reshape(-1).view(flat.dtype)
        if src_flat.size != flat.size:
            self.abort()
            raise SplitMismatchError(
                f"message size mismatch on (src={edge[0]}, dst={edge[1]},"
                f" tag={edge[2]}): sent {src_flat.size} elements, receiving"
                f" {flat.size}"
            )
        flat[:] = src_flat
        return flat

    # ------------------------------------------------------------------
    # Bound requests (module docstring): ExchangeChannel's per-step calls,
    # on a plain fabric and -- each cut under the guard -- a verified one.
    # ------------------------------------------------------------------
    def bind_request(self, rank: int, posts, recvs, copy_list,
                     crc_list=None, copy_crc_list=None) -> BoundRequest:
        """Bind a channel's whole message plan into a persistent request.

        *posts* are ``(dst, tag, buf)`` and *recvs* ``(src, tag, buf)``
        exactly as the channel will fire them; the buffers must be
        C-contiguous, the receive buffers writeable, and all stay alive
        and unmoved with the handle.  Both ends' byte count of each edge
        is registered here -- all of them under one acquisition of the
        fabric lock -- so a byte-count disagreement between two ranks
        surfaces at negotiation as a :class:`SplitMismatchError`, before
        any message is posted.  On a verified fabric the guard's
        cut-order tables are built here too.

        *copy_list* is who performs the plain path's wire copy: a binder
        ``(sender views, receive views) -> call`` whose call copies every
        pair; *crc_list* and *copy_crc_list* are a verified fabric's
        seal and copy-and-check binders (:class:`BoundRequest`).  All
        three are :class:`repro.stencil.cbackend.Movers` methods handed
        down by the channel; a ``None`` CRC binder is ``zlib.crc32`` per
        view, around *copy_list*'s call for the receive.
        """
        self._check_rank(rank)
        posts, recvs = list(posts), list(recvs)
        counts = [((rank, dst, tag), buf.nbytes, "send") for dst, tag, buf in posts]
        counts += [((src, rank, tag), buf.nbytes, "recv") for src, tag, buf in recvs]
        for (src, dst, _tag), _nbytes, side in counts:
            if not (0 <= src < self.nranks and 0 <= dst < self.nranks):
                self._check_rank(dst if side == "send" else src)
        with self._lock:
            self._negotiate(counts)
        request = BoundRequest(
            rank, posts, recvs, self._guard is not None, copy_list,
            self._ports, crc_list, copy_crc_list,
        )
        if self._guard is not None:
            self._guard.bind(request)
        return request

    def post_send_batch(self, cut: BoundRequest) -> None:
        """Put *cut* on the wire.

        One deposit per destination, appended to its FIFO of this rank;
        one lock acquisition covers the dead-destination check and the
        deposits, so a rank that dies first gets nothing queued.  A
        destination is notified only if it is blocked in
        :meth:`complete_recv_batch` and this deposit brings in the last
        source it lacked.  On a verified fabric the guard turns the
        prebuilt items into what goes on the wire first (module
        docstring).
        """
        src = cut.rank
        credit = cut.credit
        if self._guard is not None:
            deposits, n, nbytes = self._guard.seal_items(cut, self._epochs[src])
            ports = self._ports
            targets = [
                (dst, ports[dst], ports[dst].fifos[src], deposit)
                for dst, deposit in deposits
            ]
        else:
            targets, n, nbytes = cut.targets, cut.nsend, cut.send_bytes
        with self._lock:
            if self._dead:
                for dst, _port, _fifo, _deposit in targets:
                    self._check_dst_alive(src, dst)
            for _dst, port, fifo, deposit in targets:
                fifo.append(deposit)
                need = port.need
                if need and src in need:
                    left = need[src] - len(deposit[1])
                    if left > 0:
                        need[src] = left
                    else:
                        del need[src]
                        if not need:
                            self._notify(port)
            credit.outstanding += n
            credit.posted = True
            st = self.stats[src]
            st.sends += n
            st.bytes_sent += nbytes

    def _missing(self, cut: BoundRequest) -> List[Tuple[int, int]]:
        """Under the lock: receive keys of *cut* with nothing queued yet."""
        queued = self._ports[cut.rank].items(src for src, _n in cut.sources)
        arrived = {item[0] for item in queued}
        return [key for key in cut.rmap if key not in arrived]

    def _unconsumed(self, cut: BoundRequest) -> List[Tuple[int, int]]:
        """Under the lock: ``(dst, tag)`` of *cut*'s items still queued."""
        rank, credit, ports = cut.rank, cut.credit, self._ports
        return [
            (dst, item[0][1])
            for dst in {group[0] for group in cut.groups}
            for owner, items in ports[dst].fifos[rank]
            if owner is credit
            for item in items
        ]

    def _size_mismatch(self, key, dst: int, sent, recv) -> SplitMismatchError:
        """Abort, and build the error for an item whose two ends bound
        different byte counts (negotiation should have caught it)."""
        self.abort()
        return SplitMismatchError(
            f"message size mismatch on (src={key[0]}, dst={dst},"
            f" tag={key[1]}): sent {sent.size} bytes, receiving {recv.size}"
        )

    def _freeze(self, cut: BoundRequest, taken: list, doubled: bool) -> bool:
        """Check the *taken* deposits against *cut*'s receives and build
        its copy table over them.

        The per-epoch checks of the bound path, run when the deposits are
        not the very objects the table was last built from, or one of
        them comes from a cut with more than one epoch on the wire
        (*doubled*): exactly one item per bound receive (else the peer's
        request does not mirror this one), each the size of its receive
        view, and every sender cut in its first unconsumed epoch (else it
        posted again before this rank took the previous one).  Deposits
        are the senders' prebuilt tuples, alive and unchanged for as long
        as ``frozen`` holds them, so a later epoch that delivers the same
        objects has passed these checks already (DESIGN.md,
        "Data-movement tier").  A plain cut's table runs in the order
        of its receives (``rmap``), a verified cut's in the order of the
        deposits' items -- the order their senders' envelopes list them
        in.

        A plain cut raises :class:`ProtocolError` where a check fails; a
        verified one returns ``False`` (the per-item path sorts the
        deposits out), as it does for deposits that are not clean posts'
        plain ones.  A size mismatch raises either way.
        """
        rmap = cut.rmap
        dst = cut.rank
        verified = cut.checked is not None
        items = [item for _credit, its in taken for item in its]
        keys = [item[0] for item in items]
        if doubled or len(keys) != len(rmap) or set(keys) != rmap.keys() or (
            verified and any(len(item) != 2 for item in items)
        ):
            if verified:
                return False
            self.abort()
            raise ProtocolError(
                f"rank {dst}: arrivals (src, tag) {sorted(keys)} do not match"
                f" its {len(rmap)} bound receives"
                + (": a sender posted a cut again before its previous"
                   " epoch was consumed" if doubled else "")
            )
        if verified:
            srcs = [item[1] for item in items]
            dsts = [rmap[key] for key in keys]
        else:
            sent = dict(items)
            keys = list(rmap)
            srcs = [sent[key] for key in keys]
            dsts = list(rmap.values())
        for key, view, recv in zip(keys, srcs, dsts):
            if view.size != recv.size:
                raise self._size_mismatch(key, dst, view, recv)
        cut.copy = (cut.copy_crc_list if verified else cut.copy_list)(srcs, dsts)
        cut.frozen = taken
        if verified:
            self._guard.freeze(cut, taken)
        else:
            # The plain fire's take and credit (:meth:`_take_frozen`):
            # per source, its FIFO and the deposit frozen from it --
            # armed where every source sent one deposit.
            fifos = self._ports[dst].fifos
            one_each = len(taken) == len(cut.sources)
            cut.heads = [
                (fifos[src], deposit)
                for (src, _count), deposit in zip(cut.sources, taken)
            ] if one_each else []
            cut.credits = [(credit, len(items)) for credit, items in taken]
        return True

    def _take(self, cut: BoundRequest):
        """Under one lock acquisition: block until every source has
        queued the items *cut* owes it (one wake-up per exchange, not one
        per message or per source), then pop exactly those deposits,
        oldest first -- a peer's next epoch stays queued behind them.
        Returns the ``(src, deposit)`` pairs and whether a sending cut
        had more than one epoch on the wire."""
        port = self._ports[cut.rank]
        fifos = port.fifos
        with self._lock:
            heads, need = _heads(fifos, cut.sources)
            if need:
                port.need = need
                try:
                    self._await(
                        cut.rank, lambda: not need, lambda: self._missing(cut)
                    )
                finally:
                    port.need = None
                heads = _heads(fifos, cut.sources)[0]
            doubled = False
            for src, (credit, _items) in heads:
                fifos[src].popleft()
                doubled |= credit.outstanding > credit.nsend
        return heads, doubled

    def _credit(self, dst: int, n: int, nbytes: int, credits) -> None:
        """Under the lock: count *n* items of *nbytes* received by *dst*
        and hand each ``(credit, count)`` of *credits* back to the cut
        that sent them, waking a sender blocked on the last of them."""
        st = self.stats[dst]
        st.recvs += n
        st.bytes_received += nbytes
        ports = self._ports
        for credit, count in credits:
            left = credit.outstanding - count
            credit.outstanding = left
            if not left and credit.waiting:
                self._notify(ports[credit.rank])

    def _take_frozen(self, cut: BoundRequest) -> bool:
        """The plain fire's take, once *cut* has a frozen table: one pass
        over ``cut.heads`` -- per source, its FIFO on this port and the
        deposit the table was frozen from -- popping each head that is
        that very deposit, its sender cut in its first unconsumed epoch.
        Where a source has posted nothing yet, the pops are put back and
        the take waits, like :meth:`_take`, for every source it lacks,
        then passes again.  Returns ``False`` -- having taken nothing --
        where a head is any other deposit (a re-bound peer, a protocol
        violation) or no table is frozen: :meth:`_take` then sorts it
        out."""
        heads = cut.heads
        if not heads:
            return False
        port = self._ports[cut.rank]
        with self._lock:
            while True:
                popped = 0
                for fifo, deposit in heads:
                    credit = deposit[0]
                    if (
                        not fifo or fifo[0] is not deposit
                        or credit.outstanding > credit.nsend
                    ):
                        break
                    fifo.popleft()
                    popped += 1
                else:
                    return True
                for fifo, deposit in heads[:popped]:
                    fifo.appendleft(deposit)
                need = {
                    deposit[0].rank: len(deposit[1])
                    for fifo, deposit in heads
                    if not fifo
                }
                if not need:
                    return False
                port.need = need
                try:
                    self._await(
                        cut.rank, lambda: not need, lambda: self._missing(cut)
                    )
                finally:
                    port.need = None

    def complete_recv_batch(self, cut: BoundRequest) -> int:
        """Deliver one epoch of *cut*'s receives into their buffers;
        returns how many items it delivered (0: it owed none).

        Takes exactly the deposits the cut owes and copies outside the
        lock: one call over the cut's frozen table (:meth:`_freeze`), so
        ranks' wire copies overlap.  Buffers are disjoint, so arrival
        order cannot matter.  Each deposit is then credited to the cut
        that sent it.  Once the table is frozen, the take is one pass
        over its heads (:meth:`_take_frozen`) and the credit one over
        its frozen ``credits``; a first fire, a re-bound peer or a
        protocol violation goes through :meth:`_take` and
        :meth:`_freeze`.  On a verified fabric the guard judges the cut
        first (module docstring).
        """
        n = cut.nrecv
        if n == 0:
            return 0
        if self._guard is not None:
            return self._complete_recv_verified(cut, self._guard)
        if self._take_frozen(cut):
            credits = cut.credits
        else:
            pairs, doubled = self._take(cut)
            taken = [deposit for _src, deposit in pairs]
            frozen = cut.frozen
            if doubled or len(taken) != len(frozen) or not all(map(is_, taken, frozen)):
                # Not the deposits the copy table was built from: a first
                # fire, a re-bound peer -- or a protocol violation.
                self._freeze(cut, taken, doubled)
            credits = [(credit, len(items)) for credit, items in taken]
        cut.copy()  # the single wire copy, every item in one call
        with self._lock:
            self._credit(cut.rank, n, cut.recv_bytes, credits)
        return n

    def _complete_recv_verified(self, cut: BoundRequest, guard) -> int:
        """:meth:`complete_recv_batch` under the guard (module docstring).

        A receive that owes the whole cut first tries the common case:
        the plain path's take, its table, and the guard's two vector
        compares (:meth:`~repro.exchange.envelope.EnvelopeGuard.accept_cut`).
        Deposits that are not the clean posts the table was frozen from,
        or that fail a compare, go back to the front of their FIFOs
        untouched by the guard, and the per-item path takes them.
        Returns how many receives it owed.
        """
        dst = cut.rank
        epoch = self._epochs[dst]
        owed = guard.owed(cut, epoch)
        if not owed:
            return 0
        cut.began = time.perf_counter()
        if len(owed) == len(cut.rmap):  # nothing replayed
            heads, doubled = self._take(cut)
            taken = [deposit for _src, deposit in heads]
            frozen = cut.frozen
            same = not doubled and len(taken) == len(frozen) and all(
                map(is_, taken, frozen)
            )
            if same or self._freeze(cut, taken, doubled):
                if guard.accept_cut(cut, cut.copy, epoch):
                    with self._lock:
                        self._credit(
                            dst, len(owed), cut.recv_bytes,
                            [(credit, len(items)) for credit, items in taken],
                        )
                    return len(owed)
            fifos = self._ports[dst].fifos
            with self._lock:
                for src, deposit in reversed(heads):
                    fifos[src].appendleft(deposit)
        self._recv_items(cut, guard, owed, epoch)
        return len(owed)

    def _recv_items(self, cut: BoundRequest, guard, owed, epoch) -> None:
        """The per-item receive: every queued deposit expanded to wire
        items with their own envelopes, sifted, landed and judged.

        The wake stays count-based -- a poster cannot judge freshness --
        which is a necessary condition only: each owed key the sift found
        no fresh item for needs one more item from its source, and the
        wait re-sifts on every wake.  A re-fire finds the items it failed
        at the front of their sources' FIFOs and does not block.
        """
        dst = cut.rank
        port = self._ports[dst]
        fifos = port.fifos
        rmap = cut.rmap
        owes = cut.sources
        if len(owed) != len(rmap):  # some were replayed
            per_source: Dict[int, int] = {}
            for src, _tag in owed:
                per_source[src] = per_source.get(src, 0) + 1
            owes = per_source.items()
        sifted = examined = None

        def sift() -> None:
            """Sift every deposit queued from the sources *owes* names."""
            nonlocal sifted, examined
            examined = [
                (src, guard.expand(dst, dep)) for src, _n in owes for dep in fifos[src]
            ]
            arrivals = list(chain.from_iterable([dep[1] for _src, dep in examined]))
            sifted = guard.sift(cut, arrivals, owed)

        def ready() -> bool:
            need = _heads(fifos, owes)[1]  # necessary: the counts first
            if not need:
                sift()
                if sifted.stray is not None or len(sifted.taken) == len(owed):
                    return True
                for key in owed:  # each needs one more item from its source
                    if key not in sifted.taken:
                        need[key[0]] = need.get(key[0], 0) + 1
            port.need = need
            return False

        def missing() -> list:
            sift()
            return [key for key in owed if key not in sifted.taken]

        with self._lock:
            if not ready():
                try:
                    self._await(dst, ready, missing)
                finally:
                    port.need = None
            taken, rest, stale, stray = sifted
            if stray is None:
                for src, _deposit in examined:
                    fifos[src].popleft()
                if rest:  # later epochs: back in order, by sending cut
                    _requeue(fifos, _owners(examined), rest)
        if stray is not None:
            self.abort()
            raise ProtocolError(
                f"rank {dst}: arrival (src, tag) {stray} matches none"
                f" of its {len(rmap)} bound receives"
            )
        guard.discard(dst, stale)
        # Every transmission that arrived lands in one call; every taken
        # item is then judged, a lost one by ``None``.
        items = list(taken.values())
        crcs = iter(self._land(cut, items))
        owners = _owners(examined)
        counts: Dict[_Credit, int] = {}
        nbytes = 0
        failed = []  # (item, its pristine retransmission)
        error = None
        for item in items:
            try:
                guard.accept(cut, item, None if item[3] is None else next(crcs), epoch)
            except (ExchangeIntegrityError, ExchangeTimeoutError) as err:
                failed.append((item, guard.pristine(dst, item)))
                error = error or err
            else:
                credit = owners[id(item)]
                counts[credit] = counts.get(credit, 0) + 1
                nbytes += rmap[item[0]].size
        with self._lock:
            self._credit(dst, len(items) - len(failed), nbytes, counts.items())
            for item, retransmit in reversed(failed):
                fifos[item[0][0]].appendleft((owners[id(item)], [retransmit]))
        if error is not None:
            # The error's traceback holds this frame: drop the frame's
            # reference back, or the cycle pins every frame up to the
            # rank function -- and its mappings -- until a collector pass.
            try:
                raise error
            finally:
                del error

    def _land(self, cut: BoundRequest, items: list) -> List[int]:
        """Land what arrived of *items* -- the bound send view, or the
        injector's corrupted copy beside it; a lost item has nothing --
        in one ``copy_crc_list`` call over a table built for this
        receive, after the wire's own size guard on every item; returns
        the CRC32s of the bytes that landed, in order."""
        rmap = cut.rmap
        wires, recvs = [], []
        for key, view, _env, wire in items:
            recv = rmap[key]
            if view.size != recv.size:
                raise self._size_mismatch(key, cut.rank, view, recv)
            if wire is not None:
                wires.append(wire)
                recvs.append(recv)
        return np.frombuffer(cut.copy_crc_list(wires, recvs)(), np.uint32).tolist()

    def wait_send_batch(self, cut: BoundRequest) -> Optional[int]:
        """Block until every item *cut* posted has been consumed.

        Returns how many were outstanding at entry when this is the
        first wait since the cut last posted -- where a trace shows the
        epoch's send wait, wherever it completes -- else ``None``.
        """
        credit = cut.credit
        # Unlocked: only this thread posts the cut, so it alone raises
        # the count and sets ``posted``, and a zero seen here is final.
        n = credit.outstanding
        posted = credit.posted
        credit.posted = False
        if n:
            with self._lock:
                credit.waiting = True
                try:
                    self._await(
                        cut.rank,
                        lambda: not credit.outstanding,
                        lambda: self._unconsumed(cut),
                        _SEND,
                    )
                finally:
                    credit.waiting = False
        return n if posted else None

    def _negotiate(self, counts) -> None:
        """Under the lock: record each endpoint's byte count of its edge.

        *counts* holds ``(edge, nbytes, side)`` per endpoint; *side* is
        ``"send"`` (registered by the source) or ``"recv"`` (registered
        by the destination).  The first endpoint to negotiate
        records its count; the second is compared against it and a
        disagreement raises :class:`SplitMismatchError` immediately -- the
        runtime backstop of the static verifier's ``byte-mismatch``
        check.  Re-registering a *changed* count (a rebuilt channel, e.g.
        after ladder demotion) drops the peer's stale half so the peer's
        own re-negotiation re-arms the comparison instead of tripping on
        outdated state.
        """
        splits = self._splits
        for edge, nbytes, side in counts:
            other = "recv" if side == "send" else "send"
            sides = splits.get(edge)
            if sides is None:
                splits[edge] = {side: nbytes}
                continue
            prev = sides.get(side)
            if prev is not None and prev != nbytes:
                sides.pop(other, None)
            sides[side] = nbytes
            peer = sides.get(other)
            if peer is not None and peer != nbytes:
                src, dst, tag = edge
                raise SplitMismatchError(
                    f"byte count disagreement on (src={src}, dst={dst},"
                    f" tag={tag}): {side} side binds {nbytes} bytes, {other}"
                    f" side negotiated {peer} bytes"
                )

    def _wake_all(self) -> None:
        """Under the lock: wake every port."""
        for port in self._ports:
            self._notify(port)

    def abort(self) -> None:
        """Wake every waiter with a failure (used when one rank raises)."""
        with self._lock:
            self._failed = True
            self._wake_all()

    @property
    def pending_messages(self) -> int:
        """Posted but unconsumed messages, over both containers of every port."""
        every = range(self.nranks)
        with self._lock:
            return sum(
                len(port.items(every)) + sum(map(len, port.queues.values()))
                for port in self._ports
            )

    def total_stats(self) -> FabricStats:
        agg = FabricStats()
        for s in self.stats:
            agg.sends += s.sends
            agg.recvs += s.recvs
            agg.bytes_sent += s.bytes_sent
            agg.bytes_received += s.bytes_received
        return agg
