"""Message envelopes: sequence numbers + checksums for verified exchange.

The pack-free schemes move correctness risk out of copy loops and into
layout metadata and live mmap aliases: a dropped, duplicated or corrupted
message silently poisons ghost bricks instead of crashing.  The envelope
layer closes that hole.  When the fabric runs in *verified* mode, every
transmission carries:

* a per-edge **sequence number** (edge = ``(src, dst, tag)``), assigned in
  sender program order -- receivers require exactly ``delivered + 1``, so
  losses and reorders are detected, and duplicates are discarded;
* a **CRC32 checksum** of the payload at post time, recomputed by the
  receiver over the bytes that actually landed in its buffer -- wire
  corruption is detected before the ghost zone is trusted.

Validation failures raise the typed errors from
:mod:`repro.faults.errors` (re-exported here).  :class:`EnvelopeGuard` is
the protocol: the one object a verified fabric consults.  The unit it
seals, sifts and judges is a **cut** -- one rank's persistent request
(:class:`~repro.simmpi.fabric.BoundRequest`) -- so a guarded
exchange fires the same handle as a plain one and costs its bytes, not
its messages: a post is one vector increment of the cut's sequence
numbers and **one** checksum call over its send views (frozen at bind,
:class:`_Sealed`), a receive one copy-and-checksum call over the cut's
frozen table and one comparison of ``(sequence number, CRC, size)``
vectors (:meth:`EnvelopeGuard.accept_landed`).  Who makes those two
calls -- C functions folding the CRC by carry-less multiply, or
``zlib.crc32`` per view around the cut's copy -- is the pair of binders
the cut was handed; :func:`checksum` / :func:`seal` / :func:`verify`
stay the per-message path and the reference both agree with bit for bit.
Per-item Python is left for the items that are not the common case: a
transmission the injector touched, an item the vector verdict fails, a
re-fire.  Which items those are is decided from what arrived, never from
a setting.

The guard owns the per-edge state that makes a re-fired exchange
idempotent (DESIGN.md, "Why retried exchanges are idempotent"), in
per-rank tables indexed in cut order (:class:`_RankTable`):

* **post suppression** -- within one exchange *epoch* (set per rank by the
  driver), a second post of an item is a re-fire of data already on the
  wire and is absorbed;
* **duplicate discard** -- arrivals with ``seq <= delivered`` (or a second
  copy of the item just taken) are wire duplicates and are dropped in the
  receive that finds them;
* **replay** -- a re-fired receive skips every item already accepted in
  the current epoch: its bytes already sit in the persistent receive
  buffer;
* **retransmit** -- an item that failed goes back *pristine* (the bound
  send view itself) to the front of its source's FIFO in the receiver's
  port, and the typed
  error is raised once per receive, after every item it took was judged.

Only posts carrying an epoch are subject to injection, suppression and
replay.  Every halo exchange is bound cuts -- Shift's per-axis rounds
too -- so the per-message traffic is the collectives only: sealed and
verified, but as *detection* only (a mismatch raises the typed error
and nothing heals it), and never faulted.

Header fields are side-band metadata on the simulated wire: they never
count toward modelled bytes or modelled times, exactly as the artifact's
cost model ignores MPI's own envelope.  With verification disabled the
fabric takes its original zero-overhead path.
"""

from __future__ import annotations

import time
import zlib
from functools import partial
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.faults.errors import (
    ExchangeIntegrityError,
    ExchangeTimeoutError,
    FaultError,
)

__all__ = [
    "Envelope",
    "checksum",
    "seal",
    "verify",
    "EnvelopeGuard",
    "ExchangeIntegrityError",
    "ExchangeTimeoutError",
    "FaultError",
]


def checksum(buf: np.ndarray) -> int:
    """CRC32 over a NumPy buffer's raw bytes."""
    if not buf.flags.c_contiguous:
        buf = np.ascontiguousarray(buf)
    return zlib.crc32(buf)


class Envelope(NamedTuple):
    """Side-band header of one verified transmission."""

    seq: int
    crc: int
    nbytes: int


def seal(payload: np.ndarray, seq: int) -> Envelope:
    """Envelope of *payload* as it is at post time."""
    return Envelope(seq, checksum(payload), payload.nbytes)


def verify(env: Envelope, received: np.ndarray, expected_seq: int,
           edge: tuple) -> None:
    """Validate a delivery; raises :class:`ExchangeIntegrityError`.

    *received* is the receiver's buffer AFTER the wire copy -- checking
    the landed bytes (not the sender's copy) is what catches corruption
    introduced anywhere along the path.
    """
    _judge(env, checksum(received), expected_seq, edge)


def _judge(env: Envelope, crc: int, expected_seq: int, edge: tuple) -> None:
    """The one sequence / CRC comparison; *crc* is the CRC32 of the
    bytes that landed."""
    src, dst, tag = edge
    if env.seq != expected_seq:
        raise ExchangeIntegrityError(
            f"sequence gap on (src={src}, dst={dst}, tag={tag}):"
            f" got seq {env.seq}, expected {expected_seq}"
        )
    if crc != env.crc:
        raise ExchangeIntegrityError(
            f"checksum mismatch on (src={src}, dst={dst}, tag={tag},"
            f" seq={env.seq}): wire crc {crc:#010x} != sent {env.crc:#010x}"
        )


_Edge = Tuple[int, int, int]
_Key = Tuple[int, int]  # (src, wire tag): how a port names an arrival

#: A verified bound item on the wire: the plain item's ``(key, send
#: view)`` plus its envelope and what the receiver will see -- the view
#: itself (a *pristine* transmission), a corrupted copy beside it, or
#: ``None`` for a lost one.
_Item = Tuple[_Key, np.ndarray, Envelope, Optional[np.ndarray]]

#: ``Envelope._make`` without its Python frame (a cut stamps dozens).
_envelope = partial(tuple.__new__, Envelope)

#: How the tables store "no epoch" (epochs are step numbers).
_NO_EPOCH = np.iinfo(np.int64).min


def _code(epoch: Optional[int]) -> int:
    return _NO_EPOCH if epoch is None else epoch


class _RankTable:
    """One rank's half of the edge state, a row per edge it is an end of.

    ``seq[row]`` is the last sequence number the rank stamped on (sender
    half) or accepted from (receiver half) the edge, ``epoch[row]`` the
    epoch it did so in.  ``rows`` maps ``(peer, wire tag)`` to the row
    and only ever grows, so the state outlives the requests bound over
    it.  Touched by its rank's thread only -- bind, post and receive
    alike -- which is why growing the arrays needs no lock.
    """

    __slots__ = ("rows", "seq", "epoch")

    def __init__(self) -> None:
        self.rows: Dict[_Key, int] = {}
        self.seq = np.zeros(0, dtype=np.int64)
        self.epoch = np.zeros(0, dtype=np.int64)

    def index(self, edges: Sequence[_Key]) -> np.ndarray:
        """Rows of *edges*, in order; an edge not seen before gets one."""
        rows = self.rows
        for edge in edges:
            rows.setdefault(edge, len(rows))
        grown = len(rows) - self.seq.size
        if grown:
            self.seq = np.concatenate([self.seq, np.zeros(grown, np.int64)])
            self.epoch = np.concatenate(
                [self.epoch, np.full(grown, _NO_EPOCH, np.int64)]
            )
        return np.fromiter(map(rows.__getitem__, edges), np.intp, len(edges))

    def last(self, edge: _Key) -> int:
        """Last sequence number of *edge* (0: never used)."""
        row = self.rows.get(edge)
        return 0 if row is None else int(self.seq[row])


class _Sealed:
    """The send half of a cut as the guard stamps it: everything but the
    bytes frozen at bind, in cut order (``cut.groups``, flattened)."""

    __slots__ = ("table", "rows", "keys", "views", "dsts", "sizes",
                 "bounds", "crcs")

    def __init__(self, cut, table: _RankTable) -> None:
        items = [(dst, item) for dst, group, _n in cut.groups for item in group]
        self.table = table
        self.keys = [item[0] for _dst, item in items]
        self.views = [item[1] for _dst, item in items]
        self.dsts = [dst for dst, _item in items]
        self.sizes = [view.size for view in self.views]
        self.rows = table.index(
            [(dst, key[1]) for dst, key in zip(self.dsts, self.keys)]
        )
        # Per destination: where its items sit in the flattened order.
        self.bounds = []
        lo = 0
        for dst, group, _nbytes in cut.groups:
            self.bounds.append((dst, lo, lo + len(group)))
            lo += len(group)
        self.crcs = cut.crc_list(self.views)  # one call seals the side


class _Checked:
    """The receive half of a cut as the guard judges it, in ``cut.rmap``
    order.  ``copy_crcs`` -- the one call that lands every item and
    returns the CRCs of what landed -- exists once the peers' send views
    (``srcs``) have been seen; it is good for exactly those objects."""

    __slots__ = ("table", "rows", "keys", "recvs", "sizes", "place",
                 "srcs", "copy_crcs")

    def __init__(self, cut, table: _RankTable) -> None:
        self.table = table
        self.keys = list(cut.rmap)
        self.recvs = list(cut.rmap.values())
        self.sizes = [view.size for view in self.recvs]
        self.rows = table.index(self.keys)
        self.place = {key: i for i, key in enumerate(self.keys)}
        self.srcs: list = []
        self.copy_crcs: Optional[Callable[[], List[int]]] = None


class Sifted(NamedTuple):
    """A port's arrivals sorted for one receive (:meth:`EnvelopeGuard.sift`)."""

    taken: Dict[_Key, _Item]  # the fresh item of each owed key that has one
    rest: List[_Item]         # later epochs: stay queued, order kept
    stale: List[_Item]        # wire duplicates, to discard
    stray: Optional[_Key]     # an arrival no bound receive matches
    #: ``taken``'s items -- in the cut's order when that is one of every
    #: bound receive
    items: List[_Item]
    #: the next sequence number of every edge of the cut, when the
    #: common-case comparison found each of ``items`` to carry its own
    expect: Optional[np.ndarray] = None


class EnvelopeGuard:
    """Sequence/CRC protocol state of one verified fabric.

    The unit it seals and judges is a **cut** -- one rank's bound
    request -- with per-item work only for the items that are not the
    common case.  State is kept per rank, in tables indexed in cut order
    (:class:`_RankTable`; the edge -> row map lives here, not on a
    request, so it survives a channel rebuilt on the same fabric --
    ladder demotion).  No lock: a rank's sender table is touched only
    by that rank's thread and its receiver table likewise, so an edge's
    sender-side entry is written by its source rank's thread only and
    its receiver-side entry by its destination's.  Bound items and
    per-message entries wait in different port containers -- two wire
    streams, even on equal ``(src, dst, tag)`` -- so each numbers its
    edges separately.  *injector* is an optional
    :class:`~repro.faults.FaultInjector`: its plan faults item
    transmissions, and every healing step is recorded on it.
    """

    def __init__(self, injector=None) -> None:
        self.injector = injector
        self._senders: Dict[int, _RankTable] = {}    # src -> rows (dst, tag)
        self._receivers: Dict[int, _RankTable] = {}  # dst -> rows (src, tag)
        self._msg_sent: Dict[_Edge, int] = {}
        self._msg_delivered: Dict[_Edge, int] = {}

    def _record(self, kind: str, edge: _Edge, **fields) -> None:
        if self.injector is not None:
            src, dst, tag = edge
            self.injector.record(kind, src=src, dst=dst, tag=tag, **fields)

    @property
    def delivered(self) -> Dict[_Edge, Tuple[int, Optional[int]]]:
        """Item edge -> (last sequence number accepted, epoch it was
        accepted in), for every edge that has accepted anything."""
        out = {}
        for dst, table in self._receivers.items():
            for (src, tag), row in table.rows.items():
                seq, epoch = int(table.seq[row]), int(table.epoch[row])
                if seq:
                    out[(src, dst, tag)] = (
                        seq, None if epoch == _NO_EPOCH else epoch
                    )
        return out

    # -- bind: everything but the bytes ------------------------------------
    def bind(self, cut) -> None:
        """Freeze *cut*'s two halves in cut order (idempotent; a cut
        first fired without this is bound then)."""
        if cut.sealed is None:
            rank = cut.rank
            cut.sealed = _Sealed(
                cut, self._senders.setdefault(rank, _RankTable())
            )
            cut.checked = _Checked(
                cut, self._receivers.setdefault(rank, _RankTable())
            )

    # -- bound items: sender ---------------------------------------------
    def seal_items(self, cut, epoch: Optional[int]):
        """What a post of *cut* puts on the wire: ``(deposits, logical
        items, bytes)``, one deposit ``(dst, (cut.credit, wire items))``
        per destination.

        An item already posted in *epoch* is absorbed (nothing deposited,
        not counted).  The rest are stamped with their edges' next
        sequence numbers in one vector increment and with the CRC32 of
        their send views as they are now -- for the whole cut one call
        over the views frozen at bind -- and, for a post carrying an
        epoch, faulted item by item as the injector's plan says:
        ``delay`` sleeps, ``corrupt`` deposits a flipped copy beside the
        pristine view, ``drop`` a lost marker, ``duplicate`` the item
        twice.  Header and CRC are wall-clock only: modelled bytes and
        times never include them.
        """
        self.bind(cut)
        sealed = cut.sealed
        table = sealed.table
        code = _code(epoch)
        picked = None  # which items of the flattened cut go out: all of them
        rows = sealed.rows
        if epoch is not None:
            again = table.epoch[rows] == code
            if again.any():  # a re-fire: absorb what this epoch already posted
                posted = []
                for at, absorbed in enumerate(again.tolist()):
                    if absorbed:
                        key = sealed.keys[at]
                        self._record(
                            "resend_suppressed", (key[0], sealed.dsts[at], key[1])
                        )
                    else:
                        posted.append(at)
                if not posted:
                    return [], 0, 0
                picked, rows = posted, rows[~again]
        seqs = table.seq[rows] + 1
        table.seq[rows] = seqs
        table.epoch[rows] = code
        keys, views, sizes = sealed.keys, sealed.views, sealed.sizes
        if picked is None:
            crcs = sealed.crcs()
        else:  # zlib.crc32 per view serves any subset
            keys, views, sizes = (
                [column[at] for at in picked] for column in (keys, views, sizes)
            )
            crcs = map(checksum, views)
        envelopes = map(_envelope, zip(seqs.tolist(), crcs, sizes))
        wire = list(zip(keys, views, envelopes, views))
        injector = self.injector if epoch is not None else None
        credit = cut.credit
        if picked is None and injector is None:
            return (
                [(dst, (credit, wire[lo:hi])) for dst, lo, hi in sealed.bounds],
                cut.nsend, cut.send_bytes,
            )
        src = cut.rank
        out: Dict[int, list] = {}
        for at, item in zip(picked or range(len(wire)), wire):
            key, view, env, _seen = item
            dst = sealed.dsts[at]
            copies = 1
            if injector is not None:
                action = injector.on_post(src, dst, key[1], env.seq)
                if action == "delay":
                    time.sleep(injector.plan.delay_s)
                elif action == "corrupt":
                    seen = injector.corrupt(view, src, dst, key[1], env.seq)
                    item = (key, view, env, seen)
                elif action == "drop":
                    item = (key, view, env, None)
                elif action == "duplicate":
                    copies = 2
            out.setdefault(dst, []).extend([item] * copies)
        return (
            [(dst, (credit, items)) for dst, items in out.items()],
            len(wire), sum(sizes),
        )

    # -- bound items: receiver -------------------------------------------
    def owed(self, cut, epoch: Optional[int]):
        """The receive keys of *cut* not yet accepted in *epoch*.

        A re-fire skips the rest: their bytes already sit in the
        persistent receive buffer.  Without an epoch, and in an epoch
        that has accepted nothing yet (one vector compare), every
        receive is owed.
        """
        self.bind(cut)
        checked = cut.checked
        if epoch is None:
            return cut.rmap.keys()
        done = checked.table.epoch[checked.rows] == epoch
        if not done.any():
            return cut.rmap.keys()
        owed = set()
        for key, replayed in zip(checked.keys, done.tolist()):
            if replayed:
                self._record("replayed", (key[0], cut.rank, key[1]))
            else:
                owed.add(key)
        return owed

    def sift(self, cut, arrivals: List[_Item], owed) -> Sifted:
        """Sort *cut*'s rank's *arrivals* for a receive that still owes
        *owed*.

        The common case is one comparison each of counts, key sets and
        sequence vectors: exactly one arrival per bound receive, each
        the next in sequence on its edge -- everything is taken.
        Otherwise, per arrival: the first fresh item of an owed key is
        taken; a sequence number already accepted, or a second copy of
        the item just taken, is a wire duplicate; anything else of a
        bound key belongs to a later epoch -- a peer that finished this
        one may already have posted the next -- and stays queued in
        order.  No side effects: the caller may sift again after a wait.
        """
        checked = cut.checked
        table = checked.table
        keys = cut.rmap
        if len(arrivals) == len(owed) == len(keys):
            taken = {item[0]: item for item in arrivals}
            try:
                items = list(map(taken.__getitem__, keys))  # the cut's order
            except KeyError:
                items = ()  # a stray key, or two of one: sorted out below
            expect = table.seq[checked.rows] + 1
            if len(taken) == len(items) and (
                [item[2][0] for item in items] == expect.tolist()
            ):
                return Sifted(taken, [], [], None, items, expect)
        taken: Dict[_Key, _Item] = {}
        rest: List[_Item] = []
        stale: List[_Item] = []
        stray = None
        for item in arrivals:
            key = item[0]
            seq = item[2].seq
            if key not in keys:
                stray = stray or key
                rest.append(item)
            elif seq <= table.last(key):
                stale.append(item)  # already accepted
            elif key not in owed:
                rest.append(item)  # accepted this epoch, so: the next one's
            elif key not in taken:
                taken[key] = item
            elif seq > taken[key][2].seq:
                rest.append(item)  # a later epoch of an owed edge
            else:
                stale.append(item)  # second copy of the item just taken
        if len(taken) == len(keys):  # every bound receive: the cut's order
            return Sifted(taken, rest, stale, stray, [taken[key] for key in keys])
        return Sifted(taken, rest, stale, stray, list(taken.values()))

    def discard(self, dst: int, stale: List[_Item]) -> None:
        """Record the wire duplicates a receive dropped."""
        for key, _view, env, _wire in stale:
            self._record("duplicate_discarded", (key[0], dst, key[1]), seq=env.seq)

    def accept_landed(self, cut, at: Optional[Sequence[int]],
                      items: Sequence[_Item], crcs: Sequence[int],
                      epoch: Optional[int], expect=None) -> List[int]:
        """The vector verdict over pristine *items* -- at positions *at*
        of the cut (``None``: all of it, in order) -- whose bytes landed
        with checksums *crcs*: one comparison of ``(sequence number,
        CRC, size)`` per item against ``(last accepted + 1, landed CRC,
        receive size)``.  With *expect* -- the next sequence numbers the
        sift already found every item to carry (:attr:`Sifted.expect`)
        -- the CRCs alone are left to compare (the sizes are the landing
        call's guard).  Records the delivery of every item that passes;
        returns the indices into *items* of those that do not, for
        :meth:`accept` to name what is wrong with each.
        """
        checked = cut.checked
        table = checked.table
        rows = checked.rows if at is None else checked.rows[at]
        if expect is not None:
            got, want = [item[2][1] for item in items], crcs
        else:
            sizes = checked.sizes
            if at is not None:
                sizes = [sizes[i] for i in at]
            expect = table.seq[rows] + 1
            got = [item[2] for item in items]
            want = list(zip(expect.tolist(), crcs, sizes))
        failed = []
        if got != want:
            failed = [i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]]
            passed = np.ones(len(got), dtype=bool)
            passed[failed] = False
            rows, expect = rows[passed], expect[passed]
        table.seq[rows] = expect
        table.epoch[rows] = _code(epoch)
        return failed

    def accept(self, cut, item: _Item, landed: Optional[int],
               epoch: Optional[int]) -> None:
        """Judge one *item* by the CRC32 of the bytes that *landed* in
        its receive buffer (``None``: the transmission was lost on the
        wire); raises the typed error, or records the delivery."""
        key, _view, env, _wire = item
        edge = (key[0], cut.rank, key[1])
        if landed is None:
            raise ExchangeTimeoutError(
                f"message (src={edge[0]}, dst={edge[1]}, tag={edge[2]},"
                f" seq={env.seq}) lost on the wire; retransmit queued"
            )
        table = cut.checked.table
        row = table.rows[key]
        _judge(env, landed, int(table.seq[row]) + 1, edge)
        table.seq[row] = env.seq
        table.epoch[row] = _code(epoch)

    def pristine(self, dst: int, item: _Item) -> _Item:
        """The retransmission of a failed *item*: the bound send view
        itself, which cannot have changed -- its sender writes it next
        only once this very item was consumed."""
        key, view, env, _wire = item
        self._record("retransmit", (key[0], dst, key[1]), seq=env.seq)
        return (key, view, env, view)

    # -- per-message entries: detection only ------------------------------
    def seal_message(self, edge: _Edge, payload: np.ndarray) -> Envelope:
        seq = self._msg_sent[edge] = self._msg_sent.get(edge, 0) + 1
        return seal(payload, seq)

    def accept_message(self, edge: _Edge, env: Envelope,
                       landed: np.ndarray) -> None:
        verify(env, landed, self._msg_delivered.get(edge, 0) + 1, edge)
        self._msg_delivered[edge] = env.seq
