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
seals and judges is a **cut** -- one rank's persistent request
(:class:`~repro.simmpi.fabric.BoundRequest`) -- so a clean verified
exchange is the plain bound exchange plus two calls and two compares:

* a **post** stamps the cut's edges with their next sequence numbers in
  one vector increment, seals every send view in **one** checksum call
  (frozen at bind, :class:`_Sealed`), and queues the cut's prebuilt
  plain deposits -- the very objects a plain post queues -- beside one
  :class:`CutEnvelope` (those two vectors, packed) on the cut's credit;
* a **receive** takes its head deposits as the plain path does, under
  the same identity check against the deposits its table was frozen
  from, lands them in **one** copy-and-checksum call over that table,
  and compares the landed CRCs with the sent ones in one ``bytes ==``
  and the sequence vector with ``last accepted + 1`` in one more
  (:meth:`EnvelopeGuard.accept_cut`).

Who makes the two calls -- C functions folding the CRC by carry-less
multiply, or ``zlib.crc32`` per view around the cut's copy -- is the
pair of binders the cut was handed; :func:`checksum` / :func:`seal` /
:func:`verify` stay the per-message path and the reference both agree
with bit for bit.  Everything else expands to the per-item path, where
each wire item carries its own :class:`Envelope`: a re-fire, a
transmission the injector touched (those posts build per-item deposits
themselves), a wire duplicate, a later epoch queued ahead, or a cut
whose vector compare fails (its plain deposits are expanded from their
envelope, :meth:`EnvelopeGuard.expand`).  That path still moves and
checks bytes through the same two binders -- a post seals the items it
posts in one ``crc_list`` call, a receive lands every item that arrived,
the injector's corrupted copy included, in one ``copy_crc_list`` call
-- and then judges each taken item once (:meth:`EnvelopeGuard.accept`).
Which path runs is decided from what arrived, never from a setting.

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
replay.  Every halo exchange is one bound cut, so the per-message
traffic is the collectives only: sealed and
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
    "CutEnvelope",
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

#: A verified bound item on the per-item path: the plain item's ``(key,
#: send view)`` plus its envelope and what the receiver will see -- the
#: view itself (a *pristine* transmission), a corrupted copy beside it,
#: or ``None`` for a lost one.
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
    bytes frozen at bind, in cut order (``cut.groups``, flattened -- the
    order of ``cut.deposits``' items)."""

    __slots__ = ("table", "rows", "keys", "views", "dsts", "sizes", "crcs")

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
        self.crcs = cut.crc_list(self.views)  # one call seals the side


class CutEnvelope(NamedTuple):
    """The side-band header of one clean post of a cut, for all of its
    items at once, in cut order (:class:`_Sealed`): the sequence numbers
    it stamped (packed ``int64``) and the seal call's CRC32s (packed
    ``uint32``).  It rides on the cut's credit beside the plain deposits
    (:class:`~repro.simmpi.fabric._Credit`); ``sealed`` says where a
    deposit's items sit in it (the first item bound for its
    destination)."""

    seqs: bytes
    crcs: bytes
    sealed: _Sealed


class _Checked:
    """The receive half of a cut as the guard judges it, in ``cut.rmap``
    order; and, once the fabric froze the cut's copy-and-check table over
    a set of deposits (:meth:`EnvelopeGuard.freeze`), the same in the
    order of their items: ``order`` the rows, ``spans`` per deposit its
    credit and its slices of that credit's :class:`CutEnvelope`."""

    __slots__ = ("table", "rows", "keys", "place", "order", "spans")

    def __init__(self, cut, table: _RankTable) -> None:
        self.table = table
        self.keys = list(cut.rmap)
        self.rows = table.index(self.keys)
        self.place = {key: i for i, key in enumerate(self.keys)}
        self.order = self.rows
        self.spans: list = []


class Sifted(NamedTuple):
    """A port's arrivals sorted for one receive (:meth:`EnvelopeGuard.sift`)."""

    taken: Dict[_Key, _Item]  # the fresh item of each owed key that has one
    rest: List[_Item]         # later epochs: stay queued, order kept
    stale: List[_Item]        # wire duplicates, to discard
    stray: Optional[_Key]     # an arrival no bound receive matches


class EnvelopeGuard:
    """Sequence/CRC protocol state of one verified fabric.

    The unit it seals and judges is a **cut** -- one rank's bound
    request -- with per-item work only for the cuts that are not the
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
        items, bytes)``, one deposit ``(dst, (cut.credit, items))`` per
        destination.

        An item already posted in *epoch* is absorbed (nothing deposited,
        not counted).  The rest are stamped with their edges' next
        sequence numbers in one vector increment and sealed with the
        CRC32 of their send views as they are now -- for the whole cut
        one call over the views frozen at bind -- and, for a post
        carrying an epoch, faulted item by item as the injector's plan
        says: ``delay`` sleeps, ``corrupt`` deposits a flipped copy
        beside the pristine view, ``drop`` a lost marker, ``duplicate``
        the item twice.

        The common case -- the whole cut, nothing corrupted, dropped or
        duplicated, and none of the cut's items still on the wire -- is
        the plain post: ``cut.deposits`` themselves, with the cut's one
        :class:`CutEnvelope` on its credit.  Any other post deposits
        per-item wire items, each with its :class:`Envelope`.  Header
        and CRC are wall-clock only: modelled bytes and times never
        include them.
        """
        self.bind(cut)
        sealed = cut.sealed
        table = sealed.table
        code = _code(epoch)
        picked = range(len(sealed.keys))  # which items go out: all of them
        rows = sealed.rows
        if epoch is not None:
            again = table.epoch.take(rows) == code
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
        seqs = table.seq.take(rows) + 1
        table.seq[rows] = seqs
        table.epoch[rows] = code
        src = cut.rank
        injector = self.injector if epoch is not None else None
        faults = {}  # position in the cut -> what the injector does to it
        if injector is not None:
            for at, seq in zip(picked, seqs.tolist()):
                action = injector.on_post(
                    src, sealed.dsts[at], sealed.keys[at][1], seq
                )
                if action == "delay":
                    time.sleep(injector.plan.delay_s)
                elif action is not None:
                    faults[at] = action
        whole = len(picked) == len(sealed.keys)
        credit = cut.credit
        if whole and not faults and not credit.outstanding:
            # Unlocked read: only this thread raises the count, so a zero
            # seen here is final -- no receiver still reads the envelope.
            credit.envelope = CutEnvelope(seqs.tobytes(), sealed.crcs(), sealed)
            return cut.deposits, cut.nsend, cut.send_bytes
        if whole:
            packed = sealed.crcs()
        else:  # a subset: the cut's own binder, over a table of its own
            packed = cut.crc_list([sealed.views[at] for at in picked])()
        crcs = np.frombuffer(packed, np.uint32).tolist()
        out: Dict[int, list] = {}
        for at, seq, crc in zip(picked, seqs.tolist(), crcs):
            key, view, dst = sealed.keys[at], sealed.views[at], sealed.dsts[at]
            env = _envelope((seq, crc, sealed.sizes[at]))
            item = (key, view, env, view)
            copies = 1
            action = faults.get(at)
            if action == "corrupt":
                item = (key, view, env, injector.corrupt(view, src, dst, key[1], seq))
            elif action == "drop":
                item = (key, view, env, None)
            elif action == "duplicate":
                copies = 2
            out.setdefault(dst, []).extend([item] * copies)
        return (
            [(dst, (credit, items)) for dst, items in out.items()],
            len(picked), sum(sealed.sizes[at] for at in picked),
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
        done = checked.table.epoch.take(checked.rows) == epoch
        if not done.any():
            return cut.rmap.keys()
        owed = set()
        for key, replayed in zip(checked.keys, done.tolist()):
            if replayed:
                self._record("replayed", (key[0], cut.rank, key[1]))
            else:
                owed.add(key)
        return owed

    def expand(self, dst: int, deposit):
        """*deposit* -- ``(credit, items)`` queued for rank *dst* -- with
        per-item wire items: a clean post's plain deposit gets each item's
        :class:`Envelope` from its cut's :class:`CutEnvelope`; any other
        already has them."""
        credit, items = deposit
        if not items or len(items[0]) != 2:
            return deposit
        seqs, crcs, sealed = credit.envelope
        lo, n = sealed.dsts.index(dst), len(items)
        seq = np.frombuffer(seqs, np.int64, n, 8 * lo).tolist()
        crc = np.frombuffer(crcs, np.uint32, n, 4 * lo).tolist()
        return credit, [
            (key, view, _envelope((s, c, view.size)), view)
            for (key, view), s, c in zip(items, seq, crc)
        ]

    def sift(self, cut, arrivals: List[_Item], owed) -> Sifted:
        """Sort *cut*'s rank's *arrivals* (per-item wire items,
        :meth:`expand`) for a receive that still owes *owed*.

        Per arrival: the first fresh item of an owed key is taken; a
        sequence number already accepted, or a second copy of the item
        just taken, is a wire duplicate; anything else of a bound key
        belongs to a later epoch -- a peer that finished this one may
        already have posted the next -- and stays queued in order.  No
        side effects: the caller may sift again after a wait.
        """
        table = cut.checked.table
        keys = cut.rmap
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
        return Sifted(taken, rest, stale, stray)

    def discard(self, dst: int, stale: List[_Item]) -> None:
        """Record the wire duplicates a receive dropped."""
        for key, _view, env, _wire in stale:
            self._record("duplicate_discarded", (key[0], dst, key[1]), seq=env.seq)

    def freeze(self, cut, taken: list) -> None:
        """Order *cut*'s receive half as the fabric just froze its
        copy-and-check table: over the *taken* deposits -- clean posts'
        plain ones, one item per bound receive -- in the order of their
        items."""
        checked = cut.checked
        place, dst = checked.place, cut.rank
        checked.order = checked.rows[
            [place[item[0]] for _credit, items in taken for item in items]
        ]
        spans = []
        for credit, items in taken:
            lo = credit.envelope.sealed.dsts.index(dst)
            hi = lo + len(items)
            spans.append((credit, slice(8 * lo, 8 * hi), slice(4 * lo, 4 * hi)))
        checked.spans = spans

    def accept_cut(self, cut, land: Callable[[], bytes],
                   epoch: Optional[int]) -> bool:
        """The common-case receive of *cut*, whose head deposits are the
        very ones :meth:`freeze` saw: the senders' stamped sequence
        numbers against ``last accepted + 1`` in one compare; then
        *land* -- the one copy-and-check call -- and the CRCs of what
        landed against the sent ones in one ``bytes ==``.  Records the
        delivery of the whole cut and returns ``True``; or, on either
        mismatch, changes no state and returns ``False`` (nothing has
        landed if the sequence numbers differ) -- the per-item path then
        takes the same deposits and names what is wrong."""
        checked = cut.checked
        table, rows, spans = checked.table, checked.order, checked.spans
        expect = table.seq.take(rows) + 1
        if expect.tobytes() != b"".join(
            [credit.envelope[0][seqs] for credit, seqs, _crcs in spans]
        ):
            return False
        if land() != b"".join(
            [credit.envelope[1][crcs] for credit, _seqs, crcs in spans]
        ):
            return False
        table.seq[rows] = expect
        table.epoch[rows] = _code(epoch)
        return True

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
