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
the protocol: the one object a verified fabric consults.  It works **per
bound item** -- the unit a persistent request
(:class:`~repro.simmpi.fabric.BoundRequest`) puts on the wire -- so a
guarded exchange fires the same handle as a plain one, and it owns the
per-edge state that makes a re-fired exchange idempotent (DESIGN.md,
"Why retried exchanges are idempotent"):

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
  send view itself) to the front of the receiver's port, and the typed
  error is raised once per receive, after every item it took was judged.

Only posts carrying an epoch are subject to injection, suppression and
replay.  Per-message traffic (collectives, Shift's barrier-separated
rounds) is sealed and verified too, but that is *detection* only: a
mismatch raises the typed error and nothing heals it.

Header fields are side-band metadata on the simulated wire: they never
count toward modelled bytes or modelled times, exactly as the artifact's
cost model ignores MPI's own envelope.  With verification disabled the
fabric takes its original zero-overhead path.
"""

from __future__ import annotations

import time
import zlib
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

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
    src, dst, tag = edge
    if env.seq != expected_seq:
        raise ExchangeIntegrityError(
            f"sequence gap on (src={src}, dst={dst}, tag={tag}):"
            f" got seq {env.seq}, expected {expected_seq}"
        )
    crc = checksum(received)
    if crc != env.crc:
        raise ExchangeIntegrityError(
            f"checksum mismatch on (src={src}, dst={dst}, tag={tag},"
            f" seq={env.seq}): wire crc {crc:#010x} != sent {env.crc:#010x}"
        )


_Edge = Tuple[int, int, int]
_Key = Tuple[int, int]  # (src, wire tag): how a port names an arrival

#: A verified bound item on the wire: the plain item's ``(key, send
#: view)`` plus its envelope and what the receiver will see -- the view
#: itself, a corrupted copy beside it, or ``None`` for a lost transmission.
_Item = Tuple[_Key, np.ndarray, Envelope, Optional[np.ndarray]]

_NEVER = (0, None)  # (last sequence number, epoch) of an edge not yet used


class Sifted(NamedTuple):
    """A port's arrivals sorted for one receive (:meth:`EnvelopeGuard.sift`)."""

    taken: Dict[_Key, _Item]  # the fresh item of each owed key that has one
    rest: List[_Item]         # later epochs: stay queued, order kept
    stale: List[_Item]        # wire duplicates, to discard
    stray: Optional[_Key]     # an arrival no bound receive matches


class EnvelopeGuard:
    """Sequence/CRC protocol state of one verified fabric.

    Keyed by edge and kept here, not on a request, so it survives a
    channel rebuilt on the same fabric (ladder demotion); partitions are
    edges of their own through ``partition_tag``.  No lock: an edge's
    sender-side entry is touched only by its source rank's thread and its
    receiver-side entry only by its destination's.  Bound items and
    per-message entries wait in different port containers -- two wire
    streams, even on equal ``(src, dst, tag)`` -- so each numbers its
    edges separately.  *injector* is an optional
    :class:`~repro.faults.FaultInjector`: its plan faults item
    transmissions, and every healing step is recorded on it.
    """

    def __init__(self, injector=None) -> None:
        self.injector = injector
        self._sent: Dict[_Edge, Tuple[int, Optional[int]]] = {}
        #: item edge -> (last sequence number accepted, epoch it was accepted in)
        self.delivered: Dict[_Edge, Tuple[int, Optional[int]]] = {}
        self._msg_sent: Dict[_Edge, int] = {}
        self._msg_delivered: Dict[_Edge, int] = {}

    def _record(self, kind: str, edge: _Edge, **fields) -> None:
        if self.injector is not None:
            src, dst, tag = edge
            self.injector.record(kind, src=src, dst=dst, tag=tag, **fields)

    # -- bound items: sender ---------------------------------------------
    def seal_items(self, src: int, groups, epoch: Optional[int]):
        """What a post of *groups* (``(dst, plain items, nbytes)``) puts on
        the wire: ``(wire groups, logical items, bytes)``.

        An item already posted in *epoch* is absorbed (nothing deposited,
        not counted).  Every other one is stamped with its edge's next
        sequence number and the CRC32 of its send view as it is now, and,
        for a post carrying an epoch, faulted as the injector's plan
        says: ``delay`` sleeps, ``corrupt`` deposits a flipped copy beside
        the pristine view, ``drop`` a lost marker, ``duplicate`` the item
        twice.  Header and CRC are wall-clock only: modelled bytes and
        times never include them.
        """
        sent = self._sent
        injector = self.injector if epoch is not None else None
        out = []
        n = nbytes = 0
        for dst, items, _nbytes in groups:
            wire = []
            posted_bytes = 0
            for key, view in items:
                tag = key[1]
                edge = (src, dst, tag)
                seq, posted = sent.get(edge, _NEVER)
                if posted == epoch and epoch is not None:
                    self._record("resend_suppressed", edge)
                    continue
                seq += 1
                sent[edge] = (seq, epoch)
                seen, copies = view, 1
                if injector is not None:
                    action = injector.on_post(src, dst, tag, seq)
                    if action == "delay":
                        time.sleep(injector.plan.delay_s)
                    elif action == "corrupt":
                        seen = injector.corrupt(view, src, dst, tag, seq)
                    elif action == "drop":
                        seen = None
                    elif action == "duplicate":
                        copies = 2
                wire.extend([(key, view, seal(view, seq), seen)] * copies)
                n += 1
                posted_bytes += view.size
            if wire:
                out.append((dst, wire, posted_bytes))
                nbytes += posted_bytes
        return out, n, nbytes

    # -- bound items: receiver -------------------------------------------
    def owed(self, dst: int, keys: Iterable[_Key], epoch: Optional[int]) -> set:
        """The receives of *keys* not yet accepted in *epoch*.

        A re-fire skips the rest: their bytes already sit in the
        persistent receive buffer.  Without an epoch every receive is owed.
        """
        if epoch is None:
            return set(keys)
        delivered = self.delivered
        owed = set()
        for key in keys:
            edge = (key[0], dst, key[1])
            if delivered.get(edge, _NEVER)[1] == epoch:
                self._record("replayed", edge)
            else:
                owed.add(key)
        return owed

    def fresh(self, dst: int, item: _Item) -> bool:
        """Is *item* a transmission *dst* has not accepted yet?"""
        key = item[0]
        return item[2].seq > self.delivered.get((key[0], dst, key[1]), _NEVER)[0]

    def sift(self, dst: int, arrivals: List[_Item], owed: set, keys) -> Sifted:
        """Sort *dst*'s *arrivals* for a receive that still owes *owed*.

        Per arrival: the first fresh item of an owed key is taken; a
        sequence number already accepted, or a second copy of the item
        just taken, is a wire duplicate; anything else of a bound key
        (*keys*) belongs to a later epoch -- a peer that finished this
        one may already have posted the next -- and stays queued in
        order.  No side effects: the caller may sift again after a wait.
        """
        taken: Dict[_Key, _Item] = {}
        rest: List[_Item] = []
        stale: List[_Item] = []
        stray = None
        delivered = self.delivered
        for item in arrivals:
            key = item[0]
            seq = item[2].seq
            if key not in keys:
                stray = stray or key
                rest.append(item)
            elif seq <= delivered.get((key[0], dst, key[1]), _NEVER)[0]:
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

    def accept(self, dst: int, item: _Item, landed: Optional[np.ndarray],
               epoch: Optional[int]) -> None:
        """Judge *item* by the bytes that *landed* in the receive buffer
        (``None``: the transmission was lost on the wire); raises the
        typed error, or records the delivery."""
        key, _view, env, _wire = item
        edge = (key[0], dst, key[1])
        if landed is None:
            raise ExchangeTimeoutError(
                f"message (src={edge[0]}, dst={dst}, tag={edge[2]},"
                f" seq={env.seq}) lost on the wire; retransmit queued"
            )
        verify(env, landed, self.delivered.get(edge, _NEVER)[0] + 1, edge)
        self.delivered[edge] = (env.seq, epoch)

    def pristine(self, dst: int, item: _Item) -> _Item:
        """The retransmission of a failed *item*: the bound send view
        itself, which cannot have changed -- its sender is still waiting
        for this very item to be consumed."""
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
