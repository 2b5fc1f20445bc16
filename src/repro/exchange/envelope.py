"""Message envelopes: sequence numbers + checksums for verified exchange.

The pack-free schemes move correctness risk out of copy loops and into
layout metadata and live mmap aliases: a dropped, duplicated or corrupted
message silently poisons ghost bricks instead of crashing.  The envelope
layer closes that hole.  When the fabric runs in *verified* mode, every
message carries:

* a per-edge **sequence number** (edge = ``(src, dst, tag)``), assigned in
  sender program order -- receivers require exactly ``delivered + 1``, so
  losses and reorders are detected, and duplicates are discarded;
* a **CRC32 checksum** of the frozen payload, recomputed by the receiver
  over the bytes that actually landed in its buffer -- wire corruption is
  detected before the ghost zone is trusted.

Validation failures raise the typed errors from
:mod:`repro.faults.errors` (re-exported here), and the fabric queues a
pristine retransmit *before* raising, so the driver's bounded
retry-with-backoff heals them.  :class:`EnvelopeGuard` is the protocol:
the one object a verified fabric consults from its per-message
``post_send`` / ``complete_recv``.  It owns the per-edge state that
makes whole-exchange retries idempotent (see DESIGN.md, "Why retried
exchanges are idempotent"):

* **post suppression** -- within one exchange *epoch* (set per rank by the
  driver), a second post on the same edge is a retransmit of data already
  on the wire and is absorbed; sends are frozen copies taken at post time;
* **duplicate discard** -- deliveries with ``seq <= delivered`` are wire
  duplicates and are dropped;
* **delivery replay** -- a re-posted receive for an edge already delivered
  in the current epoch is served from the cached payload.

Only posts carrying an epoch are subject to injection, suppression and
replay, so collective/control traffic stays on plain verified delivery.

Header fields are side-band metadata on the simulated wire: they never
count toward modelled bytes or modelled times, exactly as the artifact's
cost model ignores MPI's own envelope.  With verification disabled the
fabric takes its original zero-overhead path.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

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
    """CRC32 over a contiguous NumPy buffer's raw bytes."""
    return zlib.crc32(np.ascontiguousarray(buf).data)


@dataclass(frozen=True)
class Envelope:
    """Side-band header of one verified message."""

    seq: int
    crc: int
    nbytes: int


def seal(payload: np.ndarray, seq: int) -> Envelope:
    """Envelope for a frozen (already copied, contiguous) payload."""
    return Envelope(seq=seq, crc=checksum(payload), nbytes=payload.nbytes)


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


class EnvelopeGuard:
    """Sequence/CRC protocol state of one verified fabric.

    The fabric hands it per-message entries (``buf``, ``wire``, ``env``,
    ``lost``, ``src``/``dst``/``tag``); *lock* is the fabric's reentrant
    lock, taken here around every read or write of the per-edge tables.
    *injector* is an optional :class:`~repro.faults.FaultInjector`: its
    plan faults transmissions, and every healing step is recorded on it.
    """

    def __init__(self, lock, injector=None) -> None:
        self._lock = lock
        self.injector = injector
        self._seq: Dict[_Edge, int] = {}           # last sequence number sent
        self._posted_epoch: Dict[_Edge, int] = {}  # epoch of the last post
        self.delivered: Dict[_Edge, int] = {}      # last sequence number accepted
        self._replay: Dict[_Edge, Tuple[int, np.ndarray]] = {}

    def _record(self, kind: str, edge: _Edge, **fields) -> None:
        if self.injector is not None:
            src, dst, tag = edge
            self.injector.record(kind, src=src, dst=dst, tag=tag, **fields)

    # -- sender ----------------------------------------------------------
    def seal_post(self, entry, epoch: Optional[int]) -> int:
        """Stamp *entry* for the wire; returns how many copies to queue.

        0: a re-post within *epoch*, absorbed (the payload is already on
        the wire or delivered).  Otherwise the payload is frozen -- the
        wire carries this epoch's data even if brick storage mutates
        before delivery, and the checksum stays valid -- sealed, and, for
        a post carrying an epoch, faulted as the injector's plan says
        (2: an injected duplicate).  Header and copy are wall-clock only:
        modelled bytes and times never include them.
        """
        edge = (entry.src, entry.dst, entry.tag)
        with self._lock:
            if epoch is not None and self._posted_epoch.get(edge) == epoch:
                self._record("resend_suppressed", edge)
                return 0
            seq = self._seq[edge] = self._seq.get(edge, 0) + 1
            if epoch is not None:
                self._posted_epoch[edge] = epoch
        payload = entry.buf.copy()
        entry.buf = entry.wire = payload
        entry.env = seal(payload, seq)
        injector = self.injector
        if injector is not None and epoch is not None:
            action = injector.on_post(*edge, seq)
            if action == "delay":
                time.sleep(injector.plan.delay_s)
            elif action == "corrupt":
                entry.wire = injector.corrupt(payload, *edge, seq)
            elif action == "drop":
                entry.lost = True
            elif action == "duplicate":
                return 2
        return 1

    # -- receiver --------------------------------------------------------
    def replay(self, edge: _Edge, epoch: Optional[int]) -> Optional[np.ndarray]:
        """Payload of *edge* if it was already delivered in *epoch*."""
        with self._lock:
            cached = self._replay.get(edge)
        if epoch is None or cached is None or cached[0] != epoch:
            return None
        self._record("replayed", edge)
        return cached[1]

    def is_duplicate(self, edge: _Edge, entry) -> bool:
        """Is a dequeued entry a wire duplicate (injected, or a stale
        retransmit) of something already accepted?"""
        with self._lock:
            duplicate = entry.env.seq <= self.delivered.get(edge, 0)
        if duplicate:
            self._record("duplicate_discarded", edge, seq=entry.env.seq)
        return duplicate

    def accept(self, edge: _Edge, entry, landed: Optional[np.ndarray],
               epoch: Optional[int]) -> None:
        """Judge a dequeued entry by the bytes that *landed* in the
        receive buffer (None: the transmission was lost on the wire).

        On a fault the entry is made pristine again -- the sender's
        retransmission, read straight from the frozen payload, which the
        caller re-queues -- and the typed error raised.  Otherwise the
        delivery is recorded, with the payload cached by reference for
        replays (no extra copy).
        """
        env = entry.env
        with self._lock:
            expected = self.delivered.get(edge, 0) + 1
        try:
            if landed is None:
                src, dst, tag = edge
                raise ExchangeTimeoutError(
                    f"message (src={src}, dst={dst}, tag={tag},"
                    f" seq={env.seq}) lost on the wire; retransmit queued"
                )
            verify(env, landed, expected, edge)
        except FaultError:
            entry.wire, entry.lost = entry.buf, False
            self._record("retransmit", edge, seq=env.seq)
            raise
        with self._lock:
            self.delivered[edge] = env.seq
            if epoch is not None:
                self._replay[edge] = (epoch, entry.buf)
