"""Runtime side of fault injection: the injector and armable fault points.

:class:`FaultInjector` binds a :class:`~repro.faults.plan.FaultPlan` to a
running fabric.  The fabric's envelope guard consults it for every bound
item it puts on the wire; the driver consults it at step boundaries
(scheduled crashes, degradation events).
Every injected *and* healed event is recorded twice -- in an in-memory
event log (the chaos report's source of truth, and through
:meth:`FaultInjector.summary` the run's ``faults.*`` counters) and as a
tracer span -- so a traced chaos run shows exactly where the wire
misbehaved.

:data:`VMEM_FAULTS` is a set of *thread-locally* armable failure sites
threaded through ``vmem/realmap.py``: arming
``"view_map_chunk"`` makes the next stitched-view construction on this
thread fail mid-stitch with ``OSError``, exercising the real cleanup
paths (munmap of the reserved span, memfd close).  Thread-local arming
matters because simulated ranks are threads: injecting a mapping failure
into rank 1 must not break rank 0's concurrent ``make_view``.
"""

from __future__ import annotations

import errno
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults.plan import FaultPlan
from repro.obs import TRACER as _TRACER

__all__ = ["FaultInjector", "FaultEvent", "FaultPoints", "VMEM_FAULTS"]


@dataclass(frozen=True)
class FaultEvent:
    """One injected or healed event, fully identified for reproducibility."""

    kind: str
    src: int = -1
    dst: int = -1
    tag: int = -1
    seq: int = -1
    step: int = -1

    def key(self) -> Tuple:
        return (self.kind, self.src, self.dst, self.tag, self.seq, self.step)


class FaultPoints:
    """Named failure sites, armed per thread, consumed per trigger."""

    def __init__(self) -> None:
        self._tls = threading.local()

    def arm(self, site: str, count: int = 1, skip: int = 0) -> None:
        """Make the next *count* triggers of *site* fail on this thread,
        after letting *skip* triggers through (e.g. ``skip=1`` fails a
        stitched view on its second chunk -- mid-stitch)."""
        sites = getattr(self._tls, "sites", None)
        if sites is None:
            sites = {}
            self._tls.sites = sites
        prev_skip, prev_count = sites.get(site, (0, 0))
        sites[site] = (prev_skip + int(skip), prev_count + int(count))

    def disarm(self, site: Optional[str] = None) -> None:
        sites = getattr(self._tls, "sites", None)
        if sites is None:
            return
        if site is None:
            sites.clear()
        else:
            sites.pop(site, None)

    @contextmanager
    def armed(self, site: str, count: int = 1, skip: int = 0):
        self.arm(site, count, skip)
        try:
            yield self
        finally:
            self.disarm(site)

    def check(self, site: str) -> None:
        """Raise ``OSError`` if *site* is armed on this thread (and use up
        one charge).  Disabled cost is one ``getattr`` + truthiness test."""
        sites = getattr(self._tls, "sites", None)
        if not sites:
            return
        entry = sites.get(site)
        if entry is None:
            return
        skip, count = entry
        if skip > 0:
            sites[site] = (skip - 1, count)
            return
        if count <= 0:
            return
        if count == 1:
            del sites[site]
        else:
            sites[site] = (0, count - 1)
        raise OSError(errno.ENOMEM, f"injected fault at vmem site {site!r}")


#: Process-wide vmem fault points; the vmem modules bind this object.
VMEM_FAULTS = FaultPoints()


class FaultInjector:
    """One run's live injector: plan + event log + tracing."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._events: List[FaultEvent] = []
        self._crashed: set = set()
        self._died: set = set()
        #: When True (set by the checkpoint/restart driver) a scheduled
        #: crash fires exactly once: the relaunched world sees the same
        #: ``crash_due`` query again and survives it.
        self.survivable = False
        #: Set by the elastic driver after a reshape: the dead node is
        #: excluded from the new world and ranks were renumbered, so the
        #: plan's old-world death schedule no longer applies.
        self.deaths_disabled = False

    # -- recording -------------------------------------------------------
    def record(self, kind: str, src: int = -1, dst: int = -1, tag: int = -1,
               seq: int = -1, step: int = -1) -> None:
        event = FaultEvent(kind, src, dst, tag, seq, step)
        with self._lock:
            self._events.append(event)
        rank = src if src >= 0 else (dst if dst >= 0 else None)
        with _TRACER.span(f"fault.{kind}", rank=rank, src=src, dst=dst,
                          tag=tag, seq=seq, step=step):
            pass

    # -- fabric hooks ----------------------------------------------------
    def on_post(self, src: int, dst: int, tag: int, seq: int) -> Optional[str]:
        """Injection decision for one transmission; records the event."""
        kind = self.plan.decide(src, dst, tag, seq)
        if kind is not None:
            self.record(f"injected_{kind}", src=src, dst=dst, tag=tag, seq=seq)
        return kind

    def corrupt(self, payload: np.ndarray, src: int, dst: int, tag: int,
                seq: int) -> np.ndarray:
        """Return a bit-flipped wire copy of *payload* (pristine kept);
        an empty payload has no bit to flip and travels as it is."""
        wire = payload.copy()
        flat = wire.reshape(-1).view(np.uint8)
        if flat.size:
            offset, mask = self.plan.corrupt_byte(src, dst, tag, seq, flat.size)
            flat[offset] ^= mask
        return wire

    # -- driver hooks ----------------------------------------------------
    def crash_due(self, rank: int, step: int) -> bool:
        if not self.plan.crash_due(rank, step):
            return False
        with self._lock:
            first = (rank, step) not in self._crashed
            self._crashed.add((rank, step))
        if first:
            self.record("injected_crash", src=rank, step=step)
        return first if self.survivable else True

    def crashed(self) -> List[Tuple[int, int]]:
        """Crash sites that already fired, as sorted ``(rank, step)``."""
        with self._lock:
            return sorted(self._crashed)

    def mark_fired(self, crashes) -> None:
        """Mark crash sites as already fired (checkpoint restore: a cold
        ``--resume`` must not re-trigger crashes the snapshot outlived)."""
        with self._lock:
            self._crashed.update((int(r), int(s)) for r, s in crashes)

    def degrade_due(self, rank: int, step: int) -> bool:
        return self.plan.degrade_due(rank, step)

    def death_due(self, rank: int, step: int) -> bool:
        """Permanent-death check; records the event exactly once.

        Death is never survivable in place: unlike :meth:`crash_due`
        this keeps returning True on relaunches at the same rank count
        (the node is gone).  The elastic driver instead excludes dead
        ranks from the reshaped world, so the query is simply never made
        for them again.
        """
        if self.deaths_disabled or not self.plan.death_due(rank, step):
            return False
        with self._lock:
            first = (rank, step) not in self._died
            self._died.add((rank, step))
        if first:
            self.record("injected_death", src=rank, step=step)
        return True

    def died(self) -> List[Tuple[int, int]]:
        """Death sites that already fired, as sorted ``(rank, step)``."""
        with self._lock:
            return sorted(self._died)

    def vmem_armed(self, site: str = "view_map_chunk", count: int = 1):
        """Arm a vmem failure site on the calling thread (context)."""
        return VMEM_FAULTS.armed(site, count)

    # -- reporting -------------------------------------------------------
    def events(self) -> List[FaultEvent]:
        with self._lock:
            return list(self._events)

    def event_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for e in self.events():
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return dict(sorted(counts.items()))

    def schedule_digest(self) -> int:
        """Order-independent CRC32 of every event's identity.

        Thread scheduling permutes the *log order*; the *set* of events is
        deterministic per seed, so the digest sorts before hashing.  The
        chaos determinism gate compares this across repeated runs.
        """
        blob = repr(sorted(e.key() for e in self.events())).encode()
        return zlib.crc32(blob)

    def summary(self) -> dict:
        return {
            "seed": self.plan.seed,
            "events": self.event_counts(),
            "n_events": len(self.events()),
            "schedule_digest": self.schedule_digest(),
        }
