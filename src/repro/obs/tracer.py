"""Low-overhead span tracer for the executed data-movement path.

The tracer answers the question the modelled clocks cannot: *where does
the reproduction's own wall-clock go* as a run moves through driver ->
exchanger -> fabric -> kernel plan.  It is strictly an observer -- spans
wrap the real code but never feed the modelled
:class:`~repro.util.timing.TimeBreakdown` totals, which remain the
figures' single source of truth (DESIGN.md Section 6).

Two ways in:

* **Stamps, on the run path.**  The timestep loop
  (:meth:`repro.core.runplan.RankRunPlan.run`) and the exchange channel
  take one ``perf_counter`` stamp at each calc, pack, post and wait
  boundary, whether a trace is on or not: the stamps are also what the
  rank's ledger measures its phases from.  Per step the loop appends one
  record of them to :meth:`Tracer.stamp_log` -- a list while tracing, a
  sink that keeps nothing otherwise, so traced and untraced runs step
  through the same code -- and once the loop is done
  :meth:`Tracer.replay` rebuilds the ``driver.*``, ``exchange.*`` and
  bound ``fabric.*`` spans from them, with the names, counts and nesting
  a span per region would have given.  No span object exists per step.
* **Spans, everywhere else** -- per run or per event (set-up, plan
  compilation, conversions, checkpoints, fault records, the
  collectives' per-message calls): ``with TRACER.span(...)``.  A span a
  stamped region encloses (a fault record inside a receive) is nested
  under it when the run's stamps are replayed.

Design constraints, in order:

1. **Cheap disabled.**  ``Tracer.span(...)`` on a disabled tracer
   returns a shared, stateless null context manager without touching the
   clock or allocating span state -- still ~0.4-0.5 us per ``with``
   (its keyword arguments and the two context-manager calls; measured
   on a 2-vCPU Xeon, Python 3.11), which is why the per-step regions
   are stamped instead: a stamp is one ``perf_counter`` call, ~0.04 us.
2. **Low cost enabled.**  Spans use the monotonic ``perf_counter_ns``
   clock and append to per-thread buffers (no lock on the span path; the
   tracer's lock is taken once per thread, at first use).
3. **Nesting-aware.**  Each thread keeps a span stack; every finished
   span records its depth and full ``a;b;c`` path, which the flame
   summary and Chrome export consume directly.
4. **Exception-transparent.**  A span whose body raises still records its
   elapsed time, then re-raises; a run loop that raises replays the
   steps it finished.

Simulated ranks are threads (:mod:`repro.simmpi.launcher`), so per-thread
buffers double as per-rank timelines; spans additionally carry an
explicit ``rank`` attribute wherever the caller knows it.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["SpanEvent", "Tracer"]

# Bound once: the span hot path calls this twice per span.
_now_ns = time.perf_counter_ns


@dataclass(frozen=True)
class SpanEvent:
    """One finished span: what ran, where, and for how long."""

    name: str
    start_ns: int  # monotonic ns, relative to the tracer's enable() origin
    dur_ns: int
    depth: int  # 0 = top-level within its thread
    path: str  # ';'-joined ancestor names, ending with this span's name
    tid: int  # OS thread ident (one simulated rank = one thread)
    rank: Optional[int] = None
    step: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()

#: An untraced run's stamp log: appending to it keeps nothing.
_DISCARD: deque = deque(maxlen=0)

#: One stamped span, in pre-order: ``(name, depth, start, end, step,
#: attrs)``, *start* / *end* ``perf_counter`` seconds, *depth* 0 for a
#: region directly under the run.
Stamped = Tuple[str, int, float, float, Optional[int], Dict[str, Any]]


class _Span:
    """Live span: appends a raw record tuple on exit.

    The hot path avoids everything it can -- records are plain tuples
    (``SpanEvent`` objects are materialized lazily by
    :meth:`Tracer.events`), the path string is deferred to export (only
    the ancestor tuple is captured), and the thread ident is cached in
    the per-thread state.
    """

    __slots__ = ("_tracer", "_name", "_rank", "_step", "_attrs", "_state",
                 "_start")

    def __init__(self, tracer: "Tracer", name, rank, step, attrs) -> None:
        self._tracer = tracer
        self._name = name
        self._rank = rank
        self._step = step
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        state = self._tracer._thread_state()
        state[1].append(self._name)
        self._state = state
        self._start = _now_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Record even when the body raised: the elapsed wall-clock is
        # real, and dropping it would hide exactly the spans one debugs.
        end = _now_ns()
        records, stack, tid = self._state
        stack.pop()
        records.append(
            (self._name, self._start, end - self._start, tuple(stack),
             tid, self._rank, self._step, self._attrs)
        )
        return False  # re-raise


class Tracer:
    """Collects :class:`SpanEvent` records from any number of threads.

    One module-level instance (:data:`repro.obs.TRACER`) is shared by all
    instrumented modules; they bind it at import time, so enabling and
    disabling must mutate this object in place rather than replacing it.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._origin_ns = 0
        self._lock = threading.Lock()
        self._buffers: List[List[tuple]] = []  # raw records, per thread
        self._tls = threading.local()

    # -- lifecycle -------------------------------------------------------
    def enable(self) -> None:
        """Clear any previous trace and start recording."""
        self.clear()
        self._origin_ns = time.perf_counter_ns()
        self.enabled = True

    def disable(self) -> None:
        """Stop recording; collected events stay readable."""
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            for buf in self._buffers:
                del buf[:]
            self._buffers = []
        # Thread-local state in other threads still references its old
        # (now unregistered) buffer; drop ours so it re-registers.
        self._tls = threading.local()

    # -- recording -------------------------------------------------------
    def span(self, name: str, rank: Optional[int] = None,
             step: Optional[int] = None, **attrs):
        """Context manager timing one named region.

        ``rank`` and ``step`` are first-class (they index the per-rank
        timelines); anything else lands in the span's ``attrs`` dict.
        No-op (shared null object, nothing allocated) while disabled.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, rank, step, attrs)

    def _thread_state(self):
        state = getattr(self._tls, "state", None)
        if state is None:
            # (raw records, span-name stack, cached thread ident)
            state = ([], [], threading.get_ident())
            self._tls.state = state
            with self._lock:
                self._buffers.append(state[0])
        return state

    def stamp_log(self):
        """Where a run loop appends its per-step stamp records: a fresh
        list while tracing, else a shared sink that keeps nothing.  The
        loop appends the same records either way; :meth:`replay` turns
        the list into spans once the loop is done."""
        return [] if self.enabled else _DISCARD

    def replay(self, rank: Optional[int], spans: Iterable[Stamped]) -> None:
        """Record *spans* -- one run's stamped regions, in pre-order
        (:data:`Stamped`) -- as finished spans of *rank* in the calling
        thread, nested by their depth.  A span this thread recorded live
        while the run stepped (a fault record) moves under the
        innermost stamped region that was open when it started, so the
        trace nests as if every region had been a span.  No-op while
        disabled."""
        if not self.enabled:
            return
        records, _stack, tid = self._thread_state()
        live = len(records)
        # (start ns, end ns, path, parent index) per stamped region
        made: List[tuple] = []
        path: List[str] = []
        open_at: List[int] = []
        for name, depth, start, end, step, attrs in spans:
            del path[depth:], open_at[depth:]
            s_ns, e_ns = round(start * 1e9), round(end * 1e9)
            records.append(
                (name, s_ns, e_ns - s_ns, tuple(path), tid, rank, step, attrs)
            )
            made.append((s_ns, e_ns, open_at[-1] if open_at else -1))
            path.append(name)
            open_at.append(len(made) - 1)
        if not made:
            return
        starts = [m[0] for m in made]
        first = starts[0]
        for i in range(live):
            rec = records[i]
            start = rec[1]
            if start < first:
                continue
            j = bisect_right(starts, start) - 1
            while j >= 0 and made[j][1] < start:
                j = made[j][2]
            if j < 0:
                continue
            outer = records[live + j]
            records[i] = (
                rec[0], start, rec[2], outer[3] + (outer[0],) + rec[3],
                *rec[4:],
            )

    # -- reading ---------------------------------------------------------
    def events(self) -> List[SpanEvent]:
        """All finished spans, across threads, in start order."""
        with self._lock:
            raw = [rec for buf in self._buffers for rec in buf]
        origin = self._origin_ns
        merged = [
            SpanEvent(
                name=name,
                start_ns=start - origin,
                dur_ns=dur,
                depth=len(ancestors),
                path=";".join(ancestors + (name,)),
                tid=tid,
                rank=rank,
                step=step,
                attrs=attrs,
            )
            for name, start, dur, ancestors, tid, rank, step, attrs in raw
        ]
        merged.sort(key=lambda ev: ev.start_ns)
        return merged

    def __len__(self) -> int:
        with self._lock:
            return sum(len(buf) for buf in self._buffers)
