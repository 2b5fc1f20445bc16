"""Low-overhead span tracer for the executed data-movement path.

The tracer answers the question the modelled clocks cannot: *where does
the reproduction's own wall-clock go* as a run moves through driver ->
exchanger -> fabric -> kernel plan.  It is strictly an observer -- spans
wrap the real code but never feed the modelled
:class:`~repro.util.timing.TimeBreakdown` totals, which remain the
figures' single source of truth (DESIGN.md Section 6).

Design constraints, in order:

1. **~Zero cost disabled.**  ``Tracer.span(...)`` on a disabled tracer
   returns a shared, stateless null context manager without touching the
   clock or allocating span state, so hooks can stay threaded through hot
   code permanently.
2. **Low cost enabled.**  Spans use the monotonic ``perf_counter_ns``
   clock and append to per-thread buffers (no lock on the span path; the
   tracer's lock is taken once per thread, at first use).
3. **Nesting-aware.**  Each thread keeps a span stack; every finished
   span records its depth and full ``a;b;c`` path, which the flame
   summary and Chrome export consume directly.
4. **Exception-transparent.**  A span whose body raises still records its
   elapsed time, then re-raises.

Simulated ranks are threads (:mod:`repro.simmpi.launcher`), so per-thread
buffers double as per-rank timelines; spans additionally carry an
explicit ``rank`` attribute wherever the caller knows it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

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
