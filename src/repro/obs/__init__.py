"""Observability layer: span tracing for the executed path, and the
counters of the run it traced.

Usage (library)::

    from repro import obs

    with obs.observed():                     # enable the tracer
        run = run_executed(problem, "layout", timesteps=4)
    doc = obs.chrome_trace(obs.TRACER, run)  # spans + the run's counters

Usage (CLI)::

    python -m repro run --method layout --steps 4 --trace   # writes trace.json

One module-level singleton, :data:`TRACER`, is bound by the instrumented
modules (driver, exchangers, simmpi fabric, stencil plans, brick
converters) at import time.  It is disabled by default.  The per-step
regions of a run are not spans while it steps: the run loop and the
channel stamp their boundaries, which the rank's ledger measures its
phases from either way, and the tracer rebuilds those spans from the
stamps when the loop ends (:meth:`Tracer.replay`).  Nothing here
counts: a run's counters are read off its ledgers, fabric statistics and
run record by :func:`counters`.

Everything here is *observational*: spans wrap the real data movement
but never touch the modelled virtual-second accounting
(``RankMetrics.totals``), which stays bit-identical whether tracing is
on, off, or absent (DESIGN.md Section 6).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.export import (
    chrome_trace,
    counters,
    flame_summary,
    trace_stats,
    write_chrome_trace,
)
from repro.obs.tracer import SpanEvent, Tracer

__all__ = [
    "TRACER",
    "Tracer",
    "SpanEvent",
    "enable",
    "disable",
    "observed",
    "counters",
    "chrome_trace",
    "write_chrome_trace",
    "flame_summary",
    "trace_stats",
]

#: Process-wide tracer; instrumented modules bind this exact object.
TRACER = Tracer()


def enable() -> None:
    """Turn tracing on (clearing anything previously recorded)."""
    TRACER.enable()


def disable() -> None:
    """Stop recording; collected spans stay readable."""
    TRACER.disable()


@contextmanager
def observed():
    """Enable tracing for the duration of a ``with`` block."""
    enable()
    try:
        yield TRACER
    finally:
        disable()
