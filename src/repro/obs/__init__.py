"""Observability layer: span tracing and metrics for the executed path.

Usage (library)::

    from repro import obs

    with obs.observed():                     # enable tracer + metrics
        run = run_executed(problem, "layout", timesteps=4)
    doc = obs.chrome_trace(obs.TRACER, obs.METRICS)

Usage (CLI)::

    python -m repro run --method layout --steps 4 --trace   # writes trace.json

Two module-level singletons, :data:`TRACER` and :data:`METRICS`, are
bound by the instrumented modules (driver, exchangers, simmpi fabric,
stencil plans, brick converters) at import time.  Both are disabled by
default and near-free in that state, so the hooks stay in permanently.

Everything here is *observational*: spans and counters wrap the real
data movement but never touch the modelled virtual-second accounting
(``RankMetrics.totals``), which stays bit-identical whether tracing is
on, off, or absent (DESIGN.md Section 6).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.export import (
    chrome_trace,
    flame_summary,
    trace_stats,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SpanEvent, Tracer

__all__ = [
    "TRACER",
    "METRICS",
    "Tracer",
    "MetricsRegistry",
    "SpanEvent",
    "enable",
    "disable",
    "observed",
    "chrome_trace",
    "write_chrome_trace",
    "flame_summary",
    "trace_stats",
]

#: Process-wide tracer; instrumented modules bind this exact object.
TRACER = Tracer()

#: Process-wide metrics registry, same sharing discipline as TRACER.
METRICS = MetricsRegistry()


def enable(
    trace: bool = True, metrics: bool = True, sample_every: int = None
) -> None:
    """Turn observability on (clearing anything previously recorded).

    *sample_every* keeps every k-th top-level span per thread (see
    :class:`~repro.obs.tracer.Tracer`); the default keeps the tracer's
    current rate (1 = everything).
    """
    if trace:
        TRACER.enable(sample_every=sample_every)
    if metrics:
        METRICS.enable()


def disable() -> None:
    """Stop recording; collected spans/counters stay readable."""
    TRACER.disable()
    METRICS.disable()


@contextmanager
def observed(
    trace: bool = True, metrics: bool = True, sample_every: int = None
):
    """Enable observability for the duration of a ``with`` block."""
    enable(trace=trace, metrics=metrics, sample_every=sample_every)
    try:
        yield TRACER
    finally:
        disable()
