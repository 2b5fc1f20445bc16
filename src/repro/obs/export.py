"""Trace exporters: Chrome trace-event JSON, flame summary, counts.

Three views of one recorded trace:

* :func:`chrome_trace` -- the Trace Event Format dict that
  ``chrome://tracing`` / Perfetto load directly, one timeline row per
  simulated rank (complete ``"X"`` events, microsecond timestamps);
* :func:`flame_summary` -- a text flame view aggregated by span path,
  with total and self time (total minus child spans);
* :func:`trace_stats` -- the deterministic counts: spans per name,
  ranks traced, counter and gauge totals.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SpanEvent, Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "flame_summary",
    "trace_stats",
]

#: Synthetic Chrome "thread id" for spans recorded outside any rank.
_NO_RANK_TID = 999


def _rank_by_thread(events: List[SpanEvent]) -> Dict[int, int]:
    """Map OS thread idents to simulated ranks, from spans that know both.

    Spans recorded without an explicit ``rank`` (converters, plan
    compilation) then land on the timeline row of the rank whose thread
    ran them.
    """
    mapping: Dict[int, int] = {}
    for ev in events:
        if ev.rank is not None:
            mapping.setdefault(ev.tid, ev.rank)
    return mapping


def chrome_trace(
    tracer: Tracer, metrics: Optional[MetricsRegistry] = None
) -> Dict[str, Any]:
    """Trace Event Format dict (load in ``chrome://tracing`` / Perfetto)."""
    events: List[Dict[str, Any]] = []
    tids = set()
    all_events = tracer.events()
    thread_ranks = _rank_by_thread(all_events)
    for ev in all_events:
        tid = (
            ev.rank if ev.rank is not None
            else thread_ranks.get(ev.tid, _NO_RANK_TID)
        )
        tids.add(tid)
        args: Dict[str, Any] = {"depth": ev.depth, "path": ev.path}
        if ev.rank is not None:
            args["rank"] = ev.rank
        if ev.step is not None:
            args["step"] = ev.step
        args.update(ev.attrs)
        events.append(
            {
                "name": ev.name,
                "cat": ev.name.partition(".")[0],
                "ph": "X",
                "ts": ev.start_ns / 1000.0,  # microseconds
                "dur": max(ev.dur_ns, 1) / 1000.0,
                "pid": 0,
                "tid": tid,
                "args": args,
            }
        )
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro executed run"},
        }
    ]
    for tid in sorted(tids):
        label = f"rank {tid}" if tid != _NO_RANK_TID else "unattributed"
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": label},
            }
        )
    doc: Dict[str, Any] = {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
    }
    if metrics is not None:
        doc["otherData"] = metrics.snapshot()
    return doc


def write_chrome_trace(
    path, tracer: Tracer, metrics: Optional[MetricsRegistry] = None
) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer, metrics), fh, indent=1)


def flame_summary(tracer: Tracer, top: int = 40) -> str:
    """Text flame view: spans aggregated by path across all ranks.

    Self time is total minus the time of directly nested spans, so a hot
    wrapper and a hot leaf are distinguishable at a glance.
    """
    totals: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    child_time: Dict[str, int] = {}
    for ev in tracer.events():
        totals[ev.path] = totals.get(ev.path, 0) + ev.dur_ns
        counts[ev.path] = counts.get(ev.path, 0) + 1
        head, _, _ = ev.path.rpartition(";")
        if head:
            child_time[head] = child_time.get(head, 0) + ev.dur_ns
    if not totals:
        return "flame summary: no spans recorded"
    lines = [
        "flame summary (all ranks, total / self / count)",
    ]
    # Depth-first over the path hierarchy, hottest total first.
    roots = sorted(
        (p for p in totals if ";" not in p),
        key=lambda p: -totals[p],
    )

    def emit(path: str, depth: int) -> None:
        total_ms = totals[path] / 1e6
        self_ms = (totals[path] - child_time.get(path, 0)) / 1e6
        name = path.rsplit(";", 1)[-1]
        lines.append(
            f"  {'  ' * depth}{name:<{max(1, 36 - 2 * depth)}}"
            f" {total_ms:10.3f}ms {self_ms:10.3f}ms {counts[path]:7d}x"
        )
        kids = sorted(
            (p for p in totals
             if p.startswith(path + ";") and ";" not in p[len(path) + 1:]),
            key=lambda p: -totals[p],
        )
        for kid in kids:
            emit(kid, depth + 1)

    for root in roots:
        emit(root, 0)
    if len(lines) - 1 > top:
        lines = lines[: top + 1] + [f"  ... {len(lines) - 1 - top} more rows"]
    return "\n".join(lines)


def trace_stats(
    tracer: Tracer, metrics: Optional[MetricsRegistry] = None
) -> Dict[str, Any]:
    """The trace's counts: spans per name, ranks traced, and the
    metrics' counter / gauge totals.

    They are deterministic for a fixed configuration;
    ``tests/golden_counts.json`` pins them for one run.
    """
    events = tracer.events()
    span_counts: Dict[str, int] = {}
    ranks = set()
    for ev in events:
        span_counts[ev.name] = span_counts.get(ev.name, 0) + 1
        if ev.rank is not None:
            ranks.add(ev.rank)
    stats: Dict[str, Any] = {
        "spans_total": len(events),
        "ranks_traced": len(ranks),
        "spans_by_name": dict(sorted(span_counts.items())),
    }
    if metrics is not None:
        snap = metrics.snapshot()
        stats["counters"] = {
            name: rec["total"] for name, rec in snap["counters"].items()
        }
        stats["gauges"] = {
            name: rec["total"] for name, rec in snap["gauges"].items()
        }
    return stats
