"""Trace exporters: Chrome trace-event JSON, flame summary, counts.

Three views of one recorded trace, and one of the run it recorded:

* :func:`chrome_trace` -- the Trace Event Format dict that
  ``chrome://tracing`` / Perfetto load directly, one timeline row per
  simulated rank (complete ``"X"`` events, microsecond timestamps);
* :func:`flame_summary` -- a text flame view aggregated by span path,
  with total and self time (total minus child spans);
* :func:`trace_stats` -- the deterministic counts: spans per name,
  ranks traced, and the run's counter and gauge totals;
* :func:`counters` -- those counters and gauges, read off what an
  :class:`~repro.core.driver.ExecutedRun` already holds.  It is the one
  place that spells a counter name: nothing counts twice.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List

from repro.obs.tracer import SpanEvent, Tracer

__all__ = [
    "counters",
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


def counters(run) -> Dict[str, Dict[str, int]]:
    """``{"counters": {...}, "gauges": {...}}`` of one executed run.

    Every value is read off the run that finished (DESIGN.md Section 6
    has the table): ``driver.*`` off the rank ledgers, so a step a
    restart replayed counts once; ``fabric.*`` off the finishing
    launch's fabric statistics, collectives included; the rest off the
    run record.  A feature's names appear only when the run used it, so
    a plain run's gauges are ``{}``.
    """
    ledgers = run.metrics.ranks
    stats = run.fabric.total_stats()
    counts = {
        "driver.exchanges": sum(l.exchanges for l in ledgers),
        "driver.messages": sum(l.messages for l in ledgers),
        "driver.wire_bytes": sum(l.wire_bytes for l in ledgers),
        "fabric.messages": stats.sends,
        "fabric.wire_bytes": stats.bytes_sent,
        "fabric.bytes_received": stats.bytes_received,
    }
    gauges = {}
    if run.faults is not None:
        for kind, n in run.faults["events"].items():
            counts[f"faults.{kind}"] = n
    if run.demotions:
        counts["exchange.demotions"] = run.demotions
    if run.checkpoint_saves:
        counts["ckpt.saves"] = run.checkpoint_saves
        counts["ckpt.saved_bytes"] = run.checkpoint_bytes
    if run.restarts:
        counts["ckpt.restarts"] = run.restarts
    if run.reshapes:
        counts["elastic.reshapes"] = run.reshapes
        gauges["elastic.nranks"] = math.prod(run.final_rank_dims)
    mappings = sum(l.mappings for l in ledgers)
    if mappings:
        gauges["memmap.regions"] = mappings
    return {
        "counters": dict(sorted(counts.items())),
        "gauges": dict(sorted(gauges.items())),
    }


def chrome_trace(tracer: Tracer, run=None) -> Dict[str, Any]:
    """Trace Event Format dict (load in ``chrome://tracing`` / Perfetto);
    given the traced *run*, its :func:`counters` go in ``otherData``."""
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
    if run is not None:
        doc["otherData"] = counters(run)
    return doc


def write_chrome_trace(path, tracer: Tracer, run=None) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer, run), fh, indent=1)


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


def trace_stats(tracer: Tracer, run=None) -> Dict[str, Any]:
    """The trace's counts: spans per name, ranks traced, and -- given
    the traced *run* -- its :func:`counters`.

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
    if run is not None:
        stats.update(counters(run))
    return stats
