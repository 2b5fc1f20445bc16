"""Span recorder for halobench's traced runs.

The program is not edited: for one traced run, :func:`installed` replaces
public callables at layer boundaries (class methods, and the module-level
names ``repro.core.driver`` resolves) with recording wrappers, and puts
the originals back afterwards -- also when the run raises.  Untraced runs
therefore execute exactly the code users run.

A span records wall-clock (``time.perf_counter``) and the calling
thread's CPU time (``time.thread_time``).  Its *self* time is its own
duration minus its children's.  **cpu** self time is the layer being
busy; **wait** = wall self - cpu self is the thread blocked or
descheduled inside that layer.  On one CPU the rank threads serialise,
so the cpu self times of all spans of a run add up to the run's
wall-clock: that identity is the layer budget's check.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

__all__ = ["Recorder", "aggregate", "installed", "targets"]

# Record layout, one list per span (or per summarised group of spans):
# name, parent index in the same thread (-1: none), count, first start,
# last end, summed wall, summed thread-CPU.
_NAME, _PARENT, _COUNT, _START, _END, _WALL, _CPU = range(7)


class _ThreadSpans:
    __slots__ = ("thread", "records", "stack", "groups")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.records: List[list] = []
        self.stack: List[int] = []
        self.groups: Dict[Tuple[int, str], int] = {}


class Recorder:
    """Collects the spans of one run, in per-thread lists."""

    def __init__(self, run: str) -> None:
        self.run = run
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: List[_ThreadSpans] = []

    def _enter(self, name: str, summary: bool):
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans(threading.current_thread().name)
            self._local.spans = spans
            with self._lock:
                self.threads.append(spans)
        parent = spans.stack[-1] if spans.stack else -1
        # Summary spans (per-message boundaries, thousands per run) share
        # one record per (parent, name) holding count and sums.
        index = spans.groups.get((parent, name)) if summary else None
        if index is None:
            index = len(spans.records)
            spans.records.append([name, parent, 0, None, 0.0, 0.0, 0.0])
            if summary:
                spans.groups[(parent, name)] = index
        spans.stack.append(index)
        return spans, index, time.perf_counter(), time.thread_time()

    @staticmethod
    def _leave(frame) -> None:
        cpu_end = time.thread_time()
        wall_end = time.perf_counter()
        spans, index, wall_start, cpu_start = frame
        spans.stack.pop()
        rec = spans.records[index]
        rec[_COUNT] += 1
        if rec[_START] is None:
            rec[_START] = wall_start
        rec[_END] = wall_end
        rec[_WALL] += wall_end - wall_start
        rec[_CPU] += cpu_end - cpu_start

    def wrap(self, name: str, fn: Callable, summary: bool = False) -> Callable:
        """*fn* recorded as a span called *name* on every call."""
        enter, leave = self._enter, self._leave

        def recorded(*args, **kwargs):
            frame = enter(name, summary)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        recorded.__wrapped__ = fn
        return recorded

    def rows(self) -> Iterator[dict]:
        """Every record with its self times, as JSON-ready dicts."""
        for spans in self.threads:
            self_wall = [r[_WALL] for r in spans.records]
            self_cpu = [r[_CPU] for r in spans.records]
            for rec in spans.records:
                if rec[_PARENT] >= 0:
                    self_wall[rec[_PARENT]] -= rec[_WALL]
                    self_cpu[rec[_PARENT]] -= rec[_CPU]
            for i, rec in enumerate(spans.records):
                yield {
                    "run": self.run,
                    "thread": spans.thread,
                    "id": i,
                    "parent": rec[_PARENT],
                    "name": rec[_NAME],
                    "count": rec[_COUNT],
                    "start": rec[_START],
                    "end": rec[_END],
                    "wall": rec[_WALL],
                    "cpu": rec[_CPU],
                    "self_wall": self_wall[i],
                    "self_cpu": self_cpu[i],
                }

    def dump(self, fh) -> None:
        for row in self.rows():
            fh.write(json.dumps(row) + "\n")


def aggregate(recorder: Recorder) -> Dict[str, Dict[str, float]]:
    """Per span name, over all threads: count, summed wall, summed self
    wall and self cpu, and the longest single record's wall."""
    out: Dict[str, Dict[str, float]] = {}
    for row in recorder.rows():
        agg = out.get(row["name"])
        if agg is None:
            fields = ("count", "wall", "self_wall", "self_cpu", "max_wall")
            agg = out[row["name"]] = dict.fromkeys(fields, 0)
        agg["count"] += row["count"]
        agg["wall"] += row["wall"]
        agg["self_wall"] += row["self_wall"]
        agg["self_cpu"] += row["self_cpu"]
        agg["max_wall"] = max(agg["max_wall"], row["wall"])
    return out


def targets() -> List[Tuple[object, str, str, bool]]:
    """``(owner, attribute, span name, summary)`` for every boundary.

    The span name is the layer row it is charged to (see README).  The
    per-message fabric calls only run on the enveloped ``guarded16`` path
    (11 k calls per run), so they are summarised.
    """
    import repro.core.driver as driver
    from repro.brick.decomp import BrickDecomp
    from repro.ckpt import RankCheckpointer
    from repro.core.problem import StencilProblem
    from repro.exchange.base import ExchangeChannel, Exchanger
    from repro.exchange.layout_ex import LayoutExchanger
    from repro.exchange.memmap_ex import MemMapExchanger
    from repro.exchange.mpitypes import MPITypesExchanger
    from repro.exchange.pack import PackExchanger
    from repro.simmpi.fabric import SimFabric
    from repro.stencil.plan import ArrayStencilPlan, BrickStencilPlan
    from repro.vmem.realmap import MemfdArena

    exchangers = (LayoutExchanger, MemMapExchanger, PackExchanger, MPITypesExchanger)
    out: List[Tuple[object, str, str, bool]] = [
        (BrickStencilPlan, "execute", "stencil.execute", False),
        (ArrayStencilPlan, "execute", "stencil.execute", False),
        (ExchangeChannel, "exchange", "exchange.fire", False),
        (SimFabric, "post_send_batch", "simmpi.post", False),
        (SimFabric, "complete_recv_batch", "simmpi.recv", False),
        (SimFabric, "wait_send_batch", "simmpi.send_wait", False),
        (SimFabric, "post_send", "simmpi.post", True),
        (SimFabric, "complete_recv", "simmpi.recv", True),
        (SimFabric, "wait_send", "simmpi.send_wait", True),
        (RankCheckpointer, "save", "ckpt.save", False),
        (StencilProblem, "initial_global", "core.initial_global", False),
        (driver, "extended_to_bricks", "brick.convert", False),
        (driver, "bricks_to_extended", "brick.convert", False),
        (Exchanger, "make_channel", "exchange.construct", False),
        (MemfdArena, "__init__", "vmem.map", False),
        (MemfdArena, "make_view", "vmem.map", False),
        (driver, "compile_brick_plan", "stencil.compile", False),
        (driver, "compile_array_plan", "stencil.compile", False),
    ]
    for attr in ("__init__", "assignment", "brick_info", "allocate", "mmap_alloc"):
        out.append((BrickDecomp, attr, "brick.decomp", False))
    for cls in exchangers:
        out.append((cls, "exchange", "exchange.fire", False))
        out.append((cls, "__init__", "exchange.construct", False))
    return out


@contextmanager
def installed(recorder: Recorder) -> Iterator[None]:
    """Record every boundary of :func:`targets` while the block runs.

    ``run_spmd`` additionally gets each rank's function wrapped as a
    ``rank.body`` span, the root of that rank thread's spans.
    """
    import repro.core.driver as driver

    saved: List[Tuple[object, str, object]] = []

    def replace(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def spmd(original):
        def run_spmd(nranks, fn, *args, **kwargs):
            body = recorder.wrap("rank.body", fn)
            return original(nranks, body, *args, **kwargs)

        return recorder.wrap("simmpi.run_spmd", run_spmd)

    try:
        for owner, attr, name, summary in targets():
            replace(
                owner,
                attr,
                lambda fn, n=name, s=summary: recorder.wrap(n, fn, s),
            )
        replace(driver, "run_spmd", spmd)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
