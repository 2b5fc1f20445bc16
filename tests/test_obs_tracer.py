"""Span tracer: nesting, disable semantics, exceptions, threads, cost."""

import threading
import time

import pytest

from repro.obs.tracer import Tracer, _NULL_SPAN


@pytest.fixture
def tracer():
    t = Tracer()
    t.enable()
    return t


class TestDisabled:
    def test_disabled_records_nothing(self):
        t = Tracer()
        with t.span("a", rank=0):
            pass
        assert len(t) == 0
        assert t.events() == []

    def test_disabled_returns_shared_null_span(self):
        t = Tracer()
        assert t.span("a") is _NULL_SPAN
        assert t.span("b", rank=3, step=7, extra=1) is _NULL_SPAN

    def test_disable_keeps_recorded_events_readable(self, tracer):
        with tracer.span("a"):
            pass
        tracer.disable()
        assert [ev.name for ev in tracer.events()] == ["a"]
        with tracer.span("b"):
            pass
        assert [ev.name for ev in tracer.events()] == ["a"]

    def test_reenable_clears_previous_trace(self, tracer):
        with tracer.span("old"):
            pass
        tracer.enable()
        with tracer.span("new"):
            pass
        assert [ev.name for ev in tracer.events()] == ["new"]

    def test_disabled_overhead_is_negligible(self):
        # Guard rail, not a benchmark: the disabled path must stay a
        # constant-time null-object return.  Generous bound for CI noise.
        t = Tracer()
        n = 20_000
        t0 = time.perf_counter()
        for _ in range(n):
            with t.span("x", rank=0):
                pass
        per_span = (time.perf_counter() - t0) / n
        assert per_span < 20e-6, f"disabled span cost {per_span * 1e9:.0f}ns"


class TestNesting:
    def test_depth_and_path(self, tracer):
        with tracer.span("outer"):
            with tracer.span("mid"):
                with tracer.span("inner"):
                    pass
        by_name = {ev.name: ev for ev in tracer.events()}
        assert by_name["outer"].depth == 0
        assert by_name["mid"].depth == 1
        assert by_name["inner"].depth == 2
        assert by_name["inner"].path == "outer;mid;inner"

    def test_siblings_share_parent(self, tracer):
        with tracer.span("p"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        paths = sorted(ev.path for ev in tracer.events())
        assert paths == ["p", "p;a", "p;b"]

    def test_parent_encloses_child_times(self, tracer):
        with tracer.span("p"):
            with tracer.span("c"):
                time.sleep(0.002)
        by_name = {ev.name: ev for ev in tracer.events()}
        p, c = by_name["p"], by_name["c"]
        assert p.start_ns <= c.start_ns
        assert p.dur_ns >= c.dur_ns
        assert c.dur_ns >= 1_000_000  # slept 2ms

    def test_events_sorted_by_start(self, tracer):
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        starts = [ev.start_ns for ev in tracer.events()]
        assert starts == sorted(starts)


class TestAttributes:
    def test_rank_step_and_attrs_recorded(self, tracer):
        with tracer.span("x", rank=3, step=11, method="layout"):
            pass
        (ev,) = tracer.events()
        assert ev.rank == 3
        assert ev.step == 11
        assert ev.attrs == {"method": "layout"}

    def test_unranked_span_has_none_rank(self, tracer):
        with tracer.span("x"):
            pass
        (ev,) = tracer.events()
        assert ev.rank is None and ev.step is None


class TestExceptions:
    def test_records_and_reraises(self, tracer):
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("failing"):
                time.sleep(0.002)
                raise ValueError("boom")
        (ev,) = tracer.events()
        assert ev.name == "failing"
        assert ev.dur_ns >= 1_000_000

    def test_stack_unwinds_after_exception(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError()
        with tracer.span("after"):
            pass
        by_name = {ev.name: ev for ev in tracer.events()}
        assert by_name["after"].depth == 0
        assert by_name["after"].path == "after"


class TestThreads:
    def test_threads_have_independent_stacks(self, tracer):
        barrier = threading.Barrier(4)

        def work(rank):
            with tracer.span("outer", rank=rank):
                barrier.wait()
                with tracer.span("inner", rank=rank):
                    pass

        threads = [threading.Thread(target=work, args=(r,)) for r in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        events = tracer.events()
        assert len(events) == 8
        inners = [ev for ev in events if ev.name == "inner"]
        assert all(ev.path == "outer;inner" and ev.depth == 1 for ev in inners)
        assert sorted(ev.rank for ev in inners) == [0, 1, 2, 3]
        # Each rank ran on its own thread.
        assert len({ev.tid for ev in events}) == 4

