"""Observability end to end: traced executed runs, exports, CLI.

The contract under test (DESIGN.md Section 6 extension): tracing is an
*observer*.  A traced run must produce bit-identical modelled metrics and
results, while the trace itself must cover every layer (driver ->
exchanger -> fabric) on every rank.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.core.driver import run_executed
from repro.core.problem import StencilProblem
from repro.hardware.profiles import theta_knl
from repro.stencil.spec import SEVEN_POINT

pytestmark = pytest.mark.filterwarnings("ignore")


def small_problem():
    return StencilProblem(
        global_extent=(32, 32, 32),
        rank_dims=(2, 2, 2),
        stencil=SEVEN_POINT,
        brick_dim=(8, 8, 8),
        ghost=8,
    )


@pytest.fixture(autouse=True)
def obs_reset():
    """Never leak enabled observability into other tests."""
    yield
    obs.disable()
    obs.TRACER.clear()
    obs.METRICS.clear()


def traced_run(method="layout", steps=2):
    obs.enable()
    try:
        run = run_executed(small_problem(), method, theta_knl(), timesteps=steps)
    finally:
        obs.disable()
    return run


class TestTracedRun:
    def test_spans_cover_all_layers_on_every_rank(self):
        traced_run()
        events = obs.TRACER.events()
        layers = {
            "driver": {"driver.step", "driver.exchange", "driver.calc"},
            "exchange": {"exchange.post", "exchange.wait"},
            "fabric": {"fabric.recv", "fabric.send_wait"},
        }
        names_by_rank = {}
        for ev in events:
            if ev.rank is not None:
                names_by_rank.setdefault(ev.rank, set()).add(ev.name)
        assert sorted(names_by_rank) == list(range(8))
        for rank, names in names_by_rank.items():
            for layer, expected in layers.items():
                assert expected <= names, (
                    f"rank {rank} missing {layer} spans: {expected - names}"
                )

    def test_span_hierarchy_reaches_fabric_through_exchange(self):
        traced_run()
        paths = {ev.path for ev in obs.TRACER.events()}
        assert any(
            p.startswith("driver.step;driver.exchange;")
            and p.endswith("fabric.recv")
            for p in paths
        ), f"no driver->exchange->fabric chain in {sorted(paths)[:10]}"

    def test_deterministic_counters_agree_across_layers(self):
        run = traced_run()
        total_msgs = run.messages_per_rank * 8 * 2  # per rank/step, 8 ranks
        assert obs.METRICS.counter_total("driver.messages") == total_msgs
        assert obs.METRICS.counter_total("exchange.messages") == total_msgs
        assert obs.METRICS.counter_total("fabric.messages") == total_msgs

    def test_modelled_metrics_bit_identical_traced_vs_untraced(self):
        baseline = run_executed(
            small_problem(), "layout", theta_knl(), timesteps=2
        )
        traced = traced_run()
        for b, t in zip(baseline.metrics.ranks, traced.metrics.ranks):
            assert b.totals.as_dict() == t.totals.as_dict()
        assert np.array_equal(baseline.global_result, traced.global_result)
        assert baseline.messages_per_rank == traced.messages_per_rank
        assert baseline.wire_bytes_per_rank == traced.wire_bytes_per_rank


class TestChromeExport:
    def test_schema_round_trip(self, tmp_path):
        traced_run()
        out = tmp_path / "trace.json"
        obs.write_chrome_trace(out, obs.TRACER, obs.METRICS)
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        phases = {ev["ph"] for ev in events}
        assert phases == {"X", "M"}
        complete = [ev for ev in events if ev["ph"] == "X"]
        assert len(complete) == len(obs.TRACER.events())
        for ev in complete:
            assert ev["pid"] == 0
            assert ev["dur"] > 0
            assert isinstance(ev["ts"], float)
            assert "path" in ev["args"]
        # one timeline row per rank, each named
        named = {
            ev["tid"]: ev["args"]["name"]
            for ev in events
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        for rank in range(8):
            assert named[rank] == f"rank {rank}"
        # metrics ride along for tooling
        assert "driver.messages" in doc["otherData"]["counters"]

    def test_unranked_spans_attributed_to_rank_rows(self, tmp_path):
        traced_run()
        doc = obs.chrome_trace(obs.TRACER, obs.METRICS)
        compile_rows = {
            ev["tid"]
            for ev in doc["traceEvents"]
            if ev.get("name") == "plan.compile"
        }
        assert compile_rows  # spans exist
        assert compile_rows <= set(range(8))  # inferred via thread ident

    def test_flame_summary_lists_hot_paths(self):
        traced_run()
        text = obs.flame_summary(obs.TRACER)
        assert "driver.step" in text
        assert "driver.exchange" in text


class TestCli:
    def test_run_trace_layout_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t.json"
        rc = main(
            ["run", "--method", "layout", "--steps", "4",
             "--trace", "--trace-out", str(out)]
        )
        assert rc == 0
        events = json.loads(out.read_text())["traceEvents"]
        rows = {ev["args"]["name"] for ev in events if ev["name"] == "thread_name"}
        assert rows == {f"rank {r}" for r in range(8)}
        assert sum(ev["name"] == "driver.step" for ev in events) == 32
        assert "flame summary" in capsys.readouterr().out

    def test_run_trace_flag_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t.json"
        rc = main(
            ["run", "--method", "yask", "--steps", "2",
             "--trace", "--trace-out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        names = {ev["name"] for ev in doc["traceEvents"]}
        assert "exchange.pack" in names  # the pack path is instrumented
        assert "bit-exact vs serial reference: True" in capsys.readouterr().out
