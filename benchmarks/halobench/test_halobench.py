"""Tests of halobench's own machinery (not part of tier-1).

    python -m pytest benchmarks/halobench -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fit import summary, two_point_fit  # noqa: E402


# ---------------------------------------------------------------------------
# Recorder arithmetic
# ---------------------------------------------------------------------------
class FakeClock:
    """Per-thread wall and CPU clocks that only move when told to."""

    def __init__(self):
        self._local = threading.local()

    def _now(self):
        if not hasattr(self._local, "now"):
            self._local.now = [0.0, 0.0]
        return self._local.now

    def perf_counter(self):
        return self._now()[0]

    def thread_time(self):
        return self._now()[1]

    def spend(self, wall, cpu):
        now = self._now()
        now[0] += wall
        now[1] += cpu


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans, "time", fake)
    return fake


def test_self_parent_and_cpu_arithmetic_across_two_threads(clock):
    rec = spans.Recorder("synthetic")

    def leaf(wall, cpu):
        clock.spend(wall, cpu)

    def outer(scale):
        clock.spend(5 * scale, 5 * scale)  # busy
        inner(scale)
        clock.spend(1 * scale, 1 * scale)

    def inner(scale):
        clock.spend(10 * scale, 2 * scale)  # 8 of 10 blocked
        for _ in range(3):
            leaf(scale, scale)

    leaf = rec.wrap("leaf", leaf, summary=True)
    inner = rec.wrap("inner", inner)
    outer = rec.wrap("outer", outer)

    threads = [
        threading.Thread(target=outer, args=(scale,), name=f"t{scale}")
        for scale in (1, 2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()

    rows = {(r["thread"], r["name"]): r for r in rec.rows()}
    assert len(rows) == 6
    for scale in (1, 2):
        o, i, lf = (rows[(f"t{scale}", n)] for n in ("outer", "inner", "leaf"))
        assert (o["parent"], i["parent"], lf["parent"]) == (-1, o["id"], i["id"])
        assert (o["count"], i["count"], lf["count"]) == (1, 1, 3)
        assert (o["wall"], o["cpu"]) == (19 * scale, 11 * scale)
        assert (o["self_wall"], o["self_cpu"]) == (6 * scale, 6 * scale)
        assert (i["self_wall"], i["self_cpu"]) == (10 * scale, 2 * scale)
        assert (lf["self_wall"], lf["self_cpu"]) == (3 * scale, 3 * scale)
        assert (o["start"], o["end"]) == (0, 19 * scale)

    agg = spans.aggregate(rec)
    assert agg["inner"]["self_cpu"] == 2 + 4
    assert agg["inner"]["self_wall"] - agg["inner"]["self_cpu"] == 8 + 16  # wait
    assert agg["outer"]["max_wall"] == 38
    # The budget identity: self times add back up to the root spans.
    assert sum(a["self_cpu"] for a in agg.values()) == agg["outer"]["wall"] - 24


def test_span_is_closed_when_the_wrapped_call_raises(clock):
    rec = spans.Recorder("raises")

    def boom():
        clock.spend(2, 1)
        raise KeyError("boom")

    with pytest.raises(KeyError):
        rec.wrap("root", rec.wrap("boom", boom))()
    rows = {r["name"]: r for r in rec.rows()}
    assert rows["boom"]["wall"] == 2 and rows["root"]["self_wall"] == 0
    assert rec.threads[0].stack == []


# ---------------------------------------------------------------------------
# Patching the program for one run
# ---------------------------------------------------------------------------
def _installed_attributes():
    import repro.core.driver as driver

    pairs = [(owner, attr) for owner, attr, _, _ in spans.targets()]
    pairs.append((driver, "run_spmd"))
    return [(owner, attr, vars(owner)[attr]) for owner, attr in pairs]


@pytest.mark.parametrize("method", workloads.METHODS)
def test_traced_run_restores_every_attribute(method):
    from repro.core.driver import run_executed

    before = _installed_attributes()
    problem = workloads.workload("strong16").problem()
    rec = spans.Recorder("traced")
    with spans.installed(rec):
        assert all(vars(o)[a] is not fn for o, a, fn in before)
        rec.wrap("core.run_executed", run_executed)(problem, method, timesteps=2)
    assert all(vars(o)[a] is fn for o, a, fn in before)

    agg = spans.aggregate(rec)
    assert agg["rank.body"]["count"] == problem.nranks
    assert agg["stencil.execute"]["count"] == 2 * problem.nranks
    assert agg["exchange.fire"]["count"] == 2 * problem.nranks
    assert {r["thread"] for r in rec.rows() if r["name"] == "rank.body"} == {
        f"simmpi-rank-{r}" for r in range(problem.nranks)
    }


def test_attributes_are_restored_when_the_run_raises():
    from repro.core.driver import run_executed

    before = _installed_attributes()
    problem = workloads.workload("strong16").problem()
    rec = spans.Recorder("failing")
    with pytest.raises(RuntimeError, match="exchange_period"):
        with spans.installed(rec):
            # Rejected inside every rank thread, after wrapped calls ran.
            run_executed(problem, "layout", timesteps=2, exchange_period=99)
    assert all(vars(o)[a] is fn for o, a, fn in before)
    assert spans.aggregate(rec)["rank.body"]["count"] == problem.nranks


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------
def test_two_point_fit_recovers_slope_and_intercept():
    def cost(steps):
        return 7.0 + 3.0 * steps

    assert two_point_fit(cost(4), cost(68), 4, 68) == (3.0, 7.0)


def test_summary_reports_first_quartile_with_median_quartiles_and_count():
    s = summary([4.0, 1.0, 3.0, 2.0, 5.0], "ms")
    assert (s["value"], s["median"], s["q1"], s["q3"]) == (2.0, 3.0, 2.0, 4.0)
    assert (s["n"], s["unit"]) == (5, "ms")
    assert summary([2.0], "s")["value"] == 2.0
    assert summary([1.0, 3.0], "ms")["value"] == 1.5  # never below the fastest
    assert summary([1.0, 3.0], "ms", value=9.0)["value"] == 9.0


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------
def _document(**changes):
    """A complete two-workload document; *changes* are
    ``{"workload/metric": factor}`` applied to end-to-end values."""
    doc = {"workloads": {}}
    for name in ("strong16", "bulk48"):
        end_to_end = {
            m.name: {
                "value": 10.0,
                "unit": m.unit,
                "n": 9,
                "median": 10.0,
                "q1": 9.9,
                "q3": 10.1,
            }
            for m in workloads.end_to_end_metrics()
        }
        for key, factor in changes.items():
            wl, metric = key.split("/")
            if wl == name:
                end_to_end[metric]["value"] *= factor
        per_layer = {m.name: 26 for m in workloads.per_layer_metrics() if m.exact}
        doc["workloads"][name] = {
            "untraced": {
                "end_to_end": end_to_end,
                "ops_attempted": 100,
                "ops_failed": 0,
            },
            "traced": {"per_layer": per_layer},
        }
    return doc


def _compare(tmp_path, a, b):
    paths = []
    for label, doc in (("a", a), ("b", b)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return compare.main(*paths)


def test_compare_passes_identical_documents(tmp_path, capsys):
    assert _compare(tmp_path, _document(), _document()) == 0
    assert "compare: ok" in capsys.readouterr().out


def test_compare_flags_a_planted_regression(tmp_path, capsys):
    planted = _document(**{"strong16/layout.step_ms": 1.2})
    assert _compare(tmp_path, _document(), planted) == 1
    out = capsys.readouterr().out
    assert "BREACH strong16 layout.step_ms" in out and "1.200x" in out
    # The same documents the other way round are an improvement.
    assert _compare(tmp_path, planted, _document()) == 0


def test_compare_applies_each_workloads_own_bound(tmp_path):
    # 12% is inside bulk48's 15% for step_ms and outside strong16's 10%.
    inside = _document(**{"bulk48/yask.step_ms": 1.12})
    outside = _document(**{"strong16/yask.step_ms": 1.12})
    assert _compare(tmp_path, _document(), inside) == 0
    assert _compare(tmp_path, _document(), outside) == 1


def test_compare_requires_equal_counts_and_no_more_failures(tmp_path, capsys):
    changed = _document()
    changed["workloads"]["bulk48"]["traced"]["per_layer"][
        "memmap.exchange.messages_per_rank"
    ] = 42
    assert _compare(tmp_path, _document(), changed) == 1
    assert "memmap.exchange.messages_per_rank: count 42 != base 26" in (
        capsys.readouterr().out
    )
    failing = _document()
    failing["workloads"]["strong16"]["untraced"]["ops_failed"] = 1
    assert _compare(tmp_path, _document(), failing) == 1
    assert _compare(tmp_path, failing, failing) == 0


# ---------------------------------------------------------------------------
# BENCHMARK.json and the command itself
# ---------------------------------------------------------------------------
def test_manifest_is_what_benchmark_json_holds_and_within_limits():
    manifest = workloads.manifest()
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == manifest
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    metrics = manifest["end_to_end"] + manifest["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])
    assert len(manifest["end_to_end"]) == 10 and len(manifest["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in (
        manifest["end_to_end"]
    )


def test_quick_run_prints_a_result_and_leaves_nothing_behind(tmp_path):
    out = tmp_path / "doc.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace", "1"]
        + ["--workload", "guarded16", "--method", "memmap", "--out", str(out)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # cold + warm-up + 2 rounds x (short, long) x (untraced, traced)
    assert result["attempted"] == 10
    metrics = result["metrics"]
    messages = metrics["memmap.exchange.messages_per_rank"]
    assert messages == {"value": 26, "unit": "count"}
    assert metrics["memmap.ckpt.save.cpu_ms"]["value"] > 0
    assert 0.9 <= metrics["trace.cpu_coverage"]["value"] <= 1.05
    doc = json.loads(out.read_text())
    assert doc["workloads"]["guarded16"]["traced"]["rounds"] == 2
    assert not list(ROOT.glob(".halobench-*"))
