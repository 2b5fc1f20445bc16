"""One workload, measured inside a fresh single-CPU subprocess.

``run.py`` starts this file as ``python3 worker.py '<json spec>'`` and
reads one JSON document from the last line of its standard output.  The
spec holds ``workload``, ``seed``, ``seconds``, ``trace``, ``methods``,
``rounds`` (fixed round count, or null for the workload's own),
``setup_only`` and ``spans`` (a file to append span records to, or null).
``run.py`` also sets the environment the program reads.

Closed loop, one client: the only load is this process calling
``run_executed``; the eight ranks are the program's own threads.

numpy and :mod:`repro` are imported inside functions: :func:`measure`
times that import, after pinning, as part of ``setup_s``.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

import spans
from fit import first_quartile, summary, two_point_fit
from workloads import (
    PROBE_REF_MS,
    RUN_LAYERS,
    RUN_WALL_LAYERS,
    STEP_LAYERS,
    workload,
)

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def pin_to_one_cpu() -> int:
    """Pin this process, and so every rank thread, to one CPU.

    With the rank threads free to roam two CPUs the same run flips between
    0.16 s and 0.40 s for seconds at a time; on one CPU it repeats within
    a few percent, and is faster.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def first_difference(result, reference) -> Optional[tuple]:
    """Index of the first element that differs bit-for-bit, or None."""
    import numpy as np

    if result.shape != reference.shape or result.dtype != reference.dtype:
        return ()
    # Compare the bit patterns, so that NaN != NaN cannot hide or fake one.
    differs = np.flatnonzero(
        result.reshape(-1).view(np.uint64) != reference.reshape(-1).view(np.uint64)
    )
    if differs.size == 0:
        return None
    return tuple(int(i) for i in np.unravel_index(differs[0], result.shape))


class Bench:
    """Runs and checks operations of one workload; counts failures."""

    def __init__(self, wl, seed: int) -> None:
        from repro.hardware.profiles import generic_host

        self.wl = wl
        self.seed = seed
        self.problem = wl.problem()
        self.profile = generic_host()
        self.references: Dict[int, object] = {}
        self.first_counts: Dict[str, tuple] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def run(self, method: str, steps: int, recorder=None):
        """One operation; returns ``(wall seconds, ExecutedRun)``.

        Only ``run_executed`` is inside the timed region.  With a
        *recorder* the layer boundaries are wrapped for this run only.
        """
        from repro.core.driver import run_executed

        ckpt = tempfile.mkdtemp(prefix="ckpt-") if self.wl.guarded else None
        call = functools.partial(
            run_executed,
            self.problem,
            method,
            self.profile,
            timesteps=steps,
            seed=self.seed,
            **self.wl.run_kwargs(ckpt),
        )
        patched = nullcontext()
        if recorder is not None:
            call = recorder.wrap("core.run_executed", call)
            patched = spans.installed(recorder)
        self.attempted += 1
        try:
            with patched:
                start = time.perf_counter()
                run = call()
                seconds = time.perf_counter() - start
        finally:
            if ckpt is not None:
                shutil.rmtree(ckpt, ignore_errors=True)
        return seconds, run

    def solve_references(self) -> float:
        """Serial reference at both step counts, shared by all methods.

        Returns its per-step wall-clock in ms: the plain single-threaded
        baseline for the same problem.
        """
        from repro.stencil.reference import apply_periodic_reference

        initial = self.problem.initial_global(self.seed)
        cost = []
        for steps in self.wl.steps:
            start = time.perf_counter()
            self.references[steps] = apply_periodic_reference(
                initial, self.problem.stencil, steps
            )
            cost.append((time.perf_counter() - start) * 1e3)
        return two_point_fit(*cost, *self.wl.steps)[0]

    def check(self, method: str, steps: int, run) -> None:
        """Fail the operation unless it is bit-identical to the reference
        and carries the counts of this method's first run."""
        where = f"{self.wl.name}/{method}/{steps} steps"
        index = first_difference(run.global_result, self.references[steps])
        if index is not None:
            self.failures.append(f"{where}: result differs from reference at {index}")
            return
        counts = (run.messages_per_rank, run.wire_bytes_per_rank, run.mapping_count)
        first = self.first_counts.setdefault(method, counts)
        if counts != first:
            self.failures.append(
                f"{where}: (messages, wire bytes, mappings) per rank {counts}"
                f" differ from the first run's {first}"
            )


def run_counts(run) -> Dict[str, float]:
    """The exact, modelled and counted values one run reports."""
    out = {
        "exchange.messages_per_rank": run.messages_per_rank,
        "exchange.wire_bytes_per_rank": run.wire_bytes_per_rank,
        "exchange.padding_fraction": run.padding_fraction,
        "vmem.mappings": run.mapping_count,
        "sends": run.fabric.total_stats().sends,
    }
    for phase in ("calc", "pack", "call", "wait"):
        out[f"model.{phase}_ms"] = run.metrics.phase(phase).avg * 1e3
    return out


#: Spans charged to a layer row, where that is not the span of its name.
_WAITS = ("simmpi.recv", "simmpi.send_wait")
_SPANS_OF = {
    "simmpi.recv": _WAITS,  # completion side: receive drain + send sweep
    "core.loop": ("rank.body",),  # per-step part of the rank function itself
    "core.rank_setup": ("rank.body",),  # ... and its per-run part
}


def layer_quantities(agg: dict, nranks: int) -> Dict[str, float]:
    """What one traced run puts into each layer row, in ms (whole run).

    *agg* is :func:`spans.aggregate` of the run.  ``cpu`` rows are
    thread-CPU self time summed over ranks; ``simmpi.wait`` is the time
    a rank spent inside receives and send sweeps without the CPU.
    """

    def self_ms(names, key="self_cpu"):
        return sum(agg[n][key] for n in names if n in agg) * 1e3

    out = {
        name: self_ms(_SPANS_OF.get(name, (name,)))
        for name in STEP_LAYERS + RUN_LAYERS
    }
    out["simmpi.wait"] = (self_ms(_WAITS, "self_wall") - self_ms(_WAITS)) / nranks
    spmd = agg["simmpi.run_spmd"]["wall"]
    out["core.main"] = (agg["core.run_executed"]["wall"] - spmd) * 1e3
    out["simmpi.launch"] = (spmd - agg["rank.body"]["max_wall"]) * 1e3
    return out


def copy_gbs() -> float:
    """Measured ``np.copyto`` bandwidth of this process, GB/s read + write."""
    import numpy as np

    src = np.ones(4 * 1024 * 1024)  # 32 MiB of float64
    dst = np.empty_like(src)
    times = []
    for _ in range(7):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def host_probe() -> float:
    """Milliseconds a fixed piece of work takes that uses none of the
    program: interpreter arithmetic, then 400 handoffs between two threads
    through a condition variable.

    The shared host runs the same code at speeds that drift by 5-10%
    between runs minutes apart, and the program's run times drift with
    this probe (r = 0.8-0.9 over 12 processes), so time metrics are
    reported at the reference probe time; see :func:`host_scale`.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i
    turn = [0]
    cv = threading.Condition()

    def player(me: int) -> None:
        for _ in range(200):
            with cv:
                while turn[0] % 2 != me:
                    cv.wait()
                turn[0] += 1
                cv.notify_all()

    players = [threading.Thread(target=player, args=(me,)) for me in (0, 1)]
    for t in players:
        t.start()
    for t in players:
        t.join()
    return (time.perf_counter() - start) * 1e3


def host_scale(probe_ms: List[float]) -> float:
    """Factor that brings times measured beside *probe_ms* to the
    reference host speed (1.0 on the host the reference was taken on)."""
    return PROBE_REF_MS / first_quartile(probe_ms)


def sample(bench: Bench, spec: dict, spans_fh) -> dict:
    """The sampling rounds: per round, for each method in turn, one short
    then one long run -- and with ``trace`` the same pair again under the
    recorder -- so that drift hits every method and length equally."""
    wl, methods, trace = bench.wl, spec["methods"], spec["trace"]
    lengths = tuple(zip(("short", "long"), wl.steps))
    out = {
        "rounds": 0,
        "samples": {m: {"short": [], "long": []} for m in methods},
        "traced_samples": {m: {"short": [], "long": []} for m in methods},
        "quantities": {m: {"short": [], "long": []} for m in methods},
        "counts": {m: {} for m in methods},
        "cpu_coverage": [],
        "probe_ms": [],
    }
    limit = wl.rounds if spec["rounds"] is None else spec["rounds"]
    started = time.perf_counter()
    while True:
        for m in methods:
            out["probe_ms"].append(host_probe())
            for key, steps in lengths:
                seconds, run = bench.run(m, steps)
                bench.check(m, steps, run)
                out["samples"][m][key].append(seconds * 1e3)
                out["counts"][m].setdefault(key, run_counts(run))
            if not trace:
                continue
            for key, steps in lengths:
                recorder = spans.Recorder(f"{wl.name}/{m}/{steps}/{out['rounds']}")
                seconds, run = bench.run(m, steps, recorder)
                bench.check(m, steps, run)
                out["traced_samples"][m][key].append(seconds * 1e3)
                agg = spans.aggregate(recorder)
                out["quantities"][m][key].append(
                    layer_quantities(agg, bench.problem.nranks)
                )
                busy = sum(a["self_cpu"] for a in agg.values())
                out["cpu_coverage"].append(busy / agg["core.run_executed"]["wall"])
                if spans_fh is not None:
                    recorder.dump(spans_fh)
        out["rounds"] += 1
        elapsed = time.perf_counter() - started
        # Stop at the workload's round count, or before the round that
        # would overrun --seconds (unless --quick fixed the count).
        if out["rounds"] >= limit or (
            spec["rounds"] is None
            and elapsed + elapsed / out["rounds"] > spec["seconds"]
        ):
            return out


def end_to_end_metrics(sampled: dict, wl, scale: float) -> Dict[str, dict]:
    out = {}
    for m, runs in sampled["samples"].items():
        short = [ms * scale for ms in runs["short"]]
        long = [ms * scale for ms in runs["long"]]
        step_ms, _ = two_point_fit(
            first_quartile(short), first_quartile(long), *wl.steps
        )
        per_round = [(b - a) / (wl.steps[1] - wl.steps[0]) for a, b in zip(short, long)]
        out[f"{m}.step_ms"] = summary(per_round, "ms", value=step_ms)
        out[f"{m}.short_run_ms"] = summary(short, "ms")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = summary([peak_kb / 1024], "MB")
    return out


def per_layer_metrics(
    sampled: dict, bench: Bench, scale: float, reference_step_ms: float
) -> dict:
    """Layer rows per method -- per-step rows are the slope between the
    traced short and long runs, per-run rows the intercept, mirroring the
    end-to-end fit -- and the global rows."""
    wl = bench.wl
    moved = bench.problem.global_points * bench.problem.stencil.bytes_per_point

    def fit(runs: dict, key=None):
        level = [
            scale * first_quartile([r[key] if key else r for r in runs[length]])
            for length in ("short", "long")
        ]
        return two_point_fit(*level, *wl.steps)

    out = {}
    overhead = []
    for m, quantities in sampled["quantities"].items():
        step_ms, run_setup_ms = fit(sampled["samples"][m])
        rows = {f"{x}.cpu_ms": fit(quantities, x)[0] for x in STEP_LAYERS}
        rows["simmpi.wait_ms"] = fit(quantities, "simmpi.wait")[0]
        rows.update({f"{x}.cpu_ms": fit(quantities, x)[1] for x in RUN_LAYERS})
        rows.update({f"{x}.ms": fit(quantities, x)[1] for x in RUN_WALL_LAYERS})
        rows["run_setup_ms"] = run_setup_ms
        counts = sampled["counts"][m]
        rows["simmpi.sends_per_step"] = two_point_fit(
            counts["short"]["sends"], counts["long"]["sends"], *wl.steps
        )[0]
        rows.update({k: v for k, v in counts["long"].items() if k != "sends"})
        rows["stencil.gbytes_per_s"] = moved / rows["stencil.execute.cpu_ms"] / 1e6
        rows["budget.step_cover"] = (
            sum(rows[f"{x}.cpu_ms"] for x in STEP_LAYERS) / step_ms
        )
        rows["budget.setup_cover"] = (
            sum(rows[f"{x}.cpu_ms"] for x in RUN_LAYERS)
            + sum(rows[f"{x}.ms"] for x in RUN_WALL_LAYERS)
        ) / run_setup_ms
        out.update({f"{m}.{key}": value for key, value in rows.items()})
        overhead.append(
            first_quartile(sampled["traced_samples"][m]["long"])
            / first_quartile(sampled["samples"][m]["long"])
        )
    out.update(
        {
            "trace.cpu_coverage": min(sampled["cpu_coverage"]),
            "trace.overhead_ratio": max(overhead),
            "host.copy_gbs": copy_gbs(),
            "host.probe_ms": PROBE_REF_MS / scale,
            "reference.step_ms": reference_step_ms * scale,
            "host.switch_interval_ms": sys.getswitchinterval() * 1e3,
        }
    )
    return out


def measure(spec: dict) -> dict:
    started = time.perf_counter()
    cpu = pin_to_one_cpu()
    sys.path.insert(0, str(REPO_SRC))
    import numpy as np
    import repro
    import repro.core.driver  # noqa: F401 - the import users pay for
    from repro.stencil.cbackend import backend_choice

    if Path(repro.__file__).resolve().parent.parent != REPO_SRC:
        raise RuntimeError(f"imported repro from {repro.__file__}, not {REPO_SRC}")
    import_s = time.perf_counter() - started

    wl = workload(spec["workload"])
    bench = Bench(wl, spec["seed"])
    # Cold first call per method: timed on its own, never sampled.
    cold = {m: bench.run(m, wl.steps[0]) for m in spec["methods"]}
    cold_ms = {m: seconds * 1e3 for m, (seconds, _) in cold.items()}
    setup_probe_ms = [host_probe() for _ in range(9)]
    doc = {
        "workload": wl.name,
        "seed": spec["seed"],
        "env": {
            "kernel_backend": backend_choice(),
            "cpu": cpu,
            "switch_interval_s": sys.getswitchinterval(),
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "setup": {
            "import_s": import_s,
            "cold_ms": cold_ms,
            "probe_ms": setup_probe_ms,
            "setup_s": (import_s + sum(cold_ms.values()) / 1e3)
            * host_scale(setup_probe_ms),
        },
    }
    if spec["setup_only"]:
        return doc

    reference_step_ms = bench.solve_references()
    for m, (_, run) in cold.items():
        bench.check(m, wl.steps[0], run)
    del cold
    # The reference solve disturbs the allocator: one unsampled short run
    # per method lets it settle before the first sampled round.
    for m in spec["methods"]:
        bench.check(m, wl.steps[0], bench.run(m, wl.steps[0])[1])

    spans_fh = open(spec["spans"], "a") if spec["spans"] else None
    try:
        sampled = sample(bench, spec, spans_fh)
    finally:
        if spans_fh is not None:
            spans_fh.close()
    scale = host_scale(sampled["probe_ms"])
    doc.update(
        {
            "rounds": sampled["rounds"],
            "ops_attempted": bench.attempted,
            "ops_failed": len(bench.failures),
            "failures": bench.failures,
            "end_to_end": end_to_end_metrics(sampled, wl, scale),
            "samples": sampled["samples"],
            "probe_ms": sampled["probe_ms"],
            "reference_step_ms": reference_step_ms,
        }
    )
    if spec["trace"]:
        doc["per_layer"] = per_layer_metrics(sampled, bench, scale, reference_step_ms)
        doc["traced_samples"] = sampled["traced_samples"]
        doc["cpu_coverage_per_run"] = sampled["cpu_coverage"]
    return doc


if __name__ == "__main__":
    print(json.dumps(measure(json.loads(sys.argv[1]))))
