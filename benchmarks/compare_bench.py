#!/usr/bin/env python
"""Diff fresh benchmark runs against the committed ``BENCH_*.json`` baselines.

CI's perf-regression gate.  Re-measures the benchmark suites that have a
committed baseline at the repo root -- ``BENCH_plan.json`` (compiled
execution plans, same configuration as
``benchmarks/test_measured_plan.py``), ``BENCH_trace.json`` (traced
executed run, same configuration as
:data:`repro.bench.tracebench.DEFAULT_TRACE_CONFIG`) and
``BENCH_chaos.json`` (seeded fault-injection soak; all keys are
deterministic counts, compared exactly), ``BENCH_ckpt.json``
(checkpoint snapshot bytes -- deterministic, exact -- plus save/restore
wall-clock), ``BENCH_overlap.json`` (phased interior/surface overlap:
executed bit-identity plus the modelled strong-scaling
hidden-communication fractions, same configuration as
:mod:`repro.bench.overlapbench`) and
``BENCH_elastic.json`` (elastic restart: re-brick bytes and the
end-to-end 8-to-6-rank recovery, all deterministic counts except the
``rebrick_s`` timing; see :mod:`repro.elastic.bench`) -- and walks
every baseline key, comparing by key shape:

* absolute timings (leaf key or any ancestor key ending ``_s``): lower is
  better, fresh may exceed baseline by at most ``--tolerance``; dropped
  entirely under ``--skip-absolute`` (shared CI runners make absolute
  seconds meaningless, ratios stay meaningful);
* ratios (key ending ``_ratio``): lower is better, same band, never
  skipped;
* speedups (key containing ``speedup``): higher is better, fresh may fall
  short of baseline by at most ``--tolerance``, never skipped;
* everything else (counts, configs, extents, names): exact -- these are
  deterministic, any drift is a real behaviour change;
* a baseline key missing from the fresh run is always a violation.

Exit status is nonzero when any violation is found, so CI can gate on it.
``--update`` rewrites the baselines from the fresh measurements instead.

Usage::

    python benchmarks/compare_bench.py --quick --skip-absolute  # CI, PRs
    python benchmarks/compare_bench.py                          # full
    python benchmarks/compare_bench.py --update                 # new baseline
    python benchmarks/compare_bench.py --fresh results.json     # offline diff
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[1]

#: baseline file stem -> measurement function name (resolved lazily so
#: ``--fresh`` diffs need no importable repro package at all)
SUITES = ("BENCH_plan", "BENCH_trace", "BENCH_chaos", "BENCH_ckpt",
          "BENCH_overlap", "BENCH_elastic")


def _ensure_repro_importable() -> None:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(REPO_ROOT / "src"))


# ---------------------------------------------------------------------------
# measurement (mirrors the committed baselines' configurations exactly;
# quick mode only trims repetitions, never the measured configuration,
# because configuration keys are exact-compared)
# ---------------------------------------------------------------------------

def _best_of(fn: Callable[[], Any], repeat: int, warmup: int) -> float:
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_plan(quick: bool = False) -> Dict[str, Any]:
    """Re-measure ``BENCH_plan.json`` (see benchmarks/test_measured_plan.py)."""
    _ensure_repro_importable()
    import numpy as np

    from repro.brick.decomp import BrickDecomp
    from repro.stencil.brick_kernels import apply_brick_stencil
    from repro.stencil.kernels import apply_array_stencil
    from repro.stencil.plan import compile_array_plan, compile_brick_plan
    from repro.stencil.spec import SEVEN_POINT

    extent, brick, ghost = (16, 16, 16), (8, 8, 8), 8
    warmup, repeat = (2, 8) if quick else (5, 30)
    results: Dict[str, Any] = {}

    decomp = BrickDecomp(extent, brick, ghost)
    rng = np.random.default_rng(0)
    src, asn = decomp.allocate()
    dst, _ = decomp.allocate()
    src.data[:] = rng.random(src.data.shape)
    info = decomp.brick_info(asn)
    slots = decomp.compute_slots(asn)
    plan = compile_brick_plan(SEVEN_POINT, info, slots)
    t_generic = _best_of(
        lambda: apply_brick_stencil(SEVEN_POINT, src, dst, info, slots),
        repeat, warmup,
    )
    t_planned = _best_of(lambda: plan.execute(src, dst), repeat, warmup)
    results["brick_step"] = {
        "extent": list(extent),
        "brick_dim": list(brick),
        "ghost": ghost,
        "stencil": SEVEN_POINT.name,
        "slots": int(len(slots)),
        "generic_s": t_generic,
        "planned_s": t_planned,
        "speedup": t_generic / t_planned,
    }

    shape = tuple(e + 2 * ghost for e in reversed(extent))
    rng = np.random.default_rng(1)
    arr, out = rng.random(shape), np.zeros(shape)
    aplan = compile_array_plan(SEVEN_POINT, extent, ghost)
    t_generic = _best_of(
        lambda: apply_array_stencil(arr, out, SEVEN_POINT, extent, ghost),
        repeat, warmup,
    )
    t_planned = _best_of(lambda: aplan.execute(arr, out), repeat, warmup)
    results["array_step"] = {
        "extent": list(extent),
        "ghost": ghost,
        "generic_s": t_generic,
        "planned_s": t_planned,
        "speedup": t_generic / t_planned,
    }
    return results


def measure_trace(quick: bool = False) -> Dict[str, Any]:
    """Re-measure ``BENCH_trace.json`` (traced run + tracing overhead)."""
    _ensure_repro_importable()
    from repro.bench.tracebench import DEFAULT_TRACE_CONFIG, traced_run_stats

    # Span/counter counts are deterministic for this configuration, so
    # quick mode changes nothing here; overhead is interleaved best-of-3
    # either way (the whole run is ~a second).
    del quick
    stats, _run = traced_run_stats(**DEFAULT_TRACE_CONFIG, overhead=True)
    return stats


def measure_chaos(quick: bool = False) -> Dict[str, Any]:
    """Re-run ``BENCH_chaos.json``: the seeded fault-injection soak.

    Everything here is a deterministic count (injected/healed event
    totals, outcomes, schedule digests) -- no ``_s`` keys -- so the
    comparison is exact: any drift in the fault schedule or the healing
    protocol is a behaviour change, not noise.  The per-trial
    determinism rerun is left to the CI chaos job; this suite asserts
    cross-run (committed-baseline) reproducibility instead.
    """
    _ensure_repro_importable()
    from repro.faults.chaos import ChaosConfig, run_soak

    del quick  # counts are deterministic; nothing to trim
    config = ChaosConfig(
        trials=7, seed=0, steps=2, timeout_s=20.0, check_determinism=False
    )
    report = run_soak(config)
    return {
        "trials": config.trials,
        "seed": config.seed,
        "steps": config.steps,
        "outcomes": report.counts(),
        "passed": report.passed,
        "per_trial": [
            {
                "preset": t.preset,
                "method": t.method,
                "outcome": t.outcome,
                "events": t.events,
                "schedule_digest": t.digest,
                "demotions": t.demotions,
                "final_method": t.final_method,
            }
            for t in report.trials
        ],
    }


def measure_ckpt(quick: bool = False) -> Dict[str, Any]:
    """Re-measure ``BENCH_ckpt.json``: checkpoint bytes and timings.

    Snapshot byte counts are content-addressed and the workloads are
    seeded, so every non-``_s`` key is deterministic and exact-compared;
    in particular the incremental-vs-full byte reduction on the
    surface-only-change workload is a gated behaviour, not a timing.
    """
    _ensure_repro_importable()
    from repro.ckpt.bench import measure_ckpt_stats

    return measure_ckpt_stats(quick=quick)


def measure_overlap(quick: bool = False) -> Dict[str, Any]:
    """Re-measure ``BENCH_overlap.json``: phased overlap efficiency.

    The executed arm's ``phased``/``bit_identical``/count keys and the
    modelled arm's hidden fractions (pure deterministic arithmetic) are
    exact-compared; only the executed wall-clock medians carry the
    timing band.  ``hidden_fraction_gate`` pins the aggregate modelled
    hidden-communication fraction above 0.5 on the strong-scaling
    regime.  See :mod:`repro.bench.overlapbench`.
    """
    _ensure_repro_importable()
    from repro.bench.overlapbench import measure_overlap_stats

    return measure_overlap_stats(quick=quick)


def measure_elastic(quick: bool = False) -> Dict[str, Any]:
    """Re-measure ``BENCH_elastic.json``: elastic-restart behaviour.

    The reshape plan, re-bricked byte count, negotiated epoch, reshape
    count and bit-exactness flag are all deterministic (seeded workload,
    pure placement function) and exact-compared; only ``rebrick_s``
    carries the timing band.  See :mod:`repro.elastic.bench`.
    """
    _ensure_repro_importable()
    from repro.elastic.bench import measure_elastic_stats

    return measure_elastic_stats(quick=quick)


MEASURERS: Dict[str, Callable[[bool], Dict[str, Any]]] = {
    "BENCH_plan": measure_plan,
    "BENCH_trace": measure_trace,
    "BENCH_chaos": measure_chaos,
    "BENCH_ckpt": measure_ckpt,
    "BENCH_overlap": measure_overlap,
    "BENCH_elastic": measure_elastic,
}


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

class Violation:
    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


def _is_timing_path(keys: List[str]) -> bool:
    """Absolute wall-clock leaf: its key or any ancestor key ends ``_s``."""
    return any(k.endswith("_s") for k in keys)


def compare_docs(
    baseline: Any,
    fresh: Any,
    tolerance: float = 0.5,
    skip_absolute: bool = False,
    _keys: Optional[List[str]] = None,
) -> List[Violation]:
    """All tolerance/exactness violations of *fresh* against *baseline*."""
    keys = _keys or []
    path = ".".join(keys) or "<root>"

    if isinstance(baseline, dict):
        if not isinstance(fresh, dict):
            return [Violation(path, f"expected mapping, got {type(fresh).__name__}")]
        out: List[Violation] = []
        for key, base_val in baseline.items():
            if key not in fresh:
                out.append(Violation(".".join(keys + [key]),
                                     "missing from fresh results"))
                continue
            out.extend(compare_docs(base_val, fresh[key], tolerance,
                                    skip_absolute, keys + [key]))
        return out

    if isinstance(baseline, list):
        if not isinstance(fresh, list) or len(fresh) != len(baseline):
            return [Violation(path, f"expected {baseline!r}, got {fresh!r}")]
        out = []
        for i, (b, f) in enumerate(zip(baseline, fresh)):
            out.extend(compare_docs(b, f, tolerance, skip_absolute,
                                    keys + [str(i)]))
        return out

    leaf = keys[-1] if keys else ""
    is_number = isinstance(baseline, (int, float)) and not isinstance(
        baseline, bool
    )
    if is_number and not isinstance(fresh, (int, float)):
        return [Violation(path, f"expected number, got {fresh!r}")]

    if is_number and "speedup" in leaf:
        floor = baseline * (1.0 - tolerance)
        if fresh < floor:
            return [Violation(
                path,
                f"speedup regressed: {fresh:.3f} < {floor:.3f}"
                f" (baseline {baseline:.3f}, tolerance {tolerance:.0%})",
            )]
        return []

    if is_number and leaf.endswith("_ratio"):
        ceiling = baseline * (1.0 + tolerance)
        if fresh > ceiling:
            return [Violation(
                path,
                f"ratio regressed: {fresh:.3f} > {ceiling:.3f}"
                f" (baseline {baseline:.3f}, tolerance {tolerance:.0%})",
            )]
        return []

    if is_number and _is_timing_path(keys):
        if skip_absolute:
            return []
        ceiling = baseline * (1.0 + tolerance)
        if fresh > ceiling:
            return [Violation(
                path,
                f"slower than baseline: {fresh:.6f}s > {ceiling:.6f}s"
                f" (baseline {baseline:.6f}s, tolerance {tolerance:.0%})",
            )]
        return []

    if baseline != fresh:
        return [Violation(path, f"expected {baseline!r}, got {fresh!r}")]
    return []


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare fresh benchmark runs against BENCH_*.json"
        " baselines; nonzero exit on regression",
    )
    parser.add_argument("--baselines", type=Path, default=REPO_ROOT,
                        help="directory holding BENCH_*.json (repo root)")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="fractional tolerance band (default 0.5)")
    parser.add_argument("--quick", action="store_true",
                        help="fewer repetitions (same configurations)")
    parser.add_argument("--skip-absolute", action="store_true",
                        help="ignore absolute *_s timings; still compare"
                             " counts, ratios and speedups")
    parser.add_argument("--fresh", type=Path, default=None,
                        help="JSON of fresh results keyed by baseline stem"
                             " (skip measuring)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baselines from fresh measurements")
    parser.add_argument("--only", choices=SUITES, action="append",
                        help="restrict to one suite (repeatable)")
    args = parser.parse_args(argv)

    suites = tuple(args.only) if args.only else SUITES
    fresh_all: Dict[str, Any] = {}
    if args.fresh is not None:
        fresh_all = json.loads(args.fresh.read_text())

    failures = 0
    for stem in suites:
        baseline_path = args.baselines / f"{stem}.json"
        if stem in fresh_all:
            fresh = fresh_all[stem]
            print(f"{stem}: using fresh results from {args.fresh}")
        else:
            print(f"{stem}: measuring{' (quick)' if args.quick else ''} ...")
            fresh = MEASURERS[stem](args.quick)

        if args.update:
            baseline_path.write_text(json.dumps(fresh, indent=2) + "\n")
            print(f"{stem}: baseline updated -> {baseline_path}")
            continue

        if not baseline_path.exists():
            print(f"{stem}: FAIL — no baseline at {baseline_path}"
                  f" (run with --update to create it)")
            failures += 1
            continue

        baseline = json.loads(baseline_path.read_text())
        violations = compare_docs(baseline, fresh, args.tolerance,
                                  args.skip_absolute)
        if violations:
            failures += 1
            print(f"{stem}: FAIL — {len(violations)} violation(s)")
            for v in violations:
                print(f"  {v}")
        else:
            print(f"{stem}: OK (tolerance {args.tolerance:.0%},"
                  f" absolute timings"
                  f" {'skipped' if args.skip_absolute else 'compared'})")

    if failures and not args.update:
        print(f"{failures} suite(s) regressed against committed baselines")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
