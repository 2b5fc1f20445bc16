"""Elastic-restart benchmark: re-brick cost and end-to-end recovery.

Backs the committed ``BENCH_elastic.json`` baseline (see
``benchmarks/compare_bench.py``).  Counts are deterministic -- the
workloads are seeded, the reshape plan is a pure function, and the
recovered field is compared bit-for-bit against the serial reference --
so CI compares them exactly; only the ``_s`` keys are wall-clock and
get the timing tolerance band.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict

import numpy as np

__all__ = ["measure_elastic_stats"]

#: The 8 -> 6 scenario: (48, 32, 32) supports both (2, 2, 2) and the
#: shrunken factorizations of six, unlike the cubical chaos problem.
_EXTENT = (48, 32, 32)
_STEPS = 4
_DEATH = (3, 3)  # rank 3 dies permanently at step 3


def _best_of(fn: Callable[[], Any], repeat: int, warmup: int) -> float:
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _problem():
    from repro.core.problem import StencilProblem
    from repro.stencil.spec import SEVEN_POINT

    return StencilProblem(
        global_extent=_EXTENT,
        rank_dims=(2, 2, 2),
        stencil=SEVEN_POINT,
        brick_dim=(8, 8, 8),
        ghost=8,
    )


def _measure_rebrick(quick: bool) -> Dict[str, Any]:
    """Re-brick one verified epoch from 8 ranks onto the best 6-rank
    decomposition; bytes written and the reshape plan are exact."""
    from repro.ckpt import CheckpointStore
    from repro.core.driver import run_executed
    from repro.core.geometry import RunGeometry
    from repro.elastic import plan_recovery, rebrick
    from repro.hardware.profiles import generic_host

    warmup, repeat = (0, 1) if quick else (1, 3)
    problem = _problem()
    profile = generic_host()
    plan = plan_recovery(problem, [_DEATH[0]], None, profile.network)
    old_world = RunGeometry(problem, "layout", profile)
    new_world = RunGeometry(plan.new_problem, "layout", profile)
    out: Dict[str, Any] = {
        "old_ranks": problem.nranks,
        "new_ranks": plan.new_nranks,
        "new_rank_dims": list(plan.new_rank_dims),
        "survivors": len(plan.survivors),
    }
    with tempfile.TemporaryDirectory(prefix="repro-elastic-bench-") as root:
        run_executed(
            problem, "layout", timesteps=_STEPS, seed=0,
            checkpoint_dir=root, checkpoint_period=1,
        )
        src = CheckpointStore(root)
        epoch = _STEPS - 1  # newest epoch a period-1 run commits
        counter = [0]

        def do_rebrick() -> dict:
            counter[0] += 1
            dst = CheckpointStore(Path(root) / f"bench{counter[0]}")
            return rebrick(src, old_world, epoch, dst, new_world, seed=0)
        summary = do_rebrick()
        out["epoch"] = int(summary["epoch"])
        out["bytes_written"] = int(summary["bytes_written"])
        out["rebrick_s"] = _best_of(do_rebrick, repeat, warmup)
    return out


def _measure_run(quick: bool) -> Dict[str, Any]:
    """End-to-end elastic recovery: a scheduled permanent death at 8
    ranks, reshape to 6, finish bit-exact against the serial reference."""
    from repro.core.driver import run_executed
    from repro.faults.plan import FaultPlan
    from repro.stencil.reference import apply_periodic_reference
    from repro.stencil.spec import SEVEN_POINT

    del quick  # deterministic counts; nothing to trim
    problem = _problem()
    reference = apply_periodic_reference(
        problem.initial_global(0), SEVEN_POINT, _STEPS
    )
    plan = FaultPlan(seed=0, deaths=(_DEATH,))
    with tempfile.TemporaryDirectory(prefix="repro-elastic-bench-") as root:
        run = run_executed(
            problem, "layout", timesteps=_STEPS, seed=0, fault_plan=plan,
            checkpoint_dir=root, checkpoint_period=1, elastic=True,
        )
    return {
        "steps": _STEPS,
        "method": "layout",
        "reshapes": int(run.reshapes),
        "final_nranks": int(np.prod(run.final_rank_dims)),
        "dead_ranks": len(run.dead_ranks),
        "resumed_epoch": int(run.resumed_epoch),
        "exact": int(np.array_equal(run.global_result, reference)),
    }


def measure_elastic_stats(quick: bool = False) -> Dict[str, Any]:
    """The ``BENCH_elastic.json`` document: re-brick + recovery costs."""
    return {"rebrick": _measure_rebrick(quick), "run": _measure_run(quick)}
