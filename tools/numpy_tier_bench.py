#!/usr/bin/env python
"""Step and compile time of the NumPy kernel tier, one source tree or two.

    PYTHONPATH=src python tools/numpy_tier_bench.py strong16
    python tools/numpy_tier_bench.py --ab PARENT/src CHANGE/src [REPS]

No halobench workload reaches this tier (halobench pins ``cffi``), so
this is where a change to it is measured (EXPERIMENTS.md, "One
addressing scheme").  One geometry per fresh process pinned to CPU 0:
the process's first ("cold") brick and array plan compile, then medians
of 15 warm compiles and of 15 samples of 40 steps, each result checked
bit-for-bit against the generic kernels.  ``--ab`` alternates two trees,
REPS fresh processes each per geometry (default 7), and prints the
medians of those.
"""

import json
import os
import statistics
import subprocess
import sys
import time

GEOMETRIES = {  # halobench's per-rank subdomains: 8^3 bricks, ghost 8
    "strong16": (16, "SEVEN_POINT"),
    "bulk48": (48, "SEVEN_POINT"),
    "cube16": (16, "CUBE125"),
}


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return (time.perf_counter() - t0) * 1e3, result


def median_ms(fn, reps=15, calls=1):
    """Median over *reps* samples of the time per call, *calls* a sample."""

    def sample():
        for _ in range(calls):
            fn()

    return statistics.median(timed(sample)[0] / calls for _ in range(reps))


def measure(name):
    os.environ["REPRO_KERNEL_BACKEND"] = "numpy"
    import numpy as np

    from repro.brick.decomp import BrickDecomp
    from repro.stencil import spec as specs
    from repro.stencil.brick_kernels import apply_brick_stencil
    from repro.stencil.kernels import apply_array_stencil
    from repro.stencil.plan import compile_array_plan, compile_brick_plan

    n, stencil = GEOMETRIES[name]
    spec, extent, ghost = getattr(specs, stencil), (n,) * 3, 8
    decomp = BrickDecomp(extent, (8, 8, 8), ghost)
    src, asn = decomp.allocate()
    dst, ref = decomp.allocate()[0], decomp.allocate()[0]
    rng = np.random.default_rng(0)
    src.data[:] = rng.random(src.data.shape)
    info, slots = decomp.brick_info(asn), decomp.compute_slots(asn)
    arr = rng.random((n + 2 * ghost,) * 3)
    out, out_ref = np.zeros_like(arr), np.zeros_like(arr)

    brick_cold, plan = timed(lambda: compile_brick_plan(spec, info, slots))
    array_cold, aplan = timed(lambda: compile_array_plan(spec, extent, ghost))
    assert plan.kernel_backend == aplan.kernel_backend == "numpy"
    plan.execute(src, dst)
    aplan.execute(arr, out)
    apply_brick_stencil(spec, src, ref, info, slots)
    apply_array_stencil(arr, out_ref, spec, extent, ghost)
    assert (dst.data.view(np.uint64) == ref.data.view(np.uint64)).all()
    assert (out.view(np.uint64) == out_ref.view(np.uint64)).all()
    return {
        "brick_step_ms": median_ms(lambda: plan.execute(src, dst), calls=40),
        "array_step_ms": median_ms(lambda: aplan.execute(arr, out), calls=40),
        "brick_compile_cold_ms": brick_cold,
        "brick_compile_warm_ms": median_ms(
            lambda: compile_brick_plan(spec, info, slots)
        ),
        "array_compile_cold_ms": array_cold,
        "array_compile_warm_ms": median_ms(
            lambda: compile_array_plan(spec, extent, ghost)
        ),
    }


def compare(parent_src, change_src, reps):
    trees = {"parent": parent_src, "change": change_src}
    for name in GEOMETRIES:
        runs = {side: [] for side in trees}
        for i in range(reps):
            for side in ("parent", "change") if i % 2 else ("change", "parent"):
                proc = subprocess.run(
                    [sys.executable, __file__, name],
                    env={**os.environ, "PYTHONPATH": trees[side]},
                    capture_output=True, text=True, check=True,
                )
                runs[side].append(json.loads(proc.stdout))
        for key in runs["parent"][0]:
            p, c = (
                statistics.median(r[key] for r in runs[side]) for side in trees
            )
            print(f"{name:9s} {key:22s} {p:8.3f} -> {c:8.3f}  {c / p:.2f}x")


if __name__ == "__main__":
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if sys.argv[1] == "--ab":
        compare(sys.argv[2], sys.argv[3], int((sys.argv[4:] or [7])[0]))
    else:
        print(json.dumps(measure(sys.argv[1])))
