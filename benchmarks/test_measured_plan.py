"""Measured steady-state speedup of compiled execution plans.

Times the per-step brick compute path -- planned (stage a halo tile
through the adjacency rows, then sweep the taps over it: one generated
kernel call on the C tier, one fancy-index copy per reached direction
and a tap loop into persistent buffers on the NumPy tier) vs generic
(:func:`apply_brick_stencil`) -- on the Fig. 9-style strong-scaled
configuration: a 16^3 subdomain of 8^3 bricks with ghost 8, where the
halo dominates and on-node data movement is the whole game.

Writes ``BENCH_plan.json`` at the repo root and asserts the plan path is
at least 2x faster in steady state.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.brick.decomp import BrickDecomp
from repro.stencil.brick_kernels import apply_brick_stencil
from repro.stencil.kernels import apply_array_stencil
from repro.stencil.plan import compile_array_plan, compile_brick_plan
from repro.stencil.spec import SEVEN_POINT

BENCH_JSON = Path(__file__).parents[1] / "BENCH_plan.json"

# Fig. 9 strong-scaling regime: tiny 16^3 subdomain, brick-sized ghost.
EXTENT, BRICK, GHOST = (16, 16, 16), (8, 8, 8), 8
WARMUP, REPEAT = 5, 30


def _best_of(fn, repeat=REPEAT, warmup=WARMUP):
    """Best-of-N steady-state seconds per call (min filters OS noise)."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def record():
    results = {}
    yield results
    BENCH_JSON.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {BENCH_JSON}")


def test_bench_brick_plan_speedup(record):
    """The headline number: planned vs generic brick step, >= 2x."""
    decomp = BrickDecomp(EXTENT, BRICK, GHOST)
    rng = np.random.default_rng(0)
    src, asn = decomp.allocate()
    dst, _ = decomp.allocate()
    src.data[:] = rng.random(src.data.shape)
    info = decomp.brick_info(asn)
    slots = decomp.compute_slots(asn)
    plan = compile_brick_plan(SEVEN_POINT, info, slots)

    t_generic = _best_of(
        lambda: apply_brick_stencil(SEVEN_POINT, src, dst, info, slots)
    )
    t_planned = _best_of(lambda: plan.execute(src, dst))

    # numerics stay bit-identical while we are at it
    ref, _ = decomp.allocate()
    apply_brick_stencil(SEVEN_POINT, src, ref, info, slots)
    plan.execute(src, dst)
    np.testing.assert_array_equal(dst.data, ref.data)

    speedup = t_generic / t_planned
    record["brick_step"] = {
        "extent": EXTENT,
        "brick_dim": BRICK,
        "ghost": GHOST,
        "stencil": SEVEN_POINT.name,
        "slots": int(len(slots)),
        "generic_s": t_generic,
        "planned_s": t_planned,
        "speedup": speedup,
    }
    print(
        f"\nbrick step: generic {t_generic * 1e6:.1f} us,"
        f" planned {t_planned * 1e6:.1f} us -> {speedup:.2f}x"
    )
    assert speedup >= 2.0, (
        f"planned brick step only {speedup:.2f}x faster"
        f" ({t_generic:.2e}s -> {t_planned:.2e}s)"
    )


def test_bench_array_plan(record):
    """Element-path plan vs generic: >= 2x on the C kernel tier (the
    NumPy tier is slower than the generic kernel here and only recorded)."""
    g = GHOST
    shape = tuple(e + 2 * g for e in reversed(EXTENT))
    rng = np.random.default_rng(1)
    arr, out = rng.random(shape), np.zeros(shape)
    plan = compile_array_plan(SEVEN_POINT, EXTENT, g)

    t_generic = _best_of(
        lambda: apply_array_stencil(arr, out, SEVEN_POINT, EXTENT, g)
    )
    t_planned = _best_of(lambda: plan.execute(arr, out))
    record["array_step"] = {
        "extent": EXTENT,
        "ghost": g,
        "generic_s": t_generic,
        "planned_s": t_planned,
        "speedup": t_generic / t_planned,
    }
    if plan.kernel_backend.startswith("cffi"):
        assert t_generic / t_planned >= 2.0
