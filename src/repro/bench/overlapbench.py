"""Overlap-efficiency benchmark: phased interior/surface execution.

The committed ``BENCH_overlap.json`` baseline gates the phased exchange
layer (partitioned persistent channels + interior/surface split plans)
along two axes:

* **Executed arm** -- ``run_executed`` with ``overlap=True`` against the
  unphased run on a configuration with a genuine interior (64^3 global
  over 2^3 ranks of 8^3 bricks, ghost 8: 64 bricks per rank of which
  2^3 = 8 are interior).  The phased result must be bit-identical, the
  run must actually take the phased path (``phased`` true), and the
  modelled hidden-communication seconds must be positive.
* **Modelled arm** -- the strong-scaling regime the overlap-efficiency
  figure family studies: a 512^3 global domain split over 8..512 ranks.
  At each scale the modelled exchange wait is overlapped with the
  modelled interior sweep (:func:`repro.exchange.costs.overlap_times`);
  the per-scale and aggregate hidden fractions are deterministic pure
  arithmetic, so CI compares them exactly.  The gate is the aggregate
  hidden fraction staying above 0.5: at small scale the interior sweep
  hides the whole wait, at 512 ranks the subdomain is all surface and
  almost nothing hides, and the committed aggregate (~0.68) captures
  that curve.

Measurement discipline: one untimed warmup run per arm doubles as the
bit-identity check, then the arms are sampled interleaved and reported
as per-arm medians.  No ``speedup`` key
is emitted for the executed arm -- the simulated fabric delivers
messages instantly, so phasing is about protocol correctness and the
modelled overlap economics, not in-process wall clock.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Any, Dict, List, Tuple

__all__ = [
    "DEFAULT_OVERLAP_CONFIG",
    "STRONG_SCALING_RANK_DIMS",
    "measure_overlap_stats",
]

#: Executed-arm configuration: the smallest geometry whose per-rank
#: brick grid (4^3) has a non-empty interior (2^3) at ghost 8.
DEFAULT_OVERLAP_CONFIG: Dict[str, Any] = {
    "method": "layout",
    "global_extent": (64, 64, 64),
    "rank_dims": (2, 2, 2),
    "brick_dim": (8, 8, 8),
    "ghost": 8,
    "timesteps": 8,
}

#: Modelled-arm rank grids: 512^3 strong scaling, doubling one axis at a
#: time from 8 to 512 ranks (the paper's Figure 9 regime).
STRONG_SCALING_RANK_DIMS: Tuple[Tuple[int, int, int], ...] = (
    (2, 2, 2),
    (2, 2, 4),
    (2, 4, 4),
    (4, 4, 4),
    (4, 4, 8),
    (4, 8, 8),
    (8, 8, 8),
)

#: Modelled-arm global domain.
STRONG_SCALING_EXTENT: Tuple[int, int, int] = (512, 512, 512)


def _interior_points(
    extent: Tuple[int, ...], brick_dim: Tuple[int, ...], ghost: int
) -> int:
    """Points in bricks with no ghost-adjacent face at brick width
    ``ghost // brick_dim`` (the phased interior sweep's workload)."""
    width = ghost // brick_dim[0]
    per_dim = [max(0, e // b - 2 * width) for e, b in zip(extent, brick_dim)]
    return math.prod(per_dim) * math.prod(brick_dim)


def _modelled_scales(quick: bool = False) -> Tuple[List[Dict[str, Any]], float]:
    """(per-scale rows, aggregate hidden fraction) of the modelled arm."""
    from repro.core.methods import method_info
    from repro.core.model import compute_time, exchange_breakdown
    from repro.exchange.costs import overlap_times
    from repro.hardware.profiles import generic_host
    from repro.stencil.spec import SEVEN_POINT

    del quick  # pure arithmetic; nothing to trim
    profile = generic_host()
    info = method_info("layout")
    brick_dim = (8, 8, 8)
    ghost = 8
    rows: List[Dict[str, Any]] = []
    total_wait = 0.0
    total_hidden = 0.0
    for dims in STRONG_SCALING_RANK_DIMS:
        extent = tuple(
            g // d for g, d in zip(STRONG_SCALING_EXTENT, dims)
        )
        bd = exchange_breakdown(
            profile, "layout", extent, brick_dim, ghost,
            itemsize=SEVEN_POINT.itemsize,
        )
        pts = _interior_points(extent, brick_dim, ghost)
        icalc = compute_time(profile, info, pts, SEVEN_POINT)
        visible, hidden = overlap_times(bd.wait, icalc)
        total_wait += bd.wait
        total_hidden += hidden
        rows.append({
            "ranks": math.prod(dims),
            "rank_dims": list(dims),
            "extent_per_rank": list(extent),
            "interior_points": pts,
            "wait_s": bd.wait,
            "interior_calc_s": icalc,
            "visible_wait_s": visible,
            "hidden_fraction": round(hidden / bd.wait, 6) if bd.wait else 0.0,
        })
    aggregate = round(total_hidden / total_wait, 6) if total_wait else 0.0
    return rows, aggregate


def measure_overlap_stats(quick: bool = False) -> Dict[str, Any]:
    """Measure the phased-overlap benchmark document."""
    import numpy as np

    from repro.core.driver import run_executed
    from repro.core.problem import StencilProblem
    from repro.hardware.profiles import generic_host
    from repro.stencil.spec import SEVEN_POINT

    cfg = DEFAULT_OVERLAP_CONFIG
    problem = StencilProblem(
        global_extent=cfg["global_extent"],
        rank_dims=cfg["rank_dims"],
        stencil=SEVEN_POINT,
        brick_dim=cfg["brick_dim"],
        ghost=cfg["ghost"],
    )
    host = generic_host()
    steps = cfg["timesteps"]  # exact-compared configuration key

    def run(overlap: bool):
        t0 = time.perf_counter()
        out = run_executed(
            problem, cfg["method"], host, timesteps=steps, overlap=overlap,
        )
        return time.perf_counter() - t0, out

    # Warmup + bit-identity check in one pass per arm.
    _, r_on = run(True)
    _, r_off = run(False)
    bit_identical = bool(
        np.array_equal(r_on.global_result, r_off.global_result)
    )

    reps = 3 if quick else 5
    on_s, off_s = [], []
    for _ in range(reps):  # interleaved so machine drift hits both arms
        on_s.append(run(True)[0])
        off_s.append(run(False)[0])

    extent_per_rank = tuple(
        g // d for g, d in zip(cfg["global_extent"], cfg["rank_dims"])
    )
    bricks = math.prod(
        e // b for e, b in zip(extent_per_rank, cfg["brick_dim"])
    )
    interior = _interior_points(
        extent_per_rank, cfg["brick_dim"], cfg["ghost"]
    ) // math.prod(cfg["brick_dim"])

    scales, aggregate = _modelled_scales(quick)
    return {
        "phased_layout": {
            "method": cfg["method"],
            "global_extent": list(cfg["global_extent"]),
            "rank_dims": list(cfg["rank_dims"]),
            "brick_dim": list(cfg["brick_dim"]),
            "ghost": cfg["ghost"],
            "timesteps": steps,
            "bricks_per_rank": int(bricks),
            "interior_bricks_per_rank": int(interior),
            "surface_bricks_per_rank": int(bricks - interior),
            "phased": bool(r_on.overlap),
            "bit_identical": bit_identical,
            "messages_per_rank": int(r_on.messages_per_rank),
            "wire_bytes_per_rank": int(r_on.wire_bytes_per_rank),
            "hidden_comm_positive": bool(r_on.hidden_comm_s > 0.0),
            "phased_run_s": statistics.median(on_s),
            "unphased_run_s": statistics.median(off_s),
        },
        "modelled_strong_scaling": {
            "method": "layout",
            "global_extent": list(STRONG_SCALING_EXTENT),
            "brick_dim": [8, 8, 8],
            "ghost": 8,
            "profile": host.name,
            "scales": scales,
            "aggregate_hidden_fraction": aggregate,
            "hidden_fraction_gate": bool(aggregate > 0.5),
        },
    }
