"""Traced executed runs as a measurable artifact.

One function, :func:`traced_run_stats`, runs the executed driver with the
observability layer enabled and returns the machine-readable summary that
both the ``python -m repro trace`` CLI and the CI perf-regression gate
(``benchmarks/compare_bench.py``) consume:

* deterministic ``counts`` (spans per name, messages, bytes) that CI
  compares exactly,
* wall-clock ``span_s`` totals and the traced run's ``wall_s``, compared
  with a tolerance band, and
* optionally an ``overhead`` section -- the same run untraced vs traced
  -- substantiating the observability layer's <5 % overhead budget.

The modelled :class:`~repro.core.metrics.RunMetrics` are untouched by any
of this; tracing only ever watches the wall clock.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Sequence, Tuple

from repro import obs

__all__ = ["DEFAULT_TRACE_CONFIG", "traced_run_stats"]

#: The configuration the committed ``BENCH_trace.json`` baseline uses.
DEFAULT_TRACE_CONFIG: Dict[str, Any] = {
    "method": "layout",
    "domain": (32, 32, 32),
    "ranks": (2, 2, 2),
    "steps": 4,
    "brick": 8,
    "ghost": 8,
    "stencil": "7pt",
    "machine": "theta",
}


def _problem(domain, ranks, brick, ghost, stencil_name):
    from repro.core.problem import StencilProblem
    from repro.stencil.spec import CUBE125, SEVEN_POINT

    stencil = {"7pt": SEVEN_POINT, "125pt": CUBE125}[stencil_name]
    return StencilProblem(
        global_extent=tuple(domain),
        rank_dims=tuple(ranks),
        stencil=stencil,
        brick_dim=(brick,) * 3,
        ghost=ghost,
    )


def _machine(name: str):
    from repro.hardware.profiles import generic_host, summit_v100, theta_knl

    return {
        "theta": theta_knl, "summit": summit_v100, "generic": generic_host
    }[name]()


def traced_run_stats(
    method: str = "layout",
    domain: Sequence[int] = (32, 32, 32),
    ranks: Sequence[int] = (2, 2, 2),
    steps: int = 4,
    brick: int = 8,
    ghost: int = 8,
    stencil: str = "7pt",
    machine: str = "theta",
    exchange_period=None,
    overhead: bool = False,
) -> Tuple[Dict[str, Any], Any]:
    """Run the executed driver traced; return ``(stats, run)``.

    After the call, :data:`repro.obs.TRACER` / :data:`~repro.obs.METRICS`
    still hold the recorded trace (disabled but readable), so callers can
    export the Chrome timeline or flame summary of the same run.
    """
    from repro.core.driver import run_executed

    problem = _problem(domain, ranks, brick, ghost, stencil)
    profile = _machine(machine)
    config = {
        "method": method,
        "domain": list(domain),
        "ranks": list(ranks),
        "steps": steps,
        "brick": brick,
        "ghost": ghost,
        "stencil": stencil,
        "machine": machine,
    }

    def one_run():
        t0 = time.perf_counter()
        result = run_executed(
            problem, method, profile, timesteps=steps,
            exchange_period=exchange_period,
        )
        return time.perf_counter() - t0, result

    untraced_s = None
    if overhead:
        # Warm the compiled-kernel cache, then interleave untraced/traced
        # pairs and take the best of each, so the ratio measures the
        # hooks rather than cold start or scheduler drift.  The trace
        # exported afterwards is the final traced run's.
        one_run()
        untraced_s = traced_s = None
        for _ in range(3):
            untraced = one_run()[0]
            obs.enable()
            try:
                traced, run = one_run()
            finally:
                obs.disable()
            untraced_s = untraced if untraced_s is None \
                else min(untraced_s, untraced)
            traced_s = traced if traced_s is None else min(traced_s, traced)
    else:
        obs.enable()
        try:
            traced_s, run = one_run()
        finally:
            obs.disable()

    stats = obs.trace_stats(obs.TRACER, obs.METRICS, config=config)
    stats["wall_s"] = traced_s
    if overhead:
        stats["overhead"] = {
            "traced_s": traced_s,
            "untraced_s": untraced_s,
            "overhead_ratio": traced_s / untraced_s if untraced_s else 1.0,
        }
    return stats, run
