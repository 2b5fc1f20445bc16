"""Top-level API: distributed stencil problems, drivers and metrics.

Quickstart::

    from repro.core import StencilProblem, run_executed
    from repro.stencil import SEVEN_POINT
    from repro.hardware import theta_knl

    problem = StencilProblem(
        global_extent=(64, 64, 64), rank_dims=(2, 2, 2),
        stencil=SEVEN_POINT, brick_dim=(8, 8, 8), ghost=8,
    )
    run = run_executed(problem, method="memmap", profile=theta_knl(),
                       timesteps=2)
    print(run.metrics.report())

Methods: ``yask`` / ``yask_ol`` (packing baseline, optionally overlapping
communication with computation), ``mpi_types``, ``basic`` (one
message per region), ``layout``, ``memmap``, ``network`` (the
empirical communication floor), and GPU variants ``layout_ca``,
``layout_um``, ``memmap_um``, ``mpi_types_um``.
"""

from repro.core.methods import (
    ALL_METHODS,
    BRICK_METHODS,
    CPU_METHODS,
    GPU_METHODS,
    MethodInfo,
    method_info,
)
from repro.core.metrics import RankMetrics, RunMetrics
from repro.core.model import compute_time, model_timestep
from repro.core.problem import StencilProblem
from repro.core.driver import ExecutedRun, run_executed

__all__ = [
    "ALL_METHODS",
    "BRICK_METHODS",
    "CPU_METHODS",
    "ExecutedRun",
    "GPU_METHODS",
    "MethodInfo",
    "RankMetrics",
    "RunMetrics",
    "StencilProblem",
    "compute_time",
    "method_info",
    "model_timestep",
    "run_executed",
]
