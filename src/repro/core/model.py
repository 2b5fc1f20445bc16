"""Modelled per-timestep cost of every method at any scale.

``model_timestep`` prices one rank's timestep -- computation plus one
ghost-zone exchange -- purely from the decomposition arithmetic (no data
allocated), using the combinatorial schedules and the machine profile's
cost models.  This powers every figure bench, including the strong-scaling
sweeps up to 1024 nodes that cannot be executed in-process.

The executed driver reports the same quantities from the exchangers'
internal plans; the test suite asserts the two agree.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.core.methods import MethodInfo, method_info, resolve_page_size
from repro.exchange.costs import exchange_times
from repro.exchange.schedule import (
    array_schedule,
    basic_brick_schedule,
    brick_send_schedule,
    memmap_schedule,
    mirror_schedule,
    shift_schedule,
)
from repro.gpu.transports import (
    CudaAwareTransport,
    GpuTransport,
    StagedTransport,
    UnifiedMemoryTransport,
)
from repro.hardware.profiles import MachineProfile
from repro.layout.order import surface_order
from repro.stencil.spec import StencilSpec
from repro.util.bitset import BitSet
from repro.util.timing import TimeBreakdown

__all__ = [
    "compute_time",
    "compute_time_table",
    "exchange_breakdown",
    "first_touch_penalty",
    "model_timestep",
    "make_transport",
]


def make_transport(info: MethodInfo, profile: MachineProfile) -> Optional[GpuTransport]:
    """Build the GPU transport for a method, or ``None`` for CPU runs."""
    if info.transport is None:
        return None
    if profile.gpu is None:
        raise ValueError(
            f"method {info.name!r} needs a GPU profile; {profile.name} has none"
        )
    cls = {
        "ca": CudaAwareTransport,
        "um": UnifiedMemoryTransport,
        "staged": StagedTransport,
    }[info.transport]
    return cls(profile.network, profile.gpu)


def compute_time(
    profile: MachineProfile,
    info: MethodInfo,
    points: int,
    stencil: StencilSpec,
) -> float:
    """Roofline kernel time for one timestep on one rank.

    GPU methods compute on the device (HBM roofline plus a kernel-launch
    overhead); CPU methods use the profile's per-engine compute model
    (YASK's autotuned two-level schedule vs the brick one-level schedule,
    Figure 10).
    """
    if info.is_gpu:
        gpu = profile.gpu
        if gpu is None:
            raise ValueError(f"profile {profile.name} has no GPU model")
        if points == 0:
            return 10e-6
        flop_time = points * stencil.flops_per_point / gpu.peak_flops
        mem_time = points * stencil.bytes_per_point / gpu.hbm_bw
        # High-order cube stencils run well below the roofline on GPUs
        # (register pressure, reduced reuse): the paper's V2 shows the
        # 125-pt at less than half the 7-pt throughput (18.3 vs 8.1
        # TStencil/s) even though both are bandwidth-bound on paper.
        efficiency = 0.8 if stencil.ntaps <= 27 else 0.35
        return 10e-6 + max(flop_time, mem_time) / efficiency
    model = profile.yask_compute if info.compute_kind == "yask" else profile.brick_compute
    return model.stencil_time(
        points, stencil.flops_per_point, stencil.bytes_per_point
    )


def compute_time_table(
    profile: MachineProfile,
    info: MethodInfo,
    points_per_position: Sequence[int],
    stencil: StencilSpec,
) -> List[float]:
    """Kernel time per exchange-cycle position, evaluated once.

    The timing analogue of a compiled execution plan
    (:mod:`repro.stencil.plan`): the executed driver's accounting loop
    looks the per-step cost up in this table instead of re-pricing the
    roofline model every timestep, so the modelled bookkeeping is
    ``O(period)`` model evaluations rather than ``O(timesteps)``.
    """
    return [
        compute_time(profile, info, int(points), stencil)
        for points in points_per_position
    ]


def _schedules(
    info: MethodInfo,
    profile: MachineProfile,
    extent: Sequence[int],
    brick_dim: Sequence[int],
    ghost: int,
    layout: Optional[Sequence[BitSet]],
    page_size: Optional[int],
    itemsize: int = 8,
):
    """One method's plan-shaped schedule: ``(sends, recvs)`` per phase."""
    extent = tuple(int(e) for e in extent)
    ndim = len(extent)
    if info.base == "shift":
        return [(ph, ph) for ph in shift_schedule(extent, ghost, itemsize)]
    if not info.uses_bricks:
        specs = array_schedule(extent, ghost, itemsize)
        return [(specs, specs)]

    if isinstance(brick_dim, int):
        brick_dim = (brick_dim,) * ndim
    grid = tuple(e // b for e, b in zip(extent, brick_dim))
    width = ghost // brick_dim[0]
    brick_bytes = math.prod(brick_dim) * itemsize
    lay = list(layout) if layout is not None else surface_order(ndim)
    if info.base == "layout":
        specs = brick_send_schedule(grid, width, lay, brick_bytes)
    elif info.base == "basic":
        specs = basic_brick_schedule(grid, width, lay, brick_bytes)
    elif info.base == "memmap":
        page = resolve_page_size(info, profile, page_size)
        specs = memmap_schedule(grid, width, lay, brick_bytes, page)
    elif info.base == "network":
        # The empirical floor: one message per neighbor carrying exactly
        # the payload (message-sized buffers, no padding, no packing).
        specs = memmap_schedule(grid, width, lay, brick_bytes, 1)
    else:  # pragma: no cover - registry and model must stay in sync
        raise AssertionError(f"unhandled brick method {info.base}")
    return [(specs, mirror_schedule(specs))]


def exchange_breakdown(
    profile: MachineProfile,
    method: str,
    extent: Sequence[int],
    brick_dim: Sequence[int] = (8, 8, 8),
    ghost: int = 8,
    layout: Optional[Sequence[BitSet]] = None,
    page_size: Optional[int] = None,
    itemsize: int = 8,
) -> TimeBreakdown:
    """Modelled pack/call/wait/move of one exchange (no calc)."""
    info = method_info(method)
    transport = make_transport(info, profile)
    net = transport.network() if transport else profile.network
    phases = _schedules(
        info, profile, extent, brick_dim, ghost, layout, page_size, itemsize
    )
    bd = exchange_times(profile, net, phases, info.copy)
    if transport is not None:
        sends = [m for phase_sends, _ in phases for m in phase_sends]
        recvs = [m for _, phase_recvs in phases for m in phase_recvs]
        bd.charge("wait", transport.extra_wait(sends, recvs))
        bd.charge("move", transport.move(sends, recvs))
    return bd


def first_touch_penalty(
    profile: MachineProfile,
    info: MethodInfo,
    extent: Sequence[int],
    brick_dim: Sequence[int],
    ghost: int,
    layout: Optional[Sequence[BitSet]],
    page_size: Optional[int],
    itemsize: int,
) -> float:
    """Kernel time the step after an exchange pays to fault the received
    pages onto the GPU; zero except under Unified Memory."""
    if info.transport != "um":
        return 0.0
    phases = _schedules(
        info, profile, extent, brick_dim, ghost, layout, page_size, itemsize
    )
    return make_transport(info, profile).compute_penalty(
        [m for _, phase_recvs in phases for m in phase_recvs]
    )


def model_timestep(
    profile: MachineProfile,
    method: str,
    extent: Sequence[int],
    stencil: StencilSpec,
    brick_dim: Sequence[int] = (8, 8, 8),
    ghost: int = 8,
    layout: Optional[Sequence[BitSet]] = None,
    page_size: Optional[int] = None,
) -> TimeBreakdown:
    """Full modelled timestep: calc + exchange (+ GPU penalties/overlap)."""
    info = method_info(method)
    extent = tuple(int(e) for e in extent)
    points = math.prod(extent)
    bd = exchange_breakdown(
        profile, method, extent, brick_dim, ghost, layout, page_size,
        stencil.itemsize,
    )
    calc = compute_time(profile, info, points, stencil)
    calc += first_touch_penalty(
        profile, info, extent, brick_dim, ghost, layout, page_size,
        stencil.itemsize,
    )
    if info.overlaps:
        # Communication/computation overlap hides wire time behind the
        # kernel; posting and packing stay on the critical path.
        bd.wait = max(0.0, bd.wait - calc)
    bd.charge("calc", calc)
    return bd
