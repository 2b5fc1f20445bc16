"""Modelled per-timestep cost of every method at any scale.

``model_timestep`` prices one rank's timestep -- computation plus one
ghost-zone exchange -- purely from the decomposition arithmetic (no data
allocated), using the combinatorial schedules and the machine profile's
cost models.  This powers every figure bench, including the strong-scaling
sweeps up to 1024 nodes that cannot be executed in-process.

An executed run charges the same quantities from the plans its ranks
bound, through the same pricer, ``exchange.costs.price_exchange``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from repro.core.methods import MethodInfo, method_info, resolve_page_size
from repro.exchange.costs import price_exchange
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
    "exchange_breakdown",
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


def _priced(
    profile: MachineProfile,
    info: MethodInfo,
    extent: Sequence[int],
    brick_dim: Sequence[int],
    ghost: int,
    layout: Optional[Sequence[BitSet]],
    page_size: Optional[int],
    itemsize: int,
) -> Tuple[TimeBreakdown, float]:
    """The one pricer over the method's combinatorial phases:
    ``(exchange breakdown, first-touch penalty)``."""
    phases = _schedules(
        info, profile, extent, brick_dim, ghost, layout, page_size, itemsize
    )
    return price_exchange(
        profile, phases, info.copy, make_transport(info, profile)
    )


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
    return _priced(
        profile, method_info(method), extent, brick_dim, ghost, layout,
        page_size, itemsize,
    )[0]


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
    bd, first_touch = _priced(
        profile, info, extent, brick_dim, ghost, layout, page_size,
        stencil.itemsize,
    )
    calc = compute_time(profile, info, math.prod(extent), stencil)
    calc += first_touch
    if info.overlaps:
        # Communication/computation overlap hides wire time behind the
        # kernel; posting and packing stay on the critical path.
        bd.wait = max(0.0, bd.wait - calc)
    bd.charge("calc", calc)
    return bd
