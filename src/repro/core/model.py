"""Modelled per-timestep cost of every method at any scale.

``model_timestep`` prices one rank's timestep -- computation plus one
ghost-zone exchange -- without allocating data or launching ranks.  The
exchange is the schedule the ranks of that geometry bind: the method's
:func:`~repro.exchange.schedule_template` over one subdomain
(:func:`repro.core.geometry.subdomain_template`), priced by
:func:`~repro.exchange.base.price_plan`, the function an executed run
prices its bound plans with.  This powers every figure bench, including
the strong-scaling sweeps up to 1024 nodes that cannot be executed
in-process.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.core.geometry import subdomain_template
from repro.core.methods import MethodInfo, method_info, resolve_page_size
from repro.exchange.base import ExchangeResult, ScheduleTemplate, price_plan
from repro.gpu.transports import make_transport
from repro.hardware.profiles import MachineProfile
from repro.stencil.spec import StencilSpec
from repro.util.bitset import BitSet
from repro.util.timing import TimeBreakdown

__all__ = [
    "compute_time",
    "exchange_breakdown",
    "exchange_result",
    "model_timestep",
]


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


def _template(
    info: MethodInfo,
    profile: MachineProfile,
    extent: Sequence[int],
    brick_dim: Sequence[int],
    ghost: int,
    layout: Optional[Sequence[BitSet]],
    page_size: Optional[int],
    itemsize: int,
) -> ScheduleTemplate:
    """The schedule one rank of *info*'s geometry binds."""
    extent = tuple(int(e) for e in extent)
    if not info.uses_bricks:
        return subdomain_template(info.base, extent, ghost, itemsize)
    if isinstance(brick_dim, int):
        brick_dim = (brick_dim,) * len(extent)
    brick_dim = tuple(int(b) for b in brick_dim)
    # Bricks tile whole multiples of their edge: a subdomain exchanges
    # the ghost zone of its brick-floored extent.
    floored = tuple(e // b * b for e, b in zip(extent, brick_dim))
    layout = tuple(layout) if layout is not None else None
    base, page = info.base, None
    if base == "memmap":
        page = resolve_page_size(info, profile, page_size)
    elif base == "network":
        # The empirical floor: one message per neighbor carrying exactly
        # the payload -- MemMap's schedule at 1-byte pages.
        base, page = "memmap", 1
    return subdomain_template(
        base, floored, ghost, itemsize, brick_dim, layout, page
    )


def exchange_result(
    profile: MachineProfile,
    method: str,
    extent: Sequence[int],
    brick_dim: Sequence[int] = (8, 8, 8),
    ghost: int = 8,
    layout: Optional[Sequence[BitSet]] = None,
    page_size: Optional[int] = None,
    itemsize: int = 8,
) -> ExchangeResult:
    """Modelled outcome of one exchange of *method* on a subdomain of
    *extent*: what a rank of that geometry with every neighbour present
    charges (times, message and byte counts, first-touch seconds)."""
    info = method_info(method)
    template = _template(
        info, profile, extent, brick_dim, ghost, layout, page_size, itemsize
    )
    return price_plan(template, profile, make_transport(info, profile))


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
    return exchange_result(
        profile, method, extent, brick_dim, ghost, layout, page_size, itemsize
    ).breakdown


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
    """Full modelled timestep: calc + exchange (+ GPU penalties/overlap).

    A brick method's exchange is that of the brick-floored extent (a
    170-wide axis of 8-bricks exchanges as a 168-wide one), while calc
    prices every point of *extent*.
    """
    info = method_info(method)
    extent = tuple(int(e) for e in extent)
    result = exchange_result(
        profile, method, extent, brick_dim, ghost, layout, page_size,
        stencil.itemsize,
    )
    bd = result.breakdown
    calc = compute_time(profile, info, math.prod(extent), stencil)
    calc += result.first_touch
    if info.overlaps:
        # Communication/computation overlap hides wire time behind the
        # kernel; posting and packing stay on the critical path.
        bd.wait = max(0.0, bd.wait - calc)
    bd.charge("calc", calc)
    return bd
