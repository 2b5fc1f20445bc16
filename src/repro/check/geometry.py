"""Plan-only rank geometry reconstruction for the static verifier.

Every executable exchange method can be constructed *plan-only*: no
storage arena, no wire buffers, no fabric traffic -- just the message
schedule derived from geometry (see ``Exchanger.message_plan``).  The
exchangers come from :func:`repro.exchange.make_exchanger`, the same
factory the driver and its degradation ladder build through, with
``buffer=None``: the verified schedule is built by the code that runs,
while staying cheap enough to run ahead of every job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.brick.decomp import BrickDecomp, SlotAssignment
from repro.core.methods import method_info, resolve_page_size
from repro.core.problem import StencilProblem
from repro.exchange import make_exchanger
from repro.exchange.base import Exchanger, RankMessagePlan
from repro.faults.errors import ExchangeConfigError
from repro.hardware.profiles import MachineProfile, generic_host
from repro.simmpi.comm import CartComm, SimComm
from repro.simmpi.fabric import SimFabric

__all__ = [
    "RankGeometry",
    "build_rank_geometries",
    "build_rank_plans",
    "iter_rank_geometries",
]

#: Methods the static verifier covers: every executable CPU scheme plus
#: the degradation ladder's last rung.
CHECKABLE_METHODS = (
    "yask", "yask_ol", "mpi_types", "shift", "basic", "layout", "memmap",
    "brickpack",
)


@dataclass
class RankGeometry:
    """One rank's reconstructed exchange geometry, plan-only."""

    rank: int
    cart: CartComm
    exchanger: Exchanger
    plan: RankMessagePlan
    decomp: Optional[BrickDecomp]  # brick schemes only
    assignment: Optional[SlotAssignment]  # brick schemes only
    page_size: Optional[int]  # memmap only


def iter_rank_geometries(
    problem: StencilProblem,
    method: str,
    profile: Optional[MachineProfile] = None,
    page_size: Optional[int] = None,
) -> Iterator[RankGeometry]:
    """Reconstruct each rank's plan-only geometry for *method*, in rank
    order, one at a time (a caller that needs one rank's pays for one).

    One shared :class:`SimFabric` backs all the Cartesian communicators
    (nothing is ever posted to it); each rank gets the same plan-only
    exchanger the driver would build, and its static
    :class:`~repro.exchange.base.RankMessagePlan`.
    """
    # "brickpack" is the ladder's last rung, not a user-selectable
    # method name: it has a base name but no MethodInfo.
    info = None if method == "brickpack" else method_info(method)
    base = info.base if info is not None else method
    if base not in CHECKABLE_METHODS:
        raise ExchangeConfigError(
            f"method {method!r} is not statically checkable;"
            f" checkable methods are {CHECKABLE_METHODS}"
        )
    profile = profile or generic_host()
    decomp = asn = page = None
    if info is None or info.uses_bricks:
        decomp = problem.brick_decomp()
        if base == "memmap":
            page = resolve_page_size(info, profile, page_size)
            asn = decomp.assignment(decomp.alignment_for_page(page))
        else:
            asn = decomp.assignment(1)
    fabric = SimFabric(problem.nranks)
    periods = [problem.periodic] * problem.ndim
    for rank in range(problem.nranks):
        cart = SimComm(fabric, rank).Create_cart(problem.rank_dims, periods)
        ex = make_exchanger(
            base, cart, problem, profile, None, decomp, asn, page
        )
        yield RankGeometry(rank, cart, ex, ex.message_plan(), decomp, asn, page)


def build_rank_geometries(
    problem: StencilProblem,
    method: str,
    profile: Optional[MachineProfile] = None,
    page_size: Optional[int] = None,
) -> List[RankGeometry]:
    """Every rank's plan-only geometry for *method*."""
    return list(iter_rank_geometries(problem, method, profile, page_size))


def build_rank_plans(
    problem: StencilProblem,
    method: str,
    profile: Optional[MachineProfile] = None,
    page_size: Optional[int] = None,
) -> Dict[int, RankMessagePlan]:
    """``{rank: message plan}`` for the whole decomposition."""
    return {
        g.rank: g.plan
        for g in build_rank_geometries(problem, method, profile, page_size)
    }
