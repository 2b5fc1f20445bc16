"""Shared modelled-cost functions over message schedules.

:func:`exchange_times` is the one pricer: the executed exchangers call it
on their plan (to report per-exchange breakdowns) and the pure-modelled
driver calls it on the combinatorial schedules (to price arbitrary scales
without allocating data), so the two agree by construction.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.exchange.schedule import MessageSpec
from repro.faults.errors import ExchangeConfigError
from repro.hardware.network import NetworkModel
from repro.hardware.profiles import MachineProfile
from repro.util.timing import TimeBreakdown

__all__ = [
    "exchange_times",
    "network_times",
    "pack_cost",
    "datatype_cost",
    "overlap_times",
]

#: Where a scheme's on-node copy happens (``RankMessagePlan.copy``).
COPY_KINDS = ("none", "pack", "datatype")


def overlap_times(wait: float, interior_calc: float) -> Tuple[float, float]:
    """``(visible_wait, hidden)`` when interior compute overlaps the wire.

    A phased exchange hides at most *interior_calc* seconds of the
    modelled *wait* behind the interior stencil sweep (posting, packing
    and unpacking stay on the critical path); whatever wait remains is
    still visible.  ``visible_wait + hidden == wait`` always.
    """
    hidden = min(max(wait, 0.0), max(interior_calc, 0.0))
    return wait - hidden, hidden


def network_times(
    net: NetworkModel,
    sends: Sequence[MessageSpec],
    recvs: Sequence[MessageSpec],
) -> Tuple[float, float]:
    """``(call, wait)`` seconds for one bulk-synchronous exchange."""
    call = net.call_time(len(sends), len(recvs))
    wait = net.wait_time(
        [m.wire_bytes for m in sends], [m.wire_bytes for m in recvs]
    )
    return call, wait


def pack_cost(profile: MachineProfile, specs: Sequence[MessageSpec]) -> float:
    """Application-level pack (or unpack) cost of one message batch."""
    mem = profile.memory
    total = profile.pack_launch_overhead if specs else 0.0
    for m in specs:
        total += mem.pack_time(m.payload_bytes, m.nsegments, m.run_elems)
    return total


def datatype_cost(profile: MachineProfile, specs: Sequence[MessageSpec]) -> float:
    """In-library derived-datatype processing cost of one batch."""
    total = 0.0
    for m in specs:
        total += profile.type_msg_overhead
        total += m.payload_bytes / profile.type_engine_bw
        total += m.nsegments * profile.memory.seg_overhead
    return total


def exchange_times(
    profile: MachineProfile,
    net: NetworkModel,
    phases: Sequence[Tuple[Sequence[MessageSpec], Sequence[MessageSpec]]],
    copy: str,
) -> TimeBreakdown:
    """Modelled pack / call / wait of one exchange of a plan-shaped schedule.

    *phases* holds the ``(sends, recvs)`` of each barrier-separated
    round; they serialize, so each pays its own copy and network round.
    *copy* says where the on-node copy happens: ``"pack"`` charges the
    application's pack and unpack to ``pack``; ``"datatype"`` charges
    the library's datatype engine -- send and receive side, serialized
    on this rank's core -- to ``wait``; ``"none"`` leaves only the wire.
    """
    if copy not in COPY_KINDS:
        raise ExchangeConfigError(
            f"unknown on-node copy kind {copy!r}; expected one of {COPY_KINDS}"
        )
    bd = TimeBreakdown()
    for sends, recvs in phases:
        if copy == "pack":
            bd.charge("pack", pack_cost(profile, sends) * 2)
        call, wait = network_times(net, sends, recvs)
        if copy == "datatype":
            wait += 2 * datatype_cost(profile, sends)
        bd.charge("call", call)
        bd.charge("wait", wait)
    return bd
