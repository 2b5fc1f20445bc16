"""Shared modelled-cost functions over message schedules.

:func:`price_exchange` is the one pricer, called by
``exchange.base.price_plan`` alone: on a rank's bound plan (what an
executed run charges per fired exchange) and, from
:mod:`repro.core.model`, on the schedule template of a subdomain at any
scale -- the same function of the same specs.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.exchange.schedule import MessageSpec
from repro.faults.errors import ExchangeConfigError
from repro.hardware.network import NetworkModel
from repro.hardware.profiles import MachineProfile
from repro.util.timing import TimeBreakdown

__all__ = [
    "price_exchange",
    "exchange_times",
    "pack_cost",
    "datatype_cost",
]

#: Where a scheme's on-node copy happens (``RankMessagePlan.copy``).
COPY_KINDS = ("none", "pack", "datatype")


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
    sends: Sequence[MessageSpec],
    recvs: Sequence[MessageSpec],
    copy: str,
) -> TimeBreakdown:
    """Modelled pack / call / wait of one exchange of a plan-shaped schedule:
    *sends* and *recvs* go out in one round.

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
    if copy == "pack":
        bd.charge("pack", pack_cost(profile, sends) * 2)
    call = net.call_time(len(sends), len(recvs))
    wait = net.wait_time(
        [m.wire_bytes for m in sends], [m.wire_bytes for m in recvs]
    )
    if copy == "datatype":
        wait += 2 * datatype_cost(profile, sends)
    bd.charge("call", call)
    bd.charge("wait", wait)
    return bd


def price_exchange(
    profile: MachineProfile,
    sends: Sequence[MessageSpec],
    recvs: Sequence[MessageSpec],
    copy: str,
    transport=None,
) -> Tuple[TimeBreakdown, float]:
    """``(pack / call / wait / move of one exchange, first-touch seconds)``.

    *transport* is the method's ``gpu.transports.GpuTransport``,
    ``None`` on CPU paths: it prices the wire on its own (derated)
    network, adds what the memory kind costs inside the wait and as
    explicit staging, and says what the *next kernel* pays to fault the
    received pages onto the device -- the second value, charged to
    ``calc`` by whoever steps time.
    """
    net = profile.network if transport is None else transport.network()
    bd = exchange_times(profile, net, sends, recvs, copy)
    if transport is None:
        return bd, 0.0
    bd.charge("wait", transport.extra_wait(sends, recvs))
    bd.charge("move", transport.move(sends, recvs))
    return bd, transport.compute_penalty(recvs)
