"""The executed exchangers' plans must equal the combinatorial schedules.

The modelled strong-scaling figures price exchanges from pure arithmetic
(repro.exchange.schedule) while the executed runs build plans from real
decompositions; every figure is only trustworthy if the two agree
message-for-message.
"""

import numpy as np
import pytest

from repro.brick.decomp import BrickDecomp
from repro.exchange import schedule_template
from repro.exchange.layout_ex import LayoutExchanger
from repro.exchange.memmap_ex import MemMapExchanger
from repro.exchange.mpitypes import MPITypesExchanger
from repro.exchange.pack import PackExchanger
from repro.exchange.schedule import (
    array_schedule,
    basic_brick_schedule,
    brick_send_schedule,
    memmap_schedule,
)
from repro.hardware.profiles import theta_knl
from repro.simmpi import run_spmd

SUB = (32, 32, 32)


def _spec_key(m):
    return (m.neighbor.notation(), m.payload_bytes, m.wire_bytes)


def _build(mode, page=4096):
    """Build one exchanger inside an 8-rank cart and return its specs."""
    profile = theta_knl()

    def fn(comm):
        cart = comm.Create_cart((2, 2, 2))

        def plan(base, *geometry):
            return schedule_template(base, SUB, 8, 8, *geometry).for_rank(
                cart.rank, cart.dims, cart.periods
            )

        if mode in ("pack", "mpi_types"):
            arr = np.zeros(tuple(s + 16 for s in reversed(SUB)))
            cls = PackExchanger if mode == "pack" else MPITypesExchanger
            base = "yask" if mode == "pack" else mode
            ex = cls(cart, plan(base), arr, SUB, 8, profile)
            return sorted(_spec_key(m.spec) for m in ex.plan.sends)
        d = BrickDecomp(SUB, (8, 8, 8), 8)
        if mode == "memmap":
            st, asn = d.mmap_alloc(page)
            ex = MemMapExchanger(cart, plan(mode, d, asn, page), st, profile)
        else:
            st, asn = d.allocate()
            ex = LayoutExchanger(cart, plan(mode, d, asn), st, profile)
        out = sorted(_spec_key(m.spec) for m in ex.plan.sends)
        if mode == "memmap":
            ex.close()
        st.close()
        return out

    return run_spmd(8, fn)[0]


GRID, W, BB = (4, 4, 4), 1, 4096


@pytest.mark.parametrize(
    "mode,schedule",
    [
        ("layout", lambda: brick_send_schedule(GRID, W, None, BB)),
        ("basic", lambda: basic_brick_schedule(GRID, W, None, BB)),
        ("memmap", lambda: memmap_schedule(GRID, W, None, BB, 4096)),
        ("pack", lambda: array_schedule(SUB, 8)),
        ("mpi_types", lambda: array_schedule(SUB, 8)),
    ],
)
def test_exchanger_matches_schedule(mode, schedule):
    # inject the packaged layout where the lambda used None
    from repro.layout.order import SURFACE3D
    import repro.exchange.schedule as sched

    if mode == "layout":
        specs = sched.brick_send_schedule(GRID, W, SURFACE3D, BB)
    elif mode == "basic":
        specs = sched.basic_brick_schedule(GRID, W, SURFACE3D, BB)
    elif mode == "memmap":
        specs = sched.memmap_schedule(GRID, W, SURFACE3D, BB, 4096)
    else:
        specs = schedule()
    expected = sorted(_spec_key(m) for m in specs)
    got = _build(mode)
    assert got == expected


def test_memmap_64k_padding_matches_schedule():
    from repro.layout.order import SURFACE3D
    from repro.exchange.schedule import memmap_schedule

    expected = sorted(
        _spec_key(m) for m in memmap_schedule(GRID, W, SURFACE3D, BB, 65536)
    )
    got = _build("memmap", page=65536)
    assert got == expected
