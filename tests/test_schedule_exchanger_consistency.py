"""The executed exchangers' plans must equal the combinatorial schedules.

The modelled strong-scaling figures price exchanges from pure arithmetic
(repro.exchange.schedule) while the executed runs build plans from real
decompositions; every figure is only trustworthy if the two agree
message-for-message -- and, priced by the one pricer, bit for bit.

The brick schedules list neighbours in the templates' (layout) order
and ``mirror_schedule`` lists receives in the sender's order since the
two derivations were made to price bit-equal: a wire time is a float
sum over the messages, and the region-index order used before summed
1-2 ulp away (``memmap`` ``wait`` 9.161200000000002e-05 vs 9.1612e-05 on
``generic_host`` at 16^3; ``layout`` at 32x32x48).  For that reason, and
only there, nine rows of ``golden_schedule.json["model"]`` were
re-recorded -- ``memmap`` x2, ``memmap_um``, ``network`` x3 (it is
``memmap_schedule`` with 1-byte pages), ``layout`` x2, ``layout_ca`` --
each moving ``wait`` in its last digit; ``["plans"]`` digests and
``["results"]`` rows did not change.
"""

import numpy as np
import pytest

from repro.brick.decomp import BrickDecomp
from repro.core.geometry import RunGeometry
from repro.core.model import exchange_breakdown
from repro.core.problem import StencilProblem
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
from repro.hardware.profiles import generic_host, summit_v100, theta_knl
from repro.simmpi import run_spmd
from repro.stencil.spec import SEVEN_POINT

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


@pytest.mark.parametrize("profile", [generic_host, theta_knl, summit_v100])
@pytest.mark.parametrize("sub", [(16, 16, 16), (32, 32, 32), (16, 16, 24)])
@pytest.mark.parametrize(
    "method", ["layout", "basic", "memmap", "yask", "mpi_types", "shift"]
)
def test_model_and_bound_plan_price_equal(method, sub, profile):
    """Any-scale model vs the plan a rank binds, all six executable
    methods, compared with ``==``: one pricer, the same specs in the
    same order."""
    problem = StencilProblem(
        tuple(2 * s for s in sub), (2, 2, 2), SEVEN_POINT, (8, 8, 8), 8
    )
    model = exchange_breakdown(profile(), method, sub)
    for result in RunGeometry(problem, method, profile()).results:
        assert result.breakdown == model
