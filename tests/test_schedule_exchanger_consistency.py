"""The any-scale model prices the plans the ranks bind.

``core/model.py`` prices the method's ``schedule_template`` over one
subdomain -- the function ``RunGeometry`` derives every rank's plan
from -- with ``price_plan``, the pricer an executed run charges; so a
modelled figure and an executed run agree by construction, and
``test_model_and_bound_plan_price_equal`` holds them ``==``.  The brick
templates' own shape (42 / 98 / 26 messages, page padding, payload
equal to the closed-form ghost volume) is pinned by
``test_exchange_boxes_schedule.py`` and ``test_properties.py``.  Pack and
MPI_Types bind the box specs of ``array_schedule``, checked here on a
real exchanger.
"""

import numpy as np
import pytest

from repro.core.geometry import RunGeometry
from repro.core.model import exchange_breakdown
from repro.core.problem import StencilProblem
from repro.exchange import schedule_template
from repro.exchange.mpitypes import MPITypesExchanger
from repro.exchange.pack import PackExchanger
from repro.exchange.schedule import array_schedule
from repro.hardware.profiles import generic_host, summit_v100, theta_knl
from repro.simmpi import run_spmd
from repro.stencil.spec import SEVEN_POINT

SUB = (32, 32, 32)


def _spec_key(m):
    return (m.neighbor.notation(), m.payload_bytes, m.wire_bytes)


def _build(mode):
    """Build one array exchanger inside an 8-rank cart and return its specs."""
    profile = theta_knl()

    def fn(comm):
        cart = comm.Create_cart((2, 2, 2))
        base = "yask" if mode == "pack" else mode
        plan = schedule_template(base, SUB, 8, 8).for_rank(
            cart.rank, cart.dims, cart.periods
        )
        arr = np.zeros(tuple(s + 16 for s in reversed(SUB)))
        cls = PackExchanger if mode == "pack" else MPITypesExchanger
        ex = cls(cart, plan, arr, SUB, 8, profile)
        return sorted(_spec_key(m.spec) for m in ex.plan.sends)

    return run_spmd(8, fn)[0]


@pytest.mark.parametrize(
    "mode,schedule",
    [
        ("pack", lambda: array_schedule(SUB, 8)),
        ("mpi_types", lambda: array_schedule(SUB, 8)),
    ],
)
def test_exchanger_matches_schedule(mode, schedule):
    expected = sorted(_spec_key(m) for m in schedule())
    assert _build(mode) == expected


@pytest.mark.parametrize("profile", [generic_host, theta_knl, summit_v100])
@pytest.mark.parametrize("sub", [(16, 16, 16), (32, 32, 32), (16, 16, 24)])
@pytest.mark.parametrize(
    "method", ["layout", "basic", "memmap", "yask", "mpi_types"]
)
def test_model_and_bound_plan_price_equal(method, sub, profile):
    """Any-scale model vs the plan a rank binds, all five executable
    methods, compared with ``==``: one pricer, the same specs in the
    same order."""
    problem = StencilProblem(
        tuple(2 * s for s in sub), (2, 2, 2), SEVEN_POINT, (8, 8, 8), 8
    )
    model = exchange_breakdown(profile(), method, sub)
    for result in RunGeometry(problem, method, profile()).results:
        assert result.breakdown == model
