"""One exchange is one cut.

Every exchanger binds its whole plan as one persistent request: its
channel is one :class:`~repro.exchange.base.ExchangeChannel`, and a rank
calls :meth:`~repro.simmpi.fabric.SimFabric.bind_request` exactly once
per exchanger it builds -- on a 2 x 2 x 2 world, where one peer can be
both neighbours of an axis, and on 1 x 1 x 1, where every deposit goes
to the sending rank itself.  Each exchange posts that cut once.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.driver import realmap_available, run_executed
from repro.core.geometry import CHECKABLE_METHODS
from repro.core.problem import StencilProblem
from repro.exchange.base import ExchangeChannel, Exchanger
from repro.simmpi.fabric import SimFabric
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import SEVEN_POINT

STEPS = 2
WORLDS = {"2x2x2": (2, 2, 2), "1x1x1": (1, 1, 1)}


@pytest.fixture
def bound(monkeypatch):
    """Spy: per rank, the bind_request and post_send_batch calls, and
    the channel each exchanger hands out."""
    seen = {"binds": Counter(), "posts": Counter(), "channels": {}}
    bind, post = SimFabric.bind_request, SimFabric.post_send_batch
    make_channel = Exchanger.make_channel

    def binding(self, rank, *args, **kwargs):
        seen["binds"][rank] += 1
        return bind(self, rank, *args, **kwargs)

    def posting(self, cut):
        seen["posts"][cut.rank] += 1
        return post(self, cut)

    def channel(self):
        got = make_channel(self)
        seen["channels"][id(self)] = (self.comm.rank, got)
        return got

    monkeypatch.setattr(SimFabric, "bind_request", binding)
    monkeypatch.setattr(SimFabric, "post_send_batch", posting)
    monkeypatch.setattr(Exchanger, "make_channel", channel)
    return seen


@pytest.mark.parametrize("world", WORLDS)
@pytest.mark.parametrize("method", CHECKABLE_METHODS)
def test_one_bound_request_per_exchanger(method, world, bound):
    if method == "memmap" and not realmap_available():
        pytest.skip("no memfd_create / mmap(MAP_FIXED): MemMap is refused")
    dims = WORLDS[world]
    problem = StencilProblem(
        tuple(16 * d for d in dims), dims, SEVEN_POINT, (8, 8, 8), ghost=8
    )
    run = run_executed(problem, method, timesteps=STEPS, seed=0)
    np.testing.assert_array_equal(
        run.global_result,
        apply_periodic_reference(problem.initial_global(0), SEVEN_POINT, STEPS),
    )

    channels = list(bound["channels"].values())
    assert channels
    assert all(type(ch) is ExchangeChannel for _rank, ch in channels)
    per_rank = Counter(rank for rank, _ch in channels)
    assert sorted(per_rank) == list(range(problem.nranks))
    assert bound["binds"] == per_rank
    # One cut posted per exchange, one exchange per step.
    assert bound["posts"] == Counter(dict.fromkeys(per_rank, STEPS))
