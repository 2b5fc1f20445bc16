"""Tier-1 guard for the names ``benchmarks/halobench`` patches.

halobench's span recorder replaces callables it looks up with
``vars(owner)[attr]``, a class-``__dict__`` lookup that raises
``KeyError`` on an inherited attribute, and its layer budget only adds up
if each exchange is recorded as exactly one ``exchange.fire``.  A rename or
a refactor that moves one of those callables would otherwise only show up
in the benchmark job, outside this suite.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.core.driver import run_executed
from repro.core.problem import StencilProblem
from repro.hardware.profiles import generic_host
from repro.stencil.spec import SEVEN_POINT

SPANS_PY = Path(__file__).resolve().parent.parent / "benchmarks/halobench/spans.py"
STEPS = 2


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("halobench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("verify_wire", [False, True], ids=["channel", "per-message"])
def test_hooks_resolve_restore_and_count_each_exchange_once(spans, verify_wire):
    targets = spans.targets()
    # Every target resolves the way installed() will look it up.
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]

    problem = StencilProblem((32, 32, 32), (2, 2, 2), SEVEN_POINT)
    recorder = spans.Recorder("guard")
    with spans.installed(recorder):
        installed = [vars(owner)[attr] for owner, attr, _, _ in targets]
        run_executed(
            problem, "layout", generic_host(), timesteps=STEPS,
            verify_wire=verify_wire,
        )
    assert all(new is not old for new, old in zip(installed, before))
    # Every attribute is put back, in its owner's own namespace.
    after = [vars(owner)[attr] for owner, attr, _, _ in targets]
    assert all(new is old for new, old in zip(after, before))

    # One exchange per step per rank, each recorded as one exchange.fire:
    # the channel's exchange() on the plain path, the exchanger's own on
    # the enveloped one -- never one nested inside the other.
    fire = spans.aggregate(recorder)["exchange.fire"]
    assert fire["count"] == STEPS * problem.nranks
