"""Property-based coverage of the static verifier (hypothesis).

Two properties: (1) any *valid* geometry/decomposition/method
combination checks clean -- the verifier has no false positives on the
configurations the driver would actually run; (2) every mutation class
is detected regardless of which method's plan it is injected into --
no false negatives on the violation classes the harness models.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.check import CHECKABLE_METHODS, run_checks  # noqa: E402
from repro.check.selftest import MUTATIONS  # noqa: E402
from repro.core.problem import StencilProblem  # noqa: E402
from repro.stencil.spec import SEVEN_POINT  # noqa: E402

# Valid small configurations only: per-rank subdomains must hold >= 2
# bricks per axis (surface width 1 on each side), so the per-axis
# (extent, ranks) pairs below are constructed, not filtered.
_AXIS = st.sampled_from(
    [(16, 1), (24, 1), (32, 1), (32, 2), (48, 2), (48, 3)]
)


@st.composite
def problems(draw):
    axes = [draw(_AXIS) for _ in range(3)]
    # Cap the world at 8 ranks to keep plan reconstruction fast.
    while math.prod(r for _, r in axes) > 8:
        axes[axes.index(max(axes, key=lambda a: a[1]))] = (16, 1)
    extent = tuple(e for e, _ in axes)
    ranks = tuple(r for _, r in axes)
    periodic = draw(st.booleans())
    return StencilProblem(
        extent, ranks, SEVEN_POINT, (8, 8, 8), 8, periodic=periodic
    )


@settings(max_examples=20, deadline=None)
@given(
    problem=problems(),
    method=st.sampled_from(CHECKABLE_METHODS),
)
def test_valid_geometries_check_clean(problem, method):
    report = run_checks(problem, method, passes=("schedule", "memory"))
    assert report.ok, report.render()


@settings(max_examples=30, deadline=None)
@given(
    method=st.sampled_from(CHECKABLE_METHODS),
    mutation=st.sampled_from(sorted(MUTATIONS)),
)
def test_mutations_detected_across_methods(method, mutation):
    problem = StencilProblem(
        (32, 32, 32), (2, 2, 2), SEVEN_POINT, (8, 8, 8), 8
    )
    report, expected_code = MUTATIONS[mutation](problem, method)
    assert report.has(expected_code), (
        f"{mutation} not detected on {method}: {report.render()}"
    )
