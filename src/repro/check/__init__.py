"""Ahead-of-run static verification (``repro check``).

Proves run-safety properties of a problem/method combination without
touching the fabric: the global message schedule pairs up (deadlock
freedom), what the compiled plans index stays in bounds, wire-visible
storage ranges stay inside their sections, and the C kernel backend is
sane.
See DESIGN.md Section 11 for the invariant catalogue and
:mod:`repro.check.api` for the entry point.
"""

from repro.check.api import DEFAULT_PASSES, run_checks
from repro.check.geometry import (
    CHECKABLE_METHODS,
    RankGeometry,
    build_rank_geometries,
    build_rank_plans,
)
from repro.check.report import CheckFailedError, CheckReport, Finding
from repro.check.selftest import MUTATIONS, run_selftest

__all__ = [
    "CHECKABLE_METHODS",
    "CheckFailedError",
    "CheckReport",
    "DEFAULT_PASSES",
    "Finding",
    "MUTATIONS",
    "RankGeometry",
    "build_rank_geometries",
    "build_rank_plans",
    "run_checks",
    "run_selftest",
]
