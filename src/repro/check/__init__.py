"""Ahead-of-run static verification (``repro check``).

Proves run-safety properties of a problem/method combination -- of its
:class:`~repro.core.geometry.RunGeometry`, the object a run binds its
plans from -- without a fabric: the global message schedule pairs up (deadlock
freedom), what the compiled plans index stays in bounds, wire-visible
storage ranges stay inside their sections, and the C kernel backend is
sane.
See DESIGN.md Section 11 for the invariant catalogue and
:mod:`repro.check.api` for the entry point.
"""

from repro.check.api import DEFAULT_PASSES, check_geometry, run_checks
from repro.check.report import CheckFailedError, CheckReport, Finding
from repro.check.selftest import MUTATIONS, run_selftest
from repro.core.geometry import CHECKABLE_METHODS

__all__ = [
    "CHECKABLE_METHODS",
    "CheckFailedError",
    "CheckReport",
    "DEFAULT_PASSES",
    "Finding",
    "MUTATIONS",
    "check_geometry",
    "run_checks",
    "run_selftest",
]
