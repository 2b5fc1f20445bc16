"""Entry point of the ahead-of-run static verifier (``repro check``).

A schedule is data: the :class:`~repro.core.geometry.RunGeometry` of a
problem x method holds every rank's frozen message plan, derived from
geometry and Cartesian arithmetic alone (no storage, no fabric).
:func:`check_geometry` runs the three passes over one such object;
:func:`run_checks` builds it first, as the executed driver does, and
``run_executed(check=...)`` hands over the one it is about to launch:
what is proved is the object the ranks then bind, not a reconstruction.

1. ``schedule`` -- the global send/recv multigraph pairs up, byte counts
   agree, tags are collision-free, no edge touches a dead rank
   (:mod:`repro.check.schedule`);
2. ``memory`` -- the adjacency rows the compiled plans read stay
   inside the arena, wire-visible storage ranges stay inside the
   sections they belong to (:mod:`repro.check.memory`);
3. ``cbackend`` -- the C kernel environment parses, the toolchain is
   usable and a probe kernel is bit-identical to the generic kernels
   (:mod:`repro.check.cback`).

What is *not* provable statically: values (the checker never looks at
payload bytes), timing, and faults injected at runtime -- those remain
the territory of the chaos soak and the bit-exactness validation runs.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.check.cback import verify_cbackend
from repro.check.memory import verify_memory
from repro.check.report import CheckFailedError, CheckReport
from repro.check.schedule import verify_schedule
from repro.core.geometry import RunGeometry
from repro.core.problem import StencilProblem
from repro.hardware.profiles import MachineProfile

__all__ = ["check_geometry", "run_checks", "DEFAULT_PASSES"]

DEFAULT_PASSES = ("schedule", "memory", "cbackend")


def check_geometry(
    geometry: RunGeometry,
    dead_ranks: Iterable[int] = (),
    passes: Sequence[str] = DEFAULT_PASSES,
    strict: bool = False,
) -> CheckReport:
    """Statically verify the world *geometry* describes.

    *dead_ranks* marks ranks known lost, so elastic pre-flights can
    prove the old decomposition unrunnable and the re-bricked one clean.
    With *strict* the call raises :class:`CheckFailedError` instead of
    returning a failed report.
    """
    unknown = [p for p in passes if p not in DEFAULT_PASSES]
    if unknown:
        raise ValueError(
            f"unknown pass(es) {unknown}; available: {DEFAULT_PASSES}"
        )
    problem = geometry.problem
    report = CheckReport()
    report.context = {
        "method": geometry.method,
        "geometry": "x".join(str(e) for e in problem.global_extent),
        "ranks": "x".join(str(d) for d in problem.rank_dims),
    }
    if "schedule" in passes:
        report.passes_run.append("schedule")
        verify_schedule(
            dict(enumerate(geometry.plans)),
            report,
            dead_ranks=dead_ranks,
        )
    if "memory" in passes:
        report.passes_run.append("memory")
        verify_memory(geometry, report)
    if "cbackend" in passes:
        report.passes_run.append("cbackend")
        verify_cbackend(report)
    if strict and not report.ok:
        raise CheckFailedError(report)
    return report


def run_checks(
    problem: StencilProblem,
    method: str,
    page_size: Optional[int] = None,
    profile: Optional[MachineProfile] = None,
    dead_ranks: Iterable[int] = (),
    passes: Sequence[str] = DEFAULT_PASSES,
    strict: bool = False,
) -> CheckReport:
    """Statically verify *problem* x *method* ahead of any run:
    :func:`check_geometry` of the geometry a run of it would build."""
    return check_geometry(
        RunGeometry(problem, method, profile, page_size),
        dead_ranks, passes, strict,
    )
