"""Mutation harness: prove the verifier actually catches violations.

A static checker that silently passes everything is worse than none.
``run_selftest`` takes a known-clean geometry, injects one violation of
each class the verifier claims to detect -- a tag collision, a dropped
receive, a dropped send, a byte-count disagreement, a dead rank, an
adjacency entry one past the arena, a field window one element past its
brick -- and asserts the corresponding finding code appears.  CI
gates on 100% detection (``repro check --selftest``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.check.memory import check_adjacency_rows
from repro.check.report import CheckReport
from repro.check.schedule import verify_schedule
from repro.core.geometry import RunGeometry
from repro.core.problem import StencilProblem
from repro.stencil.spec import SEVEN_POINT

__all__ = ["run_selftest", "MUTATIONS"]


def _default_problem() -> StencilProblem:
    return StencilProblem(
        global_extent=(32, 32, 32),
        rank_dims=(2, 2, 2),
        stencil=SEVEN_POINT,
        brick_dim=(8, 8, 8),
        ghost=8,
    )


def _plans(problem, method):
    return dict(enumerate(RunGeometry(problem, method).plans))


def _mutate_first_send(plans, **changes):
    """Return plans with rank 0's first send replaced via
    ``_replace(**changes)``."""
    plan = plans[0]
    sends = list(plan.sends)
    sends[0] = sends[0]._replace(**changes)
    plans = dict(plans)
    plans[0] = replace(plan, sends=tuple(sends))
    return plans


# ---------------------------------------------------------------------
# One injector per violation class: mutate, verify, return the finding
# code that must appear.
# ---------------------------------------------------------------------
def _inject_tag_collision(problem, method) -> Tuple[CheckReport, str]:
    plans = _plans(problem, method)
    plan = plans[0]
    sends = list(plan.sends)
    sends.append(sends[0])  # duplicate (peer, tag)
    plans[0] = replace(plan, sends=tuple(sends))
    report = CheckReport()
    verify_schedule(plans, report)
    return report, "tag-collision"


def _inject_dropped_recv(problem, method) -> Tuple[CheckReport, str]:
    plans = _plans(problem, method)
    # Drop the receive matching rank 0's first send: its peer starves
    # the send forever.
    target = plans[0].sends[0]
    peer_plan = plans[target.peer]
    recvs = tuple(
        m for m in peer_plan.recvs
        if not (m.peer == 0 and m.tag == target.tag)
    )
    plans[target.peer] = replace(peer_plan, recvs=recvs)
    report = CheckReport()
    verify_schedule(plans, report)
    return report, "orphan-send"


def _inject_dropped_send(problem, method) -> Tuple[CheckReport, str]:
    plans = _plans(problem, method)
    plan = plans[0]
    plans[0] = replace(plan, sends=tuple(plan.sends[1:]))
    report = CheckReport()
    verify_schedule(plans, report)
    return report, "starved-recv"


def _inject_byte_mismatch(problem, method) -> Tuple[CheckReport, str]:
    plans = _plans(problem, method)
    target = plans[0].sends[0]
    plans = _mutate_first_send(
        plans, spec=replace(target.spec, wire_bytes=target.nbytes + 8)
    )
    report = CheckReport()
    verify_schedule(plans, report)
    return report, "byte-mismatch"


def _inject_dead_rank(problem, method) -> Tuple[CheckReport, str]:
    plans = _plans(problem, method)
    report = CheckReport()
    verify_schedule(plans, report, dead_ranks=(0,))
    return report, "dead-rank-edge"


def _inject_oob_adjacency(problem, method) -> Tuple[CheckReport, str]:
    """Forge an adjacency row naming the slot one past the arena."""
    total_slots, brick_elems, volume = 64, 512, 512
    rows = np.full((2, 27), -1, dtype=np.int64)
    rows[:, 13] = (0, 1)  # each brick is its own centre
    rows[1, 14] = total_slots
    report = CheckReport()
    check_adjacency_rows(
        rows, total_slots, brick_elems, 0, volume, report, rank=0
    )
    return report, "oob-adjacency"


def _inject_field_window(problem, method) -> Tuple[CheckReport, str]:
    """Forge a plan whose field window overruns its brick by one."""
    total_slots, brick_elems, volume = 64, 1024, 512
    rows = np.full((1, 27), -1, dtype=np.int64)
    rows[0, 13] = 0
    report = CheckReport()
    check_adjacency_rows(
        rows, total_slots, brick_elems, brick_elems - volume + 1, volume,
        report, rank=0,
    )
    return report, "field-window"


#: every violation class the verifier claims to catch
MUTATIONS: Dict[str, Callable] = {
    "tag_collision": _inject_tag_collision,
    "dropped_recv": _inject_dropped_recv,
    "dropped_send": _inject_dropped_send,
    "byte_mismatch": _inject_byte_mismatch,
    "dead_rank": _inject_dead_rank,
    "oob_adjacency": _inject_oob_adjacency,
    "field_window": _inject_field_window,
}


def run_selftest(
    problem: Optional[StencilProblem] = None,
    methods: Tuple[str, ...] = ("memmap",),
) -> Dict[str, bool]:
    """Inject every mutation class; map mutation name -> detected.

    A value of ``False`` anywhere means the verifier has a blind spot;
    ``repro check --selftest`` (and the CI ``static-verify`` job) exit
    nonzero on it.
    """
    problem = problem or _default_problem()
    results: Dict[str, bool] = {}
    for method in methods:
        for name, inject in MUTATIONS.items():
            report, expected_code = inject(problem, method)
            key = name if len(methods) == 1 else f"{method}:{name}"
            results[key] = report.has(expected_code)
    return results
