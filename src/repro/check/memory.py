"""Pass 2: compiled-plan and channel-buffer memory verification.

Proves, purely from geometry, that what the run's compiled plans index
and its wire-visible storage ranges stay inside the regions they are
entitled to.  What the kernels read is the same on every rank -- one
adjacency, the run geometry's, which every rank's plans slice their rows
from -- so it is checked once, on that very array; only the wire ranges
are a rank's own:

* **adjacency rows in bounds** -- what the brick kernel consumes, and
  all it addresses neighbours through: every entry of the
  compute slots' ``(n, 3^D)`` adjacency rows is the ``-1`` absent
  sentinel or a slot of the arena (``< total_slots``), and the plan's
  field window fits inside a brick
  (``field_offset + volume <= brick_elems``), so every sub-box the
  kernel stages from a neighbour stays inside that neighbour's brick;
* **wire ranges in bounds** -- the storage byte ranges a zero-copy
  scheme wires directly (``PlannedMessage.ranges``) fall inside the
  arena, sends read only surface sections (padding included for the
  page-granular MemMap views), receives write only ghost sections;
* **snapshot aliasing** -- no received byte overlaps the interior or
  surface payload spans the checkpointer snapshots: a wire write into
  snapshot territory would silently corrupt a restored epoch;
* **receive disjointness** -- no two receives of one rank write
  overlapping storage bytes.

The helpers take explicit tables so the mutation harness
(:mod:`repro.check.selftest`) can feed forged inputs and assert the
violations are caught.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.brick.decomp import BrickDecomp, SlotAssignment
from repro.check.report import CheckReport
from repro.core.geometry import RunGeometry
from repro.exchange.base import RankMessagePlan

__all__ = [
    "verify_memory",
    "check_adjacency_rows",
    "check_ranges",
]

PASS = "memory"


# ----------------------------------------------------------------------
# Reusable checkers (the selftest feeds these forged inputs)
# ----------------------------------------------------------------------
def check_adjacency_rows(
    rows: np.ndarray,
    total_slots: int,
    brick_elems: int,
    field_offset: int,
    volume: int,
    report: CheckReport,
    rank: int,
) -> None:
    """Validate the adjacency rows the brick kernels stage through."""
    rows = np.asarray(rows)
    bad = (rows < -1) | (rows >= total_slots)
    if bad.any():
        worst = int(rows[bad].max())
        report.error(
            PASS, "oob-adjacency",
            f"rank {rank}: {int(bad.sum())} adjacency entry value(s) are"
            f" neither the -1 absent sentinel nor a slot of the"
            f" {total_slots}-slot arena (e.g. {worst})",
            ranks=(rank,), slot=worst,
            hint="the adjacency must be rebuilt for this assignment's"
                 " total_slots",
        )
    if field_offset < 0 or field_offset + volume > brick_elems:
        report.error(
            PASS, "field-window",
            f"rank {rank}: the plan's field window [{field_offset},"
            f" {field_offset + volume}) does not fit in"
            f" {brick_elems}-element bricks",
            ranks=(rank,),
            hint="field_offset/volume disagree between the plan and the"
                 " storage",
        )


def _union(spans: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge (start, stop) byte spans into a sorted disjoint union."""
    out: List[Tuple[int, int]] = []
    for lo, hi in sorted(spans):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _covered(lo: int, hi: int, union: Sequence[Tuple[int, int]]) -> bool:
    for ulo, uhi in union:
        if ulo <= lo and hi <= uhi:
            return True
    return False


def _intersects(
    lo: int, hi: int, union: Sequence[Tuple[int, int]]
) -> Optional[Tuple[int, int]]:
    for ulo, uhi in union:
        if lo < uhi and ulo < hi:
            return (max(lo, ulo), min(hi, uhi))
    return None


def check_ranges(
    plan: RankMessagePlan,
    decomp: BrickDecomp,
    asn: SlotAssignment,
    report: CheckReport,
) -> None:
    """One rank's wire-visible storage ranges vs the slot assignment's
    sections."""
    bb = decomp.brick_bytes
    arena_bytes = asn.total_slots * bb
    rank = plan.rank
    # Padded spans: MemMap wires whole pages, which cover each section's
    # alignment padding; payload spans: the bytes that carry data the
    # checkpointer snapshots and the kernels read.
    surface_padded = _union(
        [(s.start * bb, s.padded_end * bb)
         for s in asn.sections if s.kind == "surface" and s.nbricks]
    )
    ghost_padded = _union(
        [(s.start * bb, s.padded_end * bb)
         for s in asn.sections if s.kind == "ghost" and s.nbricks]
    )
    owned_payload = _union(
        [(s.start * bb, s.end * bb)
         for s in asn.sections
         if s.kind in ("interior", "surface") and s.nbricks]
    )

    recv_spans: List[Tuple[int, int, int]] = []  # (lo, hi, tag)
    for kind, allowed in (("sends", surface_padded), ("recvs", ghost_padded)):
        for m in getattr(plan, kind):
            if m.ranges is None:
                continue
            for off, length in m.ranges:
                lo, hi = int(off), int(off) + int(length)
                if lo < 0 or hi > arena_bytes:
                    report.error(
                        PASS, "range-out-of-arena",
                        f"rank {rank}: {kind[:-1]} range [{lo}, {hi})"
                        f" (tag {m.tag}) leaves the"
                        f" {arena_bytes}-byte storage arena",
                        ranks=(rank,), tag=m.tag, slot=lo // bb,
                    )
                    continue
                if not _covered(lo, hi, allowed):
                    where = (
                        "surface" if kind == "sends" else "ghost"
                    )
                    report.error(
                        PASS,
                        "send-range-oob" if kind == "sends"
                        else "recv-range-oob",
                        f"rank {rank}: {kind[:-1]} range [{lo}, {hi})"
                        f" (tag {m.tag}) is not contained in the"
                        f" {where} sections' padded spans",
                        ranks=(rank,), tag=m.tag, slot=lo // bb,
                        hint="the exchanger's section bookkeeping and"
                             " the slot assignment disagree",
                    )
                if kind == "recvs":
                    clash = _intersects(lo, hi, owned_payload)
                    if clash is not None:
                        report.error(
                            PASS, "recv-aliases-snapshot",
                            f"rank {rank}: recv range [{lo}, {hi}) (tag"
                            f" {m.tag}) overlaps owned payload bytes"
                            f" [{clash[0]}, {clash[1]}); a wire write"
                            " there corrupts data the checkpointer"
                            " snapshots",
                            ranks=(rank,), tag=m.tag,
                            slot=clash[0] // bb,
                            hint="receives must land only in ghost"
                                 " sections",
                        )
                    recv_spans.append((lo, hi, m.tag))

    recv_spans.sort()
    for (alo, ahi, atag), (blo, bhi, btag) in zip(
        recv_spans, recv_spans[1:]
    ):
        if blo < ahi:
            report.error(
                PASS, "recv-range-overlap",
                f"rank {rank}: recv ranges for tags {atag} and {btag}"
                f" overlap in [{blo}, {min(ahi, bhi)}); later delivery"
                " order would decide the bytes",
                ranks=(rank,), tag=btag, slot=blo // bb,
            )


# ----------------------------------------------------------------------
# The pass itself
# ----------------------------------------------------------------------
def verify_memory(geometry: RunGeometry, report: CheckReport) -> None:
    """Run every memory check over the run geometry.

    The kernel-side checks read ``geometry.brick_info`` -- the adjacency
    the run's stencil plans are compiled over, not a rebuilt copy -- and
    run once (a finding there is every rank's; it is reported as rank
    0's); the wire ranges are checked per rank plan.  Array schemes
    have neither: their plans sweep one box the constructor bounds, and
    their wire buffers are separate staging.
    """
    decomp, asn, binfo = geometry.decomp, geometry.assignment, geometry.brick_info
    if decomp is None:
        return
    for plan in geometry.plans:
        check_ranges(plan, decomp, asn, report)
    slots = decomp.compute_slots(asn)
    check_adjacency_rows(
        binfo.adjacency[slots], asn.total_slots, decomp.brick_elems, 0,
        decomp.brick_volume, report, 0,
    )
