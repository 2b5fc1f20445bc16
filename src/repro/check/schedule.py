"""Pass 1: global send/recv schedule verification.

Rebuilds the whole job's message multigraph from every rank's static
:class:`~repro.exchange.base.RankMessagePlan` and proves, ahead of any
fabric traffic:

* **pairing** -- every send has exactly one matching recv on the same
  ``(phase, src, dst, tag)`` edge and vice versa (orphan sends and
  starved recvs are the two halves of a deadlock: the fabric's sends are
  synchronous-mode, so an unmatched post blocks its poster forever);
* **byte agreement** -- both endpoints of an edge agree on the byte
  count, exactly the comparison the fabric's negotiation makes when a
  channel binds (``SplitMismatchError``); here it is a finding with
  both counts;
* **tag-space hygiene** -- no duplicate ``(peer, tag)`` within one
  rank's sends (or recvs) of one phase, and every peer inside the world;
* **liveness** -- no edge touches a rank marked dead (elastic restart
  must re-brick onto a decomposition that avoids lost nodes; an edge to
  a dead rank would raise ``RankDeadError`` on first contact).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from repro.check.report import CheckReport
from repro.exchange.base import PlannedMessage, RankMessagePlan

__all__ = ["verify_schedule"]

PASS = "schedule"


def _edges(
    plans: Dict[int, RankMessagePlan], kind: str
) -> Dict[Tuple[int, int, int, int], List[PlannedMessage]]:
    """Multigraph edges keyed ``(phase, src, dst, tag)`` for one side."""
    edges: Dict[Tuple[int, int, int, int], List[PlannedMessage]] = (
        defaultdict(list)
    )
    for rank, plan in plans.items():
        for m in getattr(plan, kind):
            if kind == "sends":
                key = (m.phase, rank, m.peer, m.tag)
            else:
                key = (m.phase, m.peer, rank, m.tag)
            edges[key].append(m)
    return edges


def verify_schedule(
    plans: Dict[int, RankMessagePlan],
    report: CheckReport,
    dead_ranks: Iterable[int] = (),
) -> None:
    """Run every schedule check over *plans*, appending to *report*."""
    dead = frozenset(int(r) for r in dead_ranks)
    nranks = len(plans)

    # Per-rank tag hygiene: a duplicate (peer, tag) inside one phase is
    # ambiguous on the wire regardless of what the peer does.
    for rank, plan in plans.items():
        for kind in ("sends", "recvs"):
            seen: Dict[Tuple[int, int, int], int] = {}
            for m in getattr(plan, kind):
                key = (m.phase, m.peer, m.tag)
                seen[key] = seen.get(key, 0) + 1
            for (phase, peer, tag), n in seen.items():
                if n > 1:
                    report.error(
                        PASS, "tag-collision",
                        f"rank {rank} {kind[:-1]}s {n} messages to peer"
                        f" {peer} with the same tag in phase {phase}; the"
                        " fabric matches on (src, dst, tag), so their"
                        " payloads are interchangeable on the wire",
                        ranks=(rank, peer), tag=tag,
                        hint="give each message a distinct run index in"
                             " exchange_tag(slab_dir_index, run)",
                    )

        for kind in ("sends", "recvs"):
            for m in getattr(plan, kind):
                if not 0 <= m.peer < nranks:
                    report.error(
                        PASS, "bad-peer",
                        f"rank {rank} addresses peer {m.peer}, outside"
                        f" the {nranks}-rank world",
                        ranks=(rank,), tag=m.tag,
                    )

    # Global pairing + byte agreement on each (phase,src,dst,tag).
    sends = _edges(plans, "sends")
    recvs = _edges(plans, "recvs")
    for key in sorted(set(sends) | set(recvs)):
        phase, src, dst, tag = key
        s_list = sends.get(key, [])
        r_list = recvs.get(key, [])
        if src in dead or dst in dead:
            report.error(
                PASS, "dead-rank-edge",
                f"edge rank {src} -> rank {dst} (tag {tag}, phase"
                f" {phase}) touches dead rank"
                f" {src if src in dead else dst}; first contact raises"
                " RankDeadError",
                ranks=(src, dst), tag=tag,
                hint="re-brick onto a decomposition that avoids the lost"
                     " node (elastic restart) before running",
            )
            continue
        if s_list and not r_list:
            other_phases = sorted(
                p for (p, s, d, t) in recvs
                if (s, d, t) == (src, dst, tag) and p != phase
            )
            if other_phases:
                report.error(
                    PASS, "phase-mismatch",
                    f"rank {src} sends to rank {dst} (tag {tag}) in phase"
                    f" {phase} but rank {dst} receives it in phase"
                    f" {other_phases[0]}; each waits in its own round's"
                    " receive for the other: deadlock",
                    ranks=(src, dst), tag=tag,
                )
            else:
                report.error(
                    PASS, "orphan-send",
                    f"rank {src} sends {s_list[0].nbytes} bytes to rank"
                    f" {dst} (tag {tag}, phase {phase}) but rank {dst}"
                    " never posts the matching receive; the synchronous-"
                    "mode send blocks forever",
                    ranks=(src, dst), tag=tag,
                    hint=f"rank {dst}'s plan must post a receive from"
                         f" rank {src} with tag {tag}",
                )
            continue
        if r_list and not s_list:
            report.error(
                PASS, "starved-recv",
                f"rank {dst} expects {r_list[0].nbytes} bytes from rank"
                f" {src} (tag {tag}, phase {phase}) but rank {src} never"
                " sends; the receive times out as a deadlock",
                ranks=(src, dst), tag=tag,
                hint=f"rank {src}'s plan must send to rank {dst} with"
                     f" tag {tag}",
            )
            continue
        if len(s_list) != len(r_list):
            # Duplicates already reported as tag-collision; the counts
            # still tell which side over-posts.
            report.error(
                PASS, "multiplicity-mismatch",
                f"edge rank {src} -> rank {dst} (tag {tag}, phase"
                f" {phase}) has {len(s_list)} send(s) vs"
                f" {len(r_list)} recv(s)",
                ranks=(src, dst), tag=tag,
            )
        for s, r in zip(s_list, r_list):
            if s.nbytes != r.nbytes:
                report.error(
                    PASS, "byte-mismatch",
                    f"rank {src} sends {s.nbytes} bytes to rank {dst}"
                    f" (tag {tag}, phase {phase}) but rank {dst} expects"
                    f" {r.nbytes}; the fabric's copy guard would reject"
                    " the delivery",
                    ranks=(src, dst), tag=tag,
                    hint="both endpoints must derive the message from"
                         " the same geometry (ghost width, brick size,"
                         " padding)",
                )
