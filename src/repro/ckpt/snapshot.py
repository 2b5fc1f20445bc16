"""Snapshot semantics on top of the raw :class:`CheckpointStore`.

This module knows what a *rank's* checkpoint means for an executed SPMD
stencil run:

* :func:`storage_chunks` names one section per non-empty
  :class:`~repro.brick.decomp.Section` of the slot assignment --
  alignment padding slots are never written.
* :func:`snapshot_runs` is the one rule of what a snapshot holds: the
  sections a restore at its step reads, grouped into maximal runs of
  adjacent slots, each written as one chunk.  At an exchange step the
  ghost sections the rank's plan receives into are dead (the exchange
  at that step rewrites them before any sweep reads them), so a brick
  rank of a periodic world writes its owned slot run alone -- the
  paper's layout keeps it contiguous.  The driver's saves and restores
  and elastic re-bricking all ask this function, never
  :func:`storage_chunks` directly.
* :class:`RankCheckpointer` saves each buffer of the double buffer
  against that buffer's previous snapshot, so the store references the
  runs whose bytes did not change.
* :func:`negotiate_epoch` is the restart-consistency protocol: an
  iterative allreduce that finds the newest epoch *every* rank holds a
  verified snapshot of (gaps per rank are fine -- pruning and mid-write
  crashes make them normal).
* :func:`problem_key` fingerprints the run configuration, so a restore
  refuses snapshots written by a different problem/layout/dtype.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.ckpt.store import CheckpointError, CheckpointStore
from repro.obs import TRACER as _TRACER

__all__ = [
    "ChunkSpec",
    "RunSpec",
    "group_runs",
    "snapshot_runs",
    "storage_chunks",
    "NoCommonEpochError",
    "negotiate_epoch",
    "problem_key",
    "CheckpointConfig",
    "RankCheckpointer",
]


class NoCommonEpochError(CheckpointError):
    """No epoch is verified on *every* rank.

    Carries ``newest_by_rank`` -- each rank's newest verified epoch (-1
    for a rank with no verified snapshots at all) -- so the operator can
    see exactly which rank is the odd one out instead of an opaque
    failure.  Raised only when the caller opts in with
    ``negotiate_epoch(..., required=True)``; the default contract keeps
    returning -1 (the driver's cold-start path depends on it).
    """

    def __init__(self, newest_by_rank: Sequence[int]) -> None:
        self.newest_by_rank = [int(e) for e in newest_by_rank]
        detail = ", ".join(
            f"rank {r}: {'none' if e < 0 else f'epoch {e}'}"
            for r, e in enumerate(self.newest_by_rank)
        )
        super().__init__(
            f"no common verified snapshot epoch; newest per rank: {detail}"
        )


@dataclass(frozen=True)
class ChunkSpec:
    """One named contiguous slot range of the brick storage (a section)."""

    name: str
    start_slot: int
    nslots: int


@dataclass(frozen=True)
class RunSpec:
    """Adjacent sections written as one chunk: slots ``[start_slot,
    start_slot + nslots)``."""

    start_slot: int
    nslots: int
    sections: Tuple[ChunkSpec, ...]

    def chunk(self, slot_bytes: Callable, slot_nbytes: int):
        """``(section table, buffer)`` the store writes for this run, out
        of a buffer whose slot range ``slot_bytes(start, n)`` views."""
        return (
            [(s.name, s.nslots * slot_nbytes) for s in self.sections],
            slot_bytes(self.start_slot, self.nslots),
        )


#: An array rank's snapshot: its whole extended array, one "slot".
_ARRAY_RUNS = [RunSpec(0, 1, (ChunkSpec("array", 0, 1),))]


def storage_chunks(assignment) -> List[ChunkSpec]:
    """Section-granular layout for one slot assignment.

    Section names are stable across runs of the same layout (derived
    from region/neighbor set notation, not slot numbers), which is what
    lets a manifest reference a parent run by its section table and a
    re-bricked or restored snapshot be read by name.  Padding slots hold
    no data and are excluded.
    """
    return [
        ChunkSpec(
            _section_name(sec.kind, sec.region, sec.neighbor), sec.start, sec.nbricks
        )
        for sec in assignment.sections
        if sec.nbricks
    ]


@lru_cache(maxsize=None)
def _section_name(kind: str, region, neighbor) -> str:
    """A section's name: a few hundred distinct ones, each spelled once."""
    if kind == "interior":
        return "interior"
    if kind == "surface":
        return f"surface:{region.notation()}"
    return f"ghost:{neighbor.notation()}:{region.notation()}"


def group_runs(specs: Iterable[ChunkSpec]) -> List[RunSpec]:
    """*specs* as maximal runs of slot-adjacent sections."""
    runs: List[List[ChunkSpec]] = []
    for spec in sorted(specs, key=lambda s: s.start_slot):
        last = runs[-1][-1] if runs else None
        if last is not None and last.start_slot + last.nslots == spec.start_slot:
            runs[-1].append(spec)
        else:
            runs.append([spec])
    return [
        RunSpec(run[0].start_slot, sum(s.nslots for s in run), tuple(run))
        for run in runs
    ]


def _received_slots(geometry, rank: int) -> np.ndarray:
    """Per slot: does *rank*'s plan receive into every byte of it?"""
    asn = geometry.assignment
    slot_nbytes = geometry.decomp.brick_elems * np.dtype(geometry.decomp.dtype).itemsize
    got = np.zeros(asn.total_slots, dtype=bool)
    for m in geometry.plans[rank].recvs:
        for off, nbytes in m.ranges:
            got[-(-off // slot_nbytes) : (off + nbytes) // slot_nbytes] = True
    return got


def snapshot_runs(geometry, rank: int, step: int, period: int) -> List[RunSpec]:
    """What a snapshot of *rank* taken before *step* holds, as runs.

    The one rule every snapshot writer and reader follows (driver save
    and restore, elastic re-bricking): a snapshot holds what a restore
    at that step reads.

    * At an exchange step (``step % period == 0``) a ghost section that
      the rank's plan (of *geometry*) receives into is dead: the
      exchange of that step rewrites it before any sweep reads it --
      retried (a re-fire rewrites the same bytes) or not.  It is not
      written.
    * Mid-cycle, ghost sections hold the redundantly computed margins
      the next sweep reads, so every section is live.  Ghost sections
      no receive covers (the boundary of a non-periodic problem) are
      live at every step.

    Live sections are grouped into maximal runs of adjacent slots: on a
    periodic Layout world an exchange-step snapshot is the owned slot
    run alone.  An array rank keeps its single ``array`` run: its owned
    box is strided rows, which a write could only reach through a pack.
    """
    asn = geometry.assignment
    if asn is None:
        return _ARRAY_RUNS
    specs = storage_chunks(asn)
    if step % period == 0:
        got = _received_slots(geometry, rank)
        ghost = {
            s.start for s in asn.sections if s.kind == "ghost" and s.nbricks
        }
        specs = [
            s
            for s in specs
            if s.start_slot not in ghost
            or not got[s.start_slot : s.start_slot + s.nslots].all()
        ]
    return group_runs(specs)


def negotiate_epoch(
    comm, epochs: Iterable[int], allreduce: Callable, *, required: bool = False
) -> int:
    """Agree on the newest epoch every rank can restore, or -1.

    Each rank contributes the set of epochs it holds *verified*
    snapshots for.  Ranks may have gaps (pruned epochs, a crash between
    one rank's commit and another's), so a single ``min`` of per-rank
    maxima is not enough: the minimum might be an epoch some other rank
    pruned.  Instead the protocol descends: propose the global minimum
    of current candidates, check that everyone holds it exactly, and if
    not, retry from each rank's newest epoch at or below the failed
    proposal.  Candidates strictly decrease each round, so the loop
    terminates in at most ``len(epochs)`` + 1 rounds.

    With ``required=True`` the no-common-epoch outcome raises
    :class:`NoCommonEpochError` naming every rank's newest verified
    epoch (collectively -- all ranks raise) instead of returning -1,
    for callers that cannot proceed without a snapshot.  The default
    keeps the -1 contract the driver's cold-start path relies on.

    *allreduce* is injected (the simmpi collective) so this module does
    not import the fabric.
    """
    mine = sorted(set(int(e) for e in epochs))
    cand = mine[-1] if mine else -1
    while True:
        agreed_cand = int(allreduce(comm, np.asarray(cand, np.int64), np.minimum))
        if agreed_cand < 0:
            if not required:
                return -1
            # Collect each rank's newest epoch positionally: a vector
            # with my newest in my slot, reduced with max, lands the
            # full per-rank picture on every rank using only allreduce.
            newest = np.full(comm.size, -2, dtype=np.int64)
            newest[comm.rank] = mine[-1] if mine else -1
            newest = allreduce(comm, newest, np.maximum)
            raise NoCommonEpochError(newest.tolist())
        cand = agreed_cand
        have = max((e for e in mine if e <= cand), default=-1)
        agreed = int(
            allreduce(comm, np.asarray(int(have == cand), np.int64), np.minimum)
        )
        if agreed:
            return cand
        cand = have


def problem_key(
    problem,
    seed: int,
    method: str,
    alignment: int,
    total_slots: int,
    exchange_period: int,
) -> str:
    """Fingerprint of everything a snapshot's bytes implicitly assume.

    Two runs share a key iff a snapshot from one is byte-meaningful to
    the other: same global problem, decomposition, physical slot layout
    (alignment and slot count pin the permutation), dtype, initial seed,
    and ghost-exchange period.  The exchanger *implementation* is free
    to differ -- that is the point of elastic restart -- but the method
    is included for basic-vs-brick storage shape (array methods store a
    dense array, brick methods store sections).
    """
    uses_bricks = method not in ("basic",)
    parts = [
        "format=2",
        f"extent={tuple(problem.global_extent)}",
        f"ranks={tuple(problem.rank_dims)}",
        f"brick={tuple(problem.brick_dim)}",
        f"ghost={int(problem.ghost)}",
        f"stencil={problem.stencil!r}",
        f"layout={[r.notation() for r in problem.layout]}",
        f"dtype={np.dtype(problem.dtype).str}",
        f"seed={int(seed)}",
        f"bricks={uses_bricks}",
        f"alignment={int(alignment)}",
        f"slots={int(total_slots)}",
        f"period={int(exchange_period)}",
    ]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:32]


@dataclass
class CheckpointConfig:
    """Per-run checkpoint settings handed to every rank function.

    ``resume`` is deliberately mutable: the driver's relaunch loop flips
    it to True between attempts so relaunched ranks restore instead of
    reinitialising.
    """

    store: CheckpointStore
    period: int = 1
    resume: bool = False

    def due(self, step: int, start_step: int) -> bool:
        """Checkpoint at *step*?  Never at the step we just restored to
        (that snapshot already exists) and never at step 0 (the initial
        condition is recomputable from the seed)."""
        if self.period <= 0:
            return False
        if step == start_step:
            return False
        return step % self.period == 0


class RankCheckpointer:
    """One rank's save/restore engine, bound to a section layout.

    A rank steps a double buffer and a snapshot is of the buffer a step
    reads, so the engine keeps one parent manifest per buffer: a
    snapshot of a buffer references only whole runs that same buffer
    held, byte for byte, at its own last snapshot -- the other buffer's
    bytes are not the same bytes, and at exchange period 2 its
    snapshots (mid-cycle against exchange step) do not even have the
    same runs.  What a save writes and a restore fills are the store's
    ``(section table, buffer)`` runs, built from :func:`snapshot_runs`
    for the step.
    """

    def __init__(self, config: CheckpointConfig, rank: int, key: str) -> None:
        self.config = config
        self.rank = int(rank)
        self.key = key
        self._parent: List[Optional[dict]] = [None, None]
        self.saves = 0
        self.saved_bytes = 0

    # ------------------------------------------------------------------
    def save(
        self, epoch: int, runs: Sequence[tuple], meta: Mapping, buf: int = 0
    ) -> dict:
        """Commit one snapshot of buffer *buf*; returns its manifest.

        Runs whose bytes equal the buffer's previous snapshot's are
        referenced; the first save of a buffer in a run (or of buffer 1
        after a restore) writes everything.
        """
        parent = self._parent[buf]
        with _TRACER.span(
            "ckpt.save", rank=self.rank, epoch=epoch,
            mode="full" if parent is None else "incr",
        ):
            manifest = self.config.store.save(
                self.rank,
                epoch,
                runs,
                meta=meta,
                problem_key=self.key,
                parent=parent,
            )
        self._parent[buf] = manifest
        self.saves += 1
        self.saved_bytes += int(manifest["data_bytes"])
        return manifest

    # ------------------------------------------------------------------
    def verified_epochs(self) -> List[int]:
        return self.config.store.verified_epochs(self.rank, self.key)

    def restore(self, epoch: int, runs: Sequence[tuple]) -> dict:
        """Load *epoch* into the given runs' views; returns the meta doc.

        *runs* are what a save at *epoch* writes (:func:`snapshot_runs`),
        so the sections written are exactly the ones the snapshot holds
        (names and byte sizes are checked); a dead ghost section is left
        to the exchange that opens the resumed step.  Writing through
        the views re-fills the live arena, so MemMap stitched views built
        over the arena afterwards see the restored bytes with no extra
        copy.
        """
        with _TRACER.span("ckpt.restore", rank=self.rank, epoch=epoch):
            manifest = self.config.store.manifest(self.rank, epoch)
            if manifest["problem_key"] != self.key:
                raise CheckpointError(
                    f"rank {self.rank} epoch {epoch} was written by a"
                    " different run configuration"
                )
            state = self.config.store.read_state(self.rank, manifest, verify=True)
            names = set(state)
            for sections, view in runs:
                flat = view.reshape(-1).view(np.uint8)
                pos = 0
                for name, nbytes in sections:
                    data = state.get(name)
                    if data is None:
                        raise CheckpointError(
                            f"snapshot rank {self.rank} epoch {epoch} is"
                            f" missing section {name!r}"
                        )
                    if nbytes != len(data):
                        raise CheckpointError(
                            f"section {name!r} is {len(data)} bytes on disk"
                            f" but {nbytes} bytes live"
                        )
                    flat[pos : pos + nbytes] = np.frombuffer(data, dtype=np.uint8)
                    names.discard(name)
                    pos += nbytes
            if names:
                raise CheckpointError(
                    f"snapshot rank {self.rank} epoch {epoch} has extra"
                    f" sections {sorted(names)}"
                )
        # Future saves of buffer 0 dedup against the restored snapshot;
        # buffer 1 holds nothing a snapshot recorded.
        self._parent = [manifest, None]
        return manifest["meta"]
