"""Snapshot semantics on top of the raw :class:`CheckpointStore`.

This module knows what a *rank's* checkpoint means for an executed SPMD
stencil run:

* :func:`storage_chunks` names one chunk per non-empty
  :class:`~repro.brick.decomp.Section` of the slot assignment, so a
  snapshot is section-granular -- alignment padding slots are never
  written, and dirty tracking can skip whole regions the workload did
  not touch.
* :class:`DirtyTracker` accumulates touched slots between checkpoints;
  :class:`RankCheckpointer` turns that into the ``dirty_names`` hint the
  store uses to write incremental snapshots.
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
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.ckpt.store import CheckpointError, CheckpointStore
from repro.obs import METRICS as _METRICS
from repro.obs import TRACER as _TRACER

__all__ = [
    "ChunkSpec",
    "storage_chunks",
    "DirtyTracker",
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
    """One named contiguous slot range of the brick storage."""

    name: str
    start_slot: int
    nslots: int


def storage_chunks(assignment) -> List[ChunkSpec]:
    """Section-granular chunk layout for one slot assignment.

    Chunk names are stable across runs of the same layout (derived from
    region/neighbor set notation, not slot numbers), which is what lets
    an incremental manifest reference its parent's chunks by name.
    Padding slots hold no data and are excluded.
    """
    specs: List[ChunkSpec] = []
    for sec in assignment.sections:
        if sec.nbricks == 0:
            continue
        if sec.kind == "interior":
            name = "interior"
        elif sec.kind == "surface":
            name = f"surface:{sec.region.notation()}"
        else:
            name = f"ghost:{sec.neighbor.notation()}:{sec.region.notation()}"
        specs.append(ChunkSpec(name, sec.start, sec.nbricks))
    return specs


class DirtyTracker:
    """Which slots were written since the last checkpoint, as a bitmap.

    The driver marks ghost sections after each exchange and computed
    slots after each stencil application; :meth:`names` projects the
    bitmap onto the chunk layout so the store can skip clean sections
    without hashing them.
    """

    def __init__(self, nslots: int) -> None:
        # One slot past the end stays clean: a section that ends at the
        # last slot then has a valid end index for ``reduceat``.
        self._dirty = np.zeros(int(nslots) + 1, dtype=bool)
        self._bounds = (None, None)  # (specs, their [start, end) pairs)

    def mark_slots(self, slots) -> None:
        if not isinstance(slots, np.ndarray):  # () would index everything
            slots = np.asarray(slots, dtype=np.int64)
        self._dirty[slots] = True

    def clear(self) -> None:
        self._dirty[:] = False

    def names(self, specs: Sequence[ChunkSpec]) -> List[str]:
        """Chunk names containing at least one dirty slot: one
        ``logical_or.reduceat`` over the chunks' ``[start, end)`` pairs
        (the odd results, end to next start, are dropped; an empty
        chunk's result is one slot's and is dropped too)."""
        if self._bounds[0] is not specs:
            pairs = [(s.start_slot, s.start_slot + s.nslots) for s in specs]
            self._bounds = (specs, np.array(pairs, dtype=np.intp).reshape(-1))
        if not specs:
            return []
        hit = np.logical_or.reduceat(self._dirty, self._bounds[1])[::2]
        return [
            spec.name
            for spec, dirty in zip(specs, hit.tolist())
            if dirty and spec.nslots
        ]


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
        "format=1",
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
    mode: str = "incr"
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
    """One rank's save/restore engine, bound to a chunk layout.

    Keeps the parent manifest between saves so every checkpoint after
    the first can be incremental, and owns the rank's
    :class:`DirtyTracker`.
    """

    def __init__(
        self,
        config: CheckpointConfig,
        rank: int,
        specs: Sequence[ChunkSpec],
        key: str,
        nslots: int,
    ) -> None:
        self.config = config
        self.rank = int(rank)
        self.specs = list(specs)
        self.key = key
        self.dirty = DirtyTracker(nslots)
        self._parent: Optional[dict] = None
        self.saves = 0
        self.saved_bytes = 0

    # ------------------------------------------------------------------
    def save(
        self,
        epoch: int,
        chunks: Sequence[Tuple[str, np.ndarray]],
        meta: Mapping,
    ) -> dict:
        """Commit one snapshot; returns its manifest.

        Mode is the configured one, except the first save of a run (or
        after a restore) which is necessarily full.  The dirty bitmap is
        consumed: it is cleared only after the store commits, so a save
        that raises leaves the dirt in place for the next attempt.
        """
        mode = self.config.mode if self._parent is not None else "full"
        dirty_names = None
        if mode == "incr":
            dirty_names = self.dirty.names(self.specs)
        with _TRACER.span(
            "ckpt.save", rank=self.rank, epoch=epoch, mode=mode
        ):
            manifest = self.config.store.save(
                self.rank,
                epoch,
                chunks,
                meta=meta,
                mode=mode,
                problem_key=self.key,
                parent=self._parent,
                dirty_names=dirty_names,
            )
        self._parent = manifest
        self.dirty.clear()
        self.saves += 1
        self.saved_bytes += int(manifest["data_bytes"])
        if _METRICS.enabled:
            _METRICS.count("ckpt.saves", 1, rank=self.rank)
            _METRICS.count(
                "ckpt.saved_bytes", int(manifest["data_bytes"]), rank=self.rank
            )
        return manifest

    # ------------------------------------------------------------------
    def verified_epochs(self) -> List[int]:
        return self.config.store.verified_epochs(self.rank, self.key)

    def restore(self, epoch: int, chunks: Sequence[Tuple[str, np.ndarray]]) -> dict:
        """Load *epoch* into the given chunk views; returns the meta doc.

        The chunk views must be the same layout the snapshot was written
        with (names and byte sizes are checked); writing through them
        re-fills the live arena, so MemMap stitched views built over the
        arena afterwards see the restored bytes with no extra copy.
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
            for name, view in chunks:
                if name not in state:
                    raise CheckpointError(
                        f"snapshot rank {self.rank} epoch {epoch} is missing"
                        f" chunk {name!r}"
                    )
                data = state[name]
                flat = view.reshape(-1).view(np.uint8)
                if flat.nbytes != len(data):
                    raise CheckpointError(
                        f"chunk {name!r} is {len(data)} bytes on disk but"
                        f" {flat.nbytes} bytes live"
                    )
                flat[:] = np.frombuffer(data, dtype=np.uint8)
                names.discard(name)
            if names:
                raise CheckpointError(
                    f"snapshot rank {self.rank} epoch {epoch} has extra"
                    f" chunks {sorted(names)}"
                )
        # Future incrementals hang off the restored snapshot.
        self._parent = manifest
        self.dirty.clear()
        if _METRICS.enabled:
            _METRICS.count("ckpt.restores", 1, rank=self.rank)
        return manifest["meta"]
