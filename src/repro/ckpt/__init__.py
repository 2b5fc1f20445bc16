"""Checkpoint/restart subsystem: content-verified snapshots of brick
storage, deduplicated run by run against each buffer's previous
snapshot, plus the consistency protocol for elastic SPMD restart.

Layering:

* :mod:`repro.ckpt.store` -- the on-disk format: one file per rank
  snapshot (manifest, then payload runs with one CRC32 each), committed
  by one write, two fsyncs and a rename; a run whose bytes equal a run
  of the parent snapshot is a reference, not a copy.
* :mod:`repro.ckpt.snapshot` -- run semantics: the rule of what a
  snapshot at a step holds (:func:`snapshot_runs`: live sections of a
  :class:`~repro.brick.decomp.SlotAssignment` as maximal slot runs),
  the per-buffer checkpointer, the epoch-negotiation allreduce, problem
  fingerprinting.

What a save costs is measured by ``tools/numpy_tier_bench.py ckpt`` and
halobench's ``ckpt.save`` row; ``tests/golden_counts.json`` pins the
bytes and chunks of a store and of a checkpointed run.

The driver-side wiring (checkpoint period inside the timestep loop,
relaunch after an injected crash) lives in :mod:`repro.core.driver`.
"""

from repro.ckpt.snapshot import (
    CheckpointConfig,
    ChunkSpec,
    NoCommonEpochError,
    RankCheckpointer,
    RunSpec,
    group_runs,
    negotiate_epoch,
    problem_key,
    snapshot_runs,
    storage_chunks,
)
from repro.ckpt.store import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointStore,
)

__all__ = [
    "CheckpointStore",
    "CheckpointError",
    "CheckpointCorruptionError",
    "CheckpointFormatError",
    "CheckpointConfig",
    "ChunkSpec",
    "NoCommonEpochError",
    "RankCheckpointer",
    "RunSpec",
    "group_runs",
    "negotiate_epoch",
    "problem_key",
    "snapshot_runs",
    "storage_chunks",
]
