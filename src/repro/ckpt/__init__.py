"""Checkpoint/restart subsystem: content-verified incremental snapshots
of brick storage plus the consistency protocol for elastic SPMD restart.

Layering:

* :mod:`repro.ckpt.store` -- the on-disk format: per-rank manifests with
  per-chunk CRC32, atomic rename commits, full/incremental snapshots.
* :mod:`repro.ckpt.snapshot` -- run semantics: section-granular chunk
  layout over a :class:`~repro.brick.decomp.SlotAssignment`, dirty-slot
  tracking, the epoch-negotiation allreduce, problem fingerprinting.
* :mod:`repro.ckpt.bench` -- the overhead benchmark behind
  ``BENCH_ckpt.json``.

The driver-side wiring (checkpoint period inside the timestep loop,
relaunch after an injected crash) lives in :mod:`repro.core.driver`.
"""

from repro.ckpt.snapshot import (
    CheckpointConfig,
    ChunkSpec,
    DirtyTracker,
    NoCommonEpochError,
    RankCheckpointer,
    negotiate_epoch,
    problem_key,
    storage_chunks,
)
from repro.ckpt.store import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointStore,
)

__all__ = [
    "CheckpointStore",
    "CheckpointError",
    "CheckpointCorruptionError",
    "CheckpointConfig",
    "ChunkSpec",
    "DirtyTracker",
    "NoCommonEpochError",
    "RankCheckpointer",
    "negotiate_epoch",
    "problem_key",
    "storage_chunks",
]
