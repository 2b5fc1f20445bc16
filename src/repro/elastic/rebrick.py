"""Re-brick a consistent snapshot epoch onto a new decomposition.

The elastic pivot: an N-rank world's per-rank snapshots are read back
run by run, assembled into the global field through each old rank's
owned region, and re-sliced, re-bricked and re-saved as an M-rank
snapshot of the *same epoch* under the new decomposition's problem key.
The relaunched M-rank world then restores it through the ordinary
checkpoint path -- restart-after-reshape is just restart.

Correctness rests on two invariants of the snapshot format, and both
hold for the writer as much as for the reader, because both sides ask
the one rule :func:`~repro.ckpt.snapshot.snapshot_runs` what a snapshot
at a step holds:

* The **owned region is always current and always held**: every cycle
  position computes all interior and surface bricks, so the src storage
  at epoch ``t`` holds timestep-``t`` values for every owned element
  regardless of the exchange period, and no snapshot leaves an owned
  section out.  The global field is therefore exactly recoverable from
  owned regions alone -- which is all :func:`restore_global` reads.
* **Ghost margins are reconstructible by periodic wrap**: the redundant
  computation of ghost-cell expansion is bit-identical to the owning
  neighbor's computation of the same cells, so filling the new ranks'
  ghost shells from the global field with periodic indexing reproduces
  every byte a resumed mid-cycle step may read.  (This is why elastic
  restart requires a periodic problem.)  At an exchange-step epoch the
  rule drops the received ghost sections from the written snapshot: the
  resumed world's first exchange rewrites them.

Data moves through the same zero-copy paths the checkpointer uses:
sections load into a scratch arena via ``BrickStorage.load_slot_bytes``
(an ``Arena.write_bytes`` under the hood), and the new runs are saved
straight from ``BrickStorage.slot_bytes`` arena views.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.brick.convert import bricks_to_extended, extended_to_bricks
from repro.brick.storage import BrickStorage
from repro.ckpt import (
    CheckpointError,
    CheckpointStore,
    problem_key,
    snapshot_runs,
)
from repro.core.expansion import resolve_period
from repro.core.geometry import RunGeometry
from repro.core.problem import StencilProblem
from repro.obs import TRACER as _TRACER
from repro.stencil.kernels import owned_slices
from repro.util.indexing import unravel_index

__all__ = ["rebrick", "snapshot_key", "restore_global"]


def snapshot_key(geometry: RunGeometry, seed: int, period: int) -> str:
    """The problem key the driver stamps on this world's snapshots."""
    return problem_key(
        geometry.problem, seed, geometry.method, *geometry.slot_key, period
    )


def _scratch(geometry: RunGeometry) -> Optional[BrickStorage]:
    """The scratch storage a brick world's snapshots pass through;
    ``None`` for an array world."""
    decomp, asn = geometry.decomp, geometry.assignment
    if decomp is None:
        return None
    return BrickStorage.allocate(asn.total_slots, decomp.brick_elems, decomp.dtype)


def restore_global(
    store: CheckpointStore,
    geometry: RunGeometry,
    epoch: int,
    seed: int,
    *,
    exchange_period=None,
) -> Tuple[np.ndarray, dict]:
    """Assemble the global field of *epoch* from the snapshot set of the
    world *geometry* describes.

    Returns ``(global array, rank-0 meta)``.  Every rank's runs are
    CRC-verified on read and checked against the configuration's problem
    key, so a snapshot from a different run shape is refused, not
    misinterpreted.
    """
    problem = geometry.problem
    period = resolve_period(problem, geometry.method, exchange_period)
    key = snapshot_key(geometry, seed, period)
    own_slc = owned_slices(geometry.extent, geometry.ghost)
    global_arr = np.empty(
        tuple(reversed(problem.global_extent)), dtype=problem.dtype
    )
    decomp, asn = geometry.decomp, geometry.assignment
    scratch = _scratch(geometry)
    meta0: dict = {}
    try:
        for rank in range(problem.nranks):
            manifest = store.manifest(rank, epoch)
            if manifest["problem_key"] != key:
                raise CheckpointError(
                    f"rank {rank} epoch {epoch} was written by a"
                    " different run configuration; cannot re-brick"
                )
            state = store.read_state(rank, manifest, verify=True)
            held = [
                (spec, state.get(spec.name))
                for run in snapshot_runs(geometry, rank, epoch, period)
                for spec in run.sections
            ]
            missing = [spec.name for spec, data in held if data is None]
            if missing:
                raise CheckpointError(
                    f"rank {rank} epoch {epoch} is missing sections {missing}"
                )
            if scratch is not None:
                for spec, data in held:
                    scratch.load_slot_bytes(spec.start_slot, spec.nslots, data)
                ext_arr = bricks_to_extended(decomp, scratch, asn)
            else:
                ext_arr = np.frombuffer(
                    held[0][1], dtype=problem.dtype
                ).reshape(geometry.extended_shape)
            coords = unravel_index(rank, problem.rank_dims)
            global_arr[problem.owned_slices(coords)] = ext_arr[own_slc]
            if rank == 0:
                meta0 = dict(manifest["meta"])
    finally:
        if scratch is not None:
            scratch.close()
    return global_arr, meta0


def _wrapped_extended(
    global_arr: np.ndarray, problem: StencilProblem, coords: Tuple[int, ...]
) -> np.ndarray:
    """One rank's extended subdomain cut from the global field, ghost
    shell filled by periodic wrap (bit-identical to redundant
    computation -- see the module docstring)."""
    sub = problem.subdomain_extent
    g = problem.ghost
    lo = [c * s for c, s in zip(coords, sub)]
    index = []
    for np_axis in range(problem.ndim):
        axis = problem.ndim - 1 - np_axis
        extent = problem.global_extent[axis]
        index.append(
            np.arange(lo[axis] - g, lo[axis] + sub[axis] + g) % extent
        )
    return np.ascontiguousarray(global_arr[np.ix_(*index)])


def rebrick(
    src_store: CheckpointStore,
    old_geometry: RunGeometry,
    epoch: int,
    dst_store: CheckpointStore,
    new_geometry: RunGeometry,
    *,
    seed: int,
    exchange_period=None,
    carry_meta: Optional[dict] = None,
) -> dict:
    """Re-slice epoch *epoch* from the N old ranks onto the M new ranks.

    Both worlds are read from their run geometry -- the old one the
    crashed run was launched from, the new one the relaunch will bind --
    so the snapshots written here match, by construction, the layout the
    resumed ranks restore into.  Writes one full-mode snapshot per new
    rank into *dst_store*, stamped with the new decomposition's problem
    key and a meta doc the resumed driver accepts (step, a restarted
    ledger, the new layout's adjacency CRC, and the
    carried-forward ``fired_crashes`` so already-fired fault sites do
    not refire).  Returns a summary dict.
    """
    old_problem, new_problem = old_geometry.problem, new_geometry.problem
    if not (old_problem.periodic and new_problem.periodic):
        raise ValueError(
            "elastic re-bricking requires a periodic problem: ghost"
            " shells are reconstructed by periodic wrap"
        )
    if tuple(old_problem.global_extent) != tuple(new_problem.global_extent):
        raise ValueError("old and new problems must share the global extent")
    period = resolve_period(new_problem, new_geometry.method, exchange_period)
    with _TRACER.span("elastic.rebrick", epoch=epoch):
        global_arr, old_meta = restore_global(
            src_store, old_geometry, epoch, seed,
            exchange_period=exchange_period,
        )
        carried = dict(carry_meta or {})
        fired = carried.get(
            "fired_crashes", old_meta.get("fired_crashes") or []
        )
        key = snapshot_key(new_geometry, seed, period)
        meta = _rebrick_meta(
            epoch, period, new_geometry.adjacency_crc, fired,
            old_meta.get("ladder_level"),
        )
        decomp, asn = new_geometry.decomp, new_geometry.assignment
        scratch = _scratch(new_geometry)
        bytes_written = 0
        try:
            for rank in range(new_problem.nranks):
                coords = unravel_index(rank, new_problem.rank_dims)
                ext_arr = _wrapped_extended(global_arr, new_problem, coords)
                if scratch is not None:
                    extended_to_bricks(ext_arr, decomp, scratch, asn)
                    buf = (scratch.slot_bytes, scratch.brick_bytes)
                else:
                    flat = ext_arr.reshape(-1).view(np.uint8)
                    buf = (lambda start, n, flat=flat: flat, flat.nbytes)
                runs = [
                    run.chunk(*buf)
                    for run in snapshot_runs(new_geometry, rank, epoch, period)
                ]
                manifest = dst_store.save(
                    rank, epoch, runs, meta=meta, problem_key=key
                )
                bytes_written += int(manifest["data_bytes"])
        finally:
            if scratch is not None:
                scratch.close()
    return {
        "epoch": int(epoch),
        "old_ranks": old_problem.nranks,
        "new_ranks": new_problem.nranks,
        "new_rank_dims": tuple(new_problem.rank_dims),
        "bytes_written": bytes_written,
    }


def _rebrick_meta(
    epoch: int, period: int, adjacency_crc: int, fired_crashes, ladder_level
) -> dict:
    """Meta doc for a re-bricked snapshot.

    The run ledger restarts (an empty record): its counts and timings
    described the old decomposition's traffic and mean nothing under the
    new one.  ``step`` makes the resumed loop continue at *epoch*.  The
    degradation-ladder rung carries over: a demotion is collective and
    stays in force across a reshape as across a restart in place.
    """
    return {
        "step": int(epoch),
        "ledger": {},
        "ladder_level": ladder_level,
        "period": int(period),
        "adjacency_crc": int(adjacency_crc),
        "fired_crashes": [list(c) for c in fired_crashes],
    }
