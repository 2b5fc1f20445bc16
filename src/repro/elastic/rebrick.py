"""Re-brick a consistent snapshot epoch onto a new decomposition.

The elastic pivot: an N-rank world's per-rank snapshots are read back
chunk by chunk, assembled into the global field through each old rank's
owned region, and re-sliced, re-bricked and re-saved as an M-rank
snapshot of the *same epoch* under the new decomposition's problem key.
The relaunched M-rank world then restores it through the ordinary
checkpoint path -- restart-after-reshape is just restart.

Correctness rests on two invariants of the snapshot format:

* The **owned region is always current**: every cycle position computes
  all interior and surface bricks, so the src storage at epoch ``t``
  holds timestep-``t`` values for every owned element regardless of the
  exchange period.  The global field is therefore exactly recoverable
  from owned regions alone.
* **Ghost margins are reconstructible by periodic wrap**: the redundant
  computation of ghost-cell expansion is bit-identical to the owning
  neighbor's computation of the same cells, so filling the new ranks'
  ghost shells from the global field with periodic indexing reproduces
  every byte a resumed mid-cycle step may read.  (This is why elastic
  restart requires a periodic problem.)

Data moves through the same zero-copy paths the checkpointer uses:
chunks load into a scratch arena via ``BrickStorage.load_slot_bytes``
(an ``Arena.write_bytes`` under the hood), and the new chunks are saved
straight from ``BrickStorage.slot_bytes`` arena views.
"""

from __future__ import annotations

import zlib
from typing import Optional, Tuple

import numpy as np

from repro.brick.convert import bricks_to_extended, extended_to_bricks
from repro.ckpt import (
    CheckpointError,
    CheckpointStore,
    problem_key,
    storage_chunks,
)
from repro.core.expansion import resolve_period
from repro.core.methods import method_info
from repro.core.problem import StencilProblem
from repro.obs import TRACER as _TRACER
from repro.stencil.kernels import owned_slices

__all__ = ["rebrick", "snapshot_key", "restore_global"]


def _brick_layout(problem: StencilProblem, method: str, page: Optional[int]):
    """(decomp, assignment) of the run's brick storage."""
    decomp = problem.brick_decomp()
    info = method_info(method)
    if info.base == "memmap":
        if page is None:
            raise ValueError("memmap re-bricking needs the run's page size")
        asn = decomp.assignment(decomp.alignment_for_page(page))
    else:
        asn = decomp.assignment(1)
    return decomp, asn


def snapshot_key(
    problem: StencilProblem,
    method: str,
    seed: int,
    period: int,
    page: Optional[int] = None,
) -> str:
    """The problem key the driver stamps on this configuration's snapshots."""
    info = method_info(method)
    if not info.uses_bricks:
        return problem_key(problem, seed, method, 1, 1, period)
    _, asn = _brick_layout(problem, method, page)
    return problem_key(
        problem, seed, method, asn.alignment, asn.total_slots, period
    )


def _rank_coords(rank: int, dims: Tuple[int, ...]) -> Tuple[int, ...]:
    """Cartesian coordinates in axis order 1..D (axis 1 fastest),
    matching ``CartComm.rank_to_coords``."""
    coords = []
    for d in dims:
        coords.append(rank % d)
        rank //= d
    return tuple(coords)


def restore_global(
    store: CheckpointStore,
    problem: StencilProblem,
    epoch: int,
    method: str,
    seed: int,
    *,
    exchange_period=None,
    page: Optional[int] = None,
) -> Tuple[np.ndarray, dict]:
    """Assemble the global field of *epoch* from an N-rank snapshot set.

    Returns ``(global array, rank-0 meta)``.  Every rank's chunks are
    CRC-verified on read and checked against the configuration's problem
    key, so a snapshot from a different run shape is refused, not
    misinterpreted.
    """
    info = method_info(method)
    period = resolve_period(problem, method, exchange_period)
    key = snapshot_key(problem, method, seed, period, page)
    g = problem.ghost
    own_slc = owned_slices(problem.subdomain_extent, g)
    global_arr = np.empty(
        tuple(reversed(problem.global_extent)), dtype=problem.dtype
    )
    meta0: dict = {}
    if info.uses_bricks:
        decomp, asn = _brick_layout(problem, method, page)
        specs = storage_chunks(asn)
        from repro.brick.storage import BrickStorage

        scratch = BrickStorage.allocate(
            asn.total_slots, decomp.brick_elems, decomp.dtype
        )
        try:
            for rank in range(problem.nranks):
                manifest = store.manifest(rank, epoch)
                if manifest["problem_key"] != key:
                    raise CheckpointError(
                        f"rank {rank} epoch {epoch} was written by a"
                        " different run configuration; cannot re-brick"
                    )
                state = store.read_state(rank, manifest, verify=True)
                for spec in specs:
                    scratch.load_slot_bytes(
                        spec.start_slot, spec.nslots, state[spec.name]
                    )
                ext_arr = bricks_to_extended(decomp, scratch, asn)
                coords = _rank_coords(rank, problem.rank_dims)
                global_arr[problem.owned_slices(coords)] = ext_arr[own_slc]
                if rank == 0:
                    meta0 = dict(manifest["meta"])
        finally:
            scratch.close()
    else:
        ext_shape = extended_shape_of(problem)
        for rank in range(problem.nranks):
            manifest = store.manifest(rank, epoch)
            if manifest["problem_key"] != key:
                raise CheckpointError(
                    f"rank {rank} epoch {epoch} was written by a"
                    " different run configuration; cannot re-brick"
                )
            state = store.read_state(rank, manifest, verify=True)
            ext_arr = np.frombuffer(
                state["array"], dtype=problem.dtype
            ).reshape(ext_shape)
            coords = _rank_coords(rank, problem.rank_dims)
            global_arr[problem.owned_slices(coords)] = ext_arr[own_slc]
            if rank == 0:
                meta0 = dict(manifest["meta"])
    return global_arr, meta0


def extended_shape_of(problem: StencilProblem) -> Tuple[int, ...]:
    """Numpy shape of one rank's subdomain-plus-ghost array."""
    return tuple(
        e + 2 * problem.ghost for e in reversed(problem.subdomain_extent)
    )


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
    old_problem: StencilProblem,
    epoch: int,
    dst_store: CheckpointStore,
    new_problem: StencilProblem,
    *,
    method: str,
    seed: int,
    exchange_period=None,
    page: Optional[int] = None,
    carry_meta: Optional[dict] = None,
) -> dict:
    """Re-slice epoch *epoch* from N old ranks onto M new ranks.

    Writes one full-mode snapshot per new rank into *dst_store*, stamped
    with the new decomposition's problem key and a meta doc the resumed
    driver accepts (step, zeroed counters/timings, the new layout's
    adjacency CRC, and the carried-forward ``fired_crashes`` so already-
    fired fault sites do not refire).  Returns a summary dict.
    """
    if not (old_problem.periodic and new_problem.periodic):
        raise ValueError(
            "elastic re-bricking requires a periodic problem: ghost"
            " shells are reconstructed by periodic wrap"
        )
    if tuple(old_problem.global_extent) != tuple(new_problem.global_extent):
        raise ValueError("old and new problems must share the global extent")
    info = method_info(method)
    period = resolve_period(new_problem, method, exchange_period)
    with _TRACER.span("elastic.rebrick", epoch=epoch):
        global_arr, old_meta = restore_global(
            src_store, old_problem, epoch, method, seed,
            exchange_period=exchange_period, page=page,
        )
        carried = dict(carry_meta or {})
        fired = carried.get(
            "fired_crashes", old_meta.get("fired_crashes") or []
        )
        bytes_written = 0
        if info.uses_bricks:
            decomp, asn = _brick_layout(new_problem, method, page)
            key = problem_key(
                new_problem, seed, method, asn.alignment, asn.total_slots,
                period,
            )
            binfo = decomp.brick_info(asn)
            adjacency_crc = zlib.crc32(
                np.ascontiguousarray(binfo.adjacency).tobytes()
            )
            specs = storage_chunks(asn)
            from repro.brick.storage import BrickStorage

            scratch = BrickStorage.allocate(
                asn.total_slots, decomp.brick_elems, decomp.dtype
            )
            try:
                for rank in range(new_problem.nranks):
                    coords = _rank_coords(rank, new_problem.rank_dims)
                    ext_arr = _wrapped_extended(
                        global_arr, new_problem, coords
                    )
                    extended_to_bricks(ext_arr, decomp, scratch, asn)
                    chunks = [
                        (
                            spec.name,
                            scratch.slot_bytes(spec.start_slot, spec.nslots),
                        )
                        for spec in specs
                    ]
                    manifest = dst_store.save(
                        rank, epoch, chunks,
                        meta=_rebrick_meta(
                            epoch, period, adjacency_crc, fired
                        ),
                        mode="full", problem_key=key,
                    )
                    bytes_written += int(manifest["data_bytes"])
            finally:
                scratch.close()
        else:
            key = problem_key(new_problem, seed, method, 1, 1, period)
            for rank in range(new_problem.nranks):
                coords = _rank_coords(rank, new_problem.rank_dims)
                ext_arr = _wrapped_extended(global_arr, new_problem, coords)
                manifest = dst_store.save(
                    rank, epoch,
                    [("array", ext_arr.reshape(-1).view(np.uint8))],
                    meta=_rebrick_meta(epoch, period, 0, fired),
                    mode="full", problem_key=key,
                )
                bytes_written += int(manifest["data_bytes"])
    return {
        "epoch": int(epoch),
        "old_ranks": old_problem.nranks,
        "new_ranks": new_problem.nranks,
        "new_rank_dims": tuple(new_problem.rank_dims),
        "bytes_written": bytes_written,
    }


def _rebrick_meta(
    epoch: int, period: int, adjacency_crc: int, fired_crashes
) -> dict:
    """Meta doc for a re-bricked snapshot.

    Counters and measured timings restart at zero: they described the
    old decomposition's traffic and mean nothing under the new one.
    ``step`` makes the resumed loop continue at *epoch*.
    """
    return {
        "step": int(epoch),
        "counters": {
            "msgs": 0, "wire": 0, "payload": 0, "maps": 0, "demotions": 0
        },
        "measured": {},
        "ladder_level": None,
        "period": int(period),
        "adjacency_crc": int(adjacency_crc),
        "fired_crashes": [list(c) for c in fired_crashes],
    }
