"""Layout-agnostic stencil kernels over brick storage.

The production compute path of the brick library: for a batch of bricks,
gather each brick plus a ``radius``-deep halo (sourced from neighboring
bricks through the adjacency -- wherever they physically live), apply the
stencil vectorized over the whole batch, and scatter results.  Because
only adjacency entries are chased, the kernel is completely independent of
the physical brick order; Figure 10's observation (layout does not change
compute time) holds by construction here.

Bricks are processed in fixed-size chunks to bound the halo buffer.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.brick.info import BrickInfo, all_direction_vectors, direction_index
from repro.brick.storage import BrickStorage
from repro.stencil.spec import StencilSpec, group_terms

__all__ = ["gather_halo_batch", "apply_brick_stencil"]


def _margin_slices(d: int, bd: int, r: int) -> Tuple[slice, slice]:
    """(target-in-batch, source-in-neighbor) slices along one axis."""
    if d == -1:
        return slice(0, r), slice(bd - r, bd)
    if d == 0:
        return slice(r, r + bd), slice(0, bd)
    if d == 1:
        return slice(r + bd, bd + 2 * r), slice(0, r)
    raise ValueError(f"direction must be -1/0/+1, got {d}")


def gather_halo_batch(
    storage: BrickStorage,
    info: BrickInfo,
    slots: np.ndarray,
    radius: int,
    field_offset: int = 0,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Bricks *slots* with a *radius*-deep halo, shape
    ``(len(slots), bd_D + 2r, ..., bd_1 + 2r)``.

    Halo cells whose source brick does not exist (adjacency -1) come out
    zero; callers must only compute on bricks whose required neighbors
    exist (the interior + surface set always qualifies, since their
    neighbors are at worst ghost bricks).

    The ``3^D`` direction boxes exactly partition the halo block, so a
    reused *out* buffer is never blanket-cleared: every cell with a
    source brick is overwritten, and only margin cells whose source is
    actually absent are zeroed.
    """
    bd = info.brick_dim  # axis order 1..D
    ndim = info.ndim
    if radius < 0 or radius > min(bd):
        raise ValueError(
            f"radius {radius} must be within one brick (dims {bd})"
        )
    np_bd = tuple(reversed(bd))
    volume = int(np.prod(bd))
    bricks = storage.data[:, field_offset : field_offset + volume].reshape(
        (storage.nslots,) + np_bd
    )
    shape = (len(slots),) + tuple(b + 2 * radius for b in np_bd)
    if out is None:
        out = np.empty(shape, dtype=storage.dtype)
    elif out.shape != shape:
        raise ValueError(f"halo buffer shape {out.shape}, expected {shape}")
    for vec in all_direction_vectors(ndim):
        if radius == 0 and any(vec):
            continue
        src = info.adjacency[slots, direction_index(vec)]
        valid = src >= 0
        tgt_slices, src_slices = [], []
        for axis in range(ndim - 1, -1, -1):  # numpy order: axis D first
            t, s = _margin_slices(vec[axis], bd[axis], radius)
            tgt_slices.append(t)
            src_slices.append(s)
        if valid.all():
            out[(slice(None), *tgt_slices)] = bricks[(src, *src_slices)]
        else:
            out[(~valid, *tgt_slices)] = 0
            if valid.any():
                out[(valid, *tgt_slices)] = bricks[(src[valid], *src_slices)]
    return out


def apply_brick_stencil(
    spec: StencilSpec,
    src: BrickStorage,
    dst: BrickStorage,
    info: BrickInfo,
    slots: np.ndarray,
    field_offset: int = 0,
    chunk: int = 512,
) -> None:
    """Apply *spec* to every brick in *slots*, reading *src*, writing *dst*.

    Both storages must share the brick geometry of *info*.  Processing is
    chunked so the halo buffer stays small regardless of domain size.
    Each cell is summed in the canonical order of
    :attr:`StencilSpec.groups` (x pairs first:
    :func:`~repro.stencil.spec.group_terms`).
    """
    bd = info.brick_dim
    ndim = info.ndim
    r = spec.radius
    if spec.ndim != ndim:
        raise ValueError(f"stencil is {spec.ndim}-D, bricks are {ndim}-D")
    if r > min(bd):
        raise ValueError(
            f"stencil radius {r} exceeds brick dimension {min(bd)};"
            " enlarge the bricks"
        )
    np_bd = tuple(reversed(bd))
    volume = int(np.prod(bd))
    dst_bricks = dst.data[:, field_offset : field_offset + volume].reshape(
        (dst.nslots,) + np_bd
    )
    slots = np.asarray(slots)
    # One halo buffer sized for the first (largest) chunk; the short tail
    # chunk computes in a leading view of it instead of reallocating.
    halo: Optional[np.ndarray] = None
    for lo in range(0, len(slots), chunk):
        batch_slots = slots[lo : lo + chunk]
        if halo is None:
            halo_shape = (len(batch_slots),) + tuple(
                b + 2 * r for b in reversed(bd)
            )
            halo = np.empty(halo_shape, dtype=src.dtype)
        batch_halo = gather_halo_batch(
            src, info, batch_slots, r, field_offset,
            halo[: len(batch_slots)],
        )
        def window(off):
            return batch_halo[(slice(None),) + tuple(
                slice(r + o, r + o + b) for o, b in zip(reversed(off), np_bd)
            )]

        acc: Optional[np.ndarray] = None
        for coeff, offsets in spec.groups:
            total: Optional[np.ndarray] = None
            for term in group_terms(offsets):
                summand = window(term[0])
                for off in term[1:]:
                    summand = summand + window(off)
                total = summand if total is None else total + summand
            term = coeff * total
            acc = term if acc is None else acc + term
        dst_bricks[batch_slots] = acc
