"""Conversion between lexicographic arrays and brick storage.

The extended array of a subdomain has shape ``(E_D + 2g, ..., E_1 + 2g)``
in numpy axis order (axis 1 last/fastest) and covers the ghost shell.  A
single precomputed permutation maps every element of that array to its
``(slot, within-brick offset)`` flat position in storage, so conversion is
one vectorized fancy-indexing gather/scatter.

These converters are the test oracle's bridge: reference stencils run on
plain arrays, brick kernels on storage, and the permutation proves them
equal element-for-element.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.obs import TRACER as _TRACER

if TYPE_CHECKING:  # pragma: no cover
    from repro.brick.decomp import BrickDecomp, SlotAssignment
    from repro.brick.storage import BrickStorage

__all__ = [
    "extended_shape",
    "element_permutation",
    "extended_to_bricks",
    "bricks_to_extended",
]

def extended_shape(decomp: "BrickDecomp") -> Tuple[int, ...]:
    """Numpy shape of the subdomain-plus-ghost array (axis D first)."""
    return tuple(
        e + 2 * decomp.ghost_elems for e in reversed(decomp.extent)
    )


def element_permutation(
    decomp: "BrickDecomp", assignment: "SlotAssignment", fld: int = 0
) -> np.ndarray:
    """Flat storage index of every element of the extended array.

    Returned array has :func:`extended_shape`; entry ``[cD, ..., c1]`` is
    the index into ``storage.data.reshape(-1)`` holding that element (for
    interleaved field *fld*).
    """
    # Cache on the decomp instance itself: a module-level id()-keyed cache
    # would hand a *new* decomp the permutation of a garbage-collected one
    # whose id was reused.
    cache: Dict[Tuple[int, int], np.ndarray] = decomp.__dict__.setdefault(
        "_element_perm_cache", {}
    )
    key = (assignment.alignment, fld)
    cached = cache.get(key)
    if cached is not None:
        return cached
    if not 0 <= fld < decomp.nfields:
        raise ValueError(f"field {fld} outside 0..{decomp.nfields - 1}")

    ndim = decomp.ndim
    grid_index = assignment.grid_index  # (N_D, ..., N_1), axis 1 last
    if (grid_index < 0).any():
        raise AssertionError("extended array element fell outside the grid")
    # Element (c_D, ..., c_1) sits in brick c // b at within-brick offset
    # c % b: split every axis into (brick, within) and broadcast the
    # brick's base over the within-brick offsets (axis 1 fastest).
    offset = np.zeros((1,) * (2 * ndim), dtype=np.int64)
    stride = 1
    for axis in range(ndim):
        shape = [1] * (2 * ndim)
        shape[2 * (ndim - 1 - axis) + 1] = decomp.brick_dim[axis]
        offset = offset + np.arange(decomp.brick_dim[axis]).reshape(shape) * stride
        stride *= decomp.brick_dim[axis]
    base = grid_index * decomp.brick_elems + fld * decomp.brick_volume
    split = [d for n in grid_index.shape for d in (n, 1)]
    perm = (base.reshape(split) + offset).reshape(extended_shape(decomp))
    perm.flags.writeable = False  # shared by every caller of this decomp
    cache[key] = perm
    return perm


def extended_to_bricks(
    arr: np.ndarray,
    decomp: "BrickDecomp",
    storage: "BrickStorage",
    assignment: "SlotAssignment",
    fld: int = 0,
) -> None:
    """Scatter an extended array into brick storage (one fancy index)."""
    shape = extended_shape(decomp)
    if arr.shape != shape:
        raise ValueError(f"expected extended array of shape {shape}, got {arr.shape}")
    with _TRACER.span("convert.extended_to_bricks"):
        perm = element_permutation(decomp, assignment, fld)
        storage.data.reshape(-1)[perm.reshape(-1)] = arr.reshape(-1)


def bricks_to_extended(
    decomp: "BrickDecomp",
    storage: "BrickStorage",
    assignment: "SlotAssignment",
    fld: int = 0,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gather brick storage back into an extended array.

    Pass *out* to reuse a caller-owned destination across repeated
    conversions instead of allocating a fresh array; the gather then
    runs as one ``np.take`` straight into it.
    """
    with _TRACER.span("convert.bricks_to_extended"):
        perm = element_permutation(decomp, assignment, fld)
        if out is None:
            return storage.data.reshape(-1)[perm]
        if out.shape != perm.shape:
            raise ValueError(
                f"expected extended array of shape {perm.shape}, got {out.shape}"
            )
        if out.dtype != storage.dtype:
            raise ValueError(
                f"scratch dtype {out.dtype} != storage dtype {storage.dtype}"
            )
        np.take(storage.data.reshape(-1), perm, out=out)
        return out
