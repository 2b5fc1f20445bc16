"""Conversion between lexicographic arrays and brick storage.

The extended array of a subdomain has shape ``(E_D + 2g, ..., E_1 + 2g)``
in numpy axis order (axis 1 last/fastest) and covers the ghost shell.
Every brick of the grid is one box of that array, and in storage one
run of ``brick_volume`` elements from ``slot * brick_elems + fld *
brick_volume`` on, in the box's own row order (C order, axis 1
fastest).  A :class:`ConversionTable` lists that ``(box, storage
offset)`` pair per brick, and a conversion is one call of the C box
movers over it (:meth:`~repro.stencil.cbackend.Movers.gather_slots`),
bounds-checked under ``REPRO_CC_BOUNDS=1``.

Either converter takes one of two arrays:

* the **extended array** -- every brick of the grid, ghost bricks
  included;
* the rank's **owned block** (shape ``(E_D, ..., E_1)``), which may be a
  strided view such as a rank's block of the global field -- the owned
  bricks only, their ghost and padding slots untouched.  An executed
  run fills and collects its field this way, straight between the
  global arrays and the slots.

These converters are also the test oracle's bridge: reference stencils
run on plain arrays, brick kernels on storage, and the conversion
proves them equal element-for-element.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.obs import TRACER as _TRACER
from repro.stencil.cbackend import MOVER_MAX_NDIM, mover_kernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.brick.decomp import BrickDecomp, SlotAssignment
    from repro.brick.storage import BrickStorage

__all__ = [
    "ConversionTable",
    "conversion_table",
    "extended_shape",
    "extended_to_bricks",
    "bricks_to_extended",
]


class ConversionTable(NamedTuple):
    """Where each brick of a conversion sits in the array and in storage."""

    boxes: np.ndarray  # (nbricks, ndim, 2) int64: per numpy axis (lo, hi)
    offsets: np.ndarray  # (nbricks,) int64: its field's first storage element


def extended_shape(decomp: "BrickDecomp") -> Tuple[int, ...]:
    """Numpy shape of the subdomain-plus-ghost array (axis D first)."""
    return tuple(
        e + 2 * decomp.ghost_elems for e in reversed(decomp.extent)
    )


def conversion_table(
    decomp: "BrickDecomp",
    assignment: "SlotAssignment",
    fld: int = 0,
    owned: bool = True,
) -> ConversionTable:
    """The owned bricks' table, boxes relative to the owned block's
    corner -- or, with *owned* false, every brick's, in extended-array
    coordinates -- for interleaved field *fld*.

    Cached on the decomp instance (a module-level ``id()``-keyed cache
    would hand a *new* decomp the table of a garbage-collected one whose
    id was reused) and read-only: every rank of a run reads one table.
    """
    cache: Dict[Tuple[int, int, bool], ConversionTable] = (
        decomp.__dict__.setdefault("_conversion_cache", {})
    )
    key = (assignment.alignment, fld, owned)
    cached = cache.get(key)
    if cached is not None:
        return cached
    if not 0 <= fld < decomp.nfields:
        raise ValueError(f"field {fld} outside 0..{decomp.nfields - 1}")
    grid_index = assignment.grid_index  # (N_D, ..., N_1), axis 1 last
    if owned:
        w = decomp.width
        grid_index = grid_index[(slice(w, -w),) * decomp.ndim]
    if (grid_index < 0).any():
        raise AssertionError("extended array element fell outside the grid")
    ndim = grid_index.ndim
    bd = np.array(decomp.brick_dim[::-1], dtype=np.int64)  # numpy order
    lo = np.indices(grid_index.shape, dtype=np.int64).reshape(ndim, -1).T * bd
    boxes = np.empty((len(lo), ndim, 2), dtype=np.int64)
    boxes[..., 0] = lo
    boxes[..., 1] = lo + bd
    table = ConversionTable(
        boxes=boxes,
        offsets=(
            grid_index.reshape(-1) * decomp.brick_elems
            + fld * decomp.brick_volume
        ),
    )
    for arr in table:
        arr.flags.writeable = False  # shared by every caller of this decomp
    cache[key] = table
    return table


def _table_for(
    arr: np.ndarray, decomp: "BrickDecomp", storage: "BrickStorage",
    assignment: "SlotAssignment", fld: int,
) -> ConversionTable:
    """The table *arr*'s shape selects, after refusing what the movers
    cannot walk: anything but float64 storage and arrays, an array whose
    innermost stride is not one element, or negative strides."""
    shape = extended_shape(decomp)
    owned = tuple(reversed(decomp.extent))
    if arr.shape not in (shape, owned):
        raise ValueError(
            f"expected extended array of shape {shape} or owned block of"
            f" shape {owned}, got {arr.shape}"
        )
    if arr.dtype != storage.dtype:
        raise ValueError(f"array dtype {arr.dtype} != storage dtype {storage.dtype}")
    if storage.dtype != np.float64 or not 1 <= arr.ndim <= MOVER_MAX_NDIM:
        raise ValueError(
            f"the box movers convert float64 arrays of 1 to {MOVER_MAX_NDIM}"
            f" axes, got {storage.dtype} with {arr.ndim} axes"
        )
    if arr.strides[-1] != arr.itemsize or min(arr.strides) < 0:
        raise ValueError(
            f"array strides {arr.strides}: the movers walk unit-stride rows"
        )
    return conversion_table(decomp, assignment, fld, owned=arr.shape == owned)


def extended_to_bricks(
    arr: np.ndarray,
    decomp: "BrickDecomp",
    storage: "BrickStorage",
    assignment: "SlotAssignment",
    fld: int = 0,
) -> None:
    """Scatter an extended array -- or an owned block -- into brick
    storage (one mover call)."""
    with _TRACER.span("convert.extended_to_bricks"):
        table = _table_for(arr, decomp, storage, assignment, fld)
        mover_kernel().gather_slots(
            arr, table.boxes, storage.data.reshape(-1), table.offsets
        )()


def bricks_to_extended(
    decomp: "BrickDecomp",
    storage: "BrickStorage",
    assignment: "SlotAssignment",
    fld: int = 0,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gather brick storage back into an extended array.

    Pass *out* to write a caller-owned destination instead of a fresh
    array: an extended array, or an owned block (a strided view too,
    such as a rank's block of the global result), which receives the
    owned bricks only.
    """
    with _TRACER.span("convert.bricks_to_extended"):
        if out is None:
            out = np.empty(extended_shape(decomp), dtype=storage.dtype)
        elif not out.flags.writeable:
            raise ValueError("cannot gather into a read-only array")
        table = _table_for(out, decomp, storage, assignment, fld)
        mover_kernel().scatter_slots(
            out, table.boxes, storage.data.reshape(-1), table.offsets
        )()
        return out
