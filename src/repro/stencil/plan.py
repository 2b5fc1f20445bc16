"""Compiled execution plans for the executed timestep loop.

The paper's thesis is that on-node data movement dominates strong-scaled
stencil communication; this module applies the same discipline to the
reproduction's own hottest path.  The generic kernels re-derive
slices, allocate halo/accumulator temporaries, and issue ``3^D`` separate
fancy-index gathers on every chunk of every timestep.  A *plan* hoists all
of that out of the loop, once per ``(stencil spec, brick geometry, slot
set, field offset)``, and steps on one generated C kernel
(:mod:`repro.stencil.cbackend`):

* **bricks** -- *stage, then sweep*, per brick.  The plan holds the slot
  set's ``(n, 3^D)`` adjacency rows (``info.adjacency[slots]``, the array
  ``repro check`` validates) and a plan-owned halo tile.  Each direction
  some tap reaches (:func:`repro.stencil.cbackend.brick_stage_boxes`)
  has its sub-box copied from the neighbour the row names into the
  tile, zeros where the entry is ``-1``; the taps then sweep the tile.
  No per-cell index table exists.
* **extended arrays** -- the taps sweep one box in place.

A plan is float64, like the paper's runs.  The generic kernels in
:mod:`repro.stencil.kernels` and :mod:`repro.stencil.brick_kernels`
remain the bit-identity reference; the test suite asserts planned
results equal them exactly.

Plans own mutable scratch buffers, so every ``compile_*`` call returns a
new plan and nothing caches one: the executed driver compiles one per
rank per cycle position, over the one :class:`BrickInfo` the run's
geometry shares between the ranks.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple, Union

import numpy as np

from repro.brick.info import BrickInfo
from repro.brick.storage import BrickStorage
from repro.obs import TRACER as _TRACER
from repro.stencil.cbackend import array_step_kernel, batch_step_kernel, c_tier
from repro.stencil.spec import StencilSpec

__all__ = [
    "ArrayStencilPlan",
    "BrickStencilPlan",
    "compile_array_plan",
    "compile_brick_plan",
]

_FLOAT64 = np.dtype(np.float64)  # what every plan steps


# ----------------------------------------------------------------------
# Brick-storage plans
# ----------------------------------------------------------------------

class BrickStencilPlan:
    """Compiled executor of one stencil over a fixed brick slot set.

    The plan holds the slot set's ``(n, 3^D)`` adjacency rows and a
    one-brick halo-tile scratch, and addresses neighbours through those
    rows alone: a step is one call of the stage-then-sweep kernel
    (:func:`repro.stencil.cbackend.batch_step_source`).
    """

    def __init__(
        self,
        spec: StencilSpec,
        info: BrickInfo,
        slots: np.ndarray,
        field_offset: int = 0,
    ) -> None:
        if spec.ndim != info.ndim:
            raise ValueError(
                f"stencil is {spec.ndim}-D, bricks are {info.ndim}-D"
            )
        r = spec.radius
        bd = info.brick_dim
        if r > min(bd):
            raise ValueError(
                f"stencil radius {r} exceeds brick dimension {min(bd)};"
                " enlarge the bricks"
            )
        volume = int(math.prod(bd))
        brick_elems = volume * info.nfields
        if not 0 <= field_offset <= brick_elems - volume:
            raise ValueError(
                f"field offset {field_offset} leaves no room for a"
                f" {volume}-element field in {brick_elems}-element bricks"
            )
        self.spec = spec
        self.info = info
        self.field_offset = int(field_offset)
        self.brick_elems = brick_elems
        np_bd = tuple(reversed(bd))
        slots = np.asarray(slots, dtype=np.int64)
        self.slots = slots
        self._adjacency = np.ascontiguousarray(
            info.adjacency[slots], dtype=np.int64
        )
        self._ckernel = batch_step_kernel(
            spec.taps, np_bd, r, self.field_offset, brick_elems
        )
        # Scratch is plan-owned, like every mutable step buffer: the tile's
        # size follows the brick shape, so it is no C stack array.
        self._tile = np.empty(math.prod(b + 2 * r for b in np_bd))

    @property
    def kernel_backend(self) -> str:
        """``"cffi"``, with ``" (portable flags: <why>)"`` appended when
        the compiler refused the host flags
        (:func:`~repro.stencil.cbackend.c_tier`)."""
        return c_tier()

    def _check_storage(self, storage: BrickStorage, role: str) -> None:
        if storage.brick_elems != self.brick_elems:
            raise ValueError(
                f"{role} storage has {storage.brick_elems}-element bricks,"
                f" plan expects {self.brick_elems}"
            )
        if storage.dtype != _FLOAT64:
            raise ValueError(f"{role} storage dtype {storage.dtype} != plan float64")
        if storage.nslots < self.info.nslots:
            raise ValueError(
                f"{role} storage has {storage.nslots} slots, adjacency"
                f" spans {self.info.nslots}"
            )

    def execute(self, src: BrickStorage, dst: BrickStorage) -> None:
        """Apply the stencil to every planned slot, reading *src*,
        writing *dst* (which must be distinct storages)."""
        if src is dst:
            raise ValueError("plans require distinct src and dst storages")
        self._check_storage(src, "src")
        self._check_storage(dst, "dst")
        self._ckernel(src.data, dst.data, self._adjacency, self.slots, self._tile)


def compile_brick_plan(
    spec: StencilSpec,
    info: BrickInfo,
    slots: np.ndarray,
    field_offset: int = 0,
) -> BrickStencilPlan:
    """Build a brick plan over *info* (the compiled kernel inside is
    cached globally; the scratch-owning plan object is per caller).

    Every call returns a new plan: the halo tile is written while a step
    runs -- with the GIL released -- so a plan belongs to the rank that
    compiled it, while *info* may be one table shared by all of them.
    """
    with _TRACER.span("plan.compile", nslots=len(slots)):
        return BrickStencilPlan(spec, info, slots, field_offset)


# ----------------------------------------------------------------------
# Extended-array plans
# ----------------------------------------------------------------------

class ArrayStencilPlan:
    """Compiled executor of one stencil over one box of an extended array.

    The box (per-numpy-axis ``(lo, hi)`` ranges in extended-array
    coordinates) is the region the pack/mpi_types/shift executed paths
    sweep: the owned region grown by *margin* -- on every side, or per
    axis by ``(below, above)`` pairs in domain order (an open face grows
    by 0).  One compiled function per extended shape serves it, handed
    the box per call; results are bit-identical to
    :func:`repro.stencil.kernels.apply_array_stencil` on those cells.
    """

    def __init__(
        self,
        spec: StencilSpec,
        extent: Sequence[int],
        ghost: int,
        margin: Union[int, Sequence[Tuple[int, int]]] = 0,
    ) -> None:
        extent = tuple(int(e) for e in extent)
        if spec.ndim != len(extent):
            raise ValueError(
                f"stencil is {spec.ndim}-D but the domain is {len(extent)}-D"
            )
        # Per axis (domain order), how far below / above the owned
        # region the box reaches.
        sides = (
            [(int(margin),) * 2] * len(extent)
            if np.ndim(margin) == 0
            else [(int(lo), int(hi)) for lo, hi in margin]
        )
        if min(map(min, sides)) < 0:
            raise ValueError("margin cannot be negative")
        if spec.radius + max(map(max, sides)) > ghost:
            raise ValueError(
                f"stencil radius {spec.radius} plus margin {margin} exceeds"
                f" ghost width {ghost}"
            )
        self.spec = spec
        self.extent = extent
        self.ghost = int(ghost)
        self._expected = tuple(e + 2 * ghost for e in reversed(extent))
        self.box = tuple(
            (ghost - lo, ghost + e + hi)
            for e, (lo, hi) in zip(reversed(extent), reversed(sides))
        )
        self._box_table = np.array([self.box], dtype=np.int64)
        self._ckernel = array_step_kernel(spec.taps, self._expected)

    @property
    def kernel_backend(self) -> str:
        """``"cffi"``, with ``" (portable flags: <why>)"`` appended when
        the compiler refused the host flags
        (:func:`~repro.stencil.cbackend.c_tier`)."""
        return c_tier()

    def execute(self, arr: np.ndarray, out: np.ndarray) -> None:
        """``out[box] = stencil(arr)``; *arr* and *out* must be distinct
        C-contiguous float64 extended arrays (the kernel walks raw
        row-major memory, so anything else is refused)."""
        if arr is out:
            raise ValueError("plans require distinct arr and out arrays")
        if arr.shape != self._expected or out.shape != self._expected:
            raise ValueError(
                f"expected extended shape {self._expected},"
                f" got {arr.shape} / {out.shape}"
            )
        if not (_c_addressable(arr) and _c_addressable(out)):
            raise ValueError(
                "plans step C-contiguous float64 extended arrays, got"
                f" {arr.dtype} / {out.dtype} with strides"
                f" {arr.strides} / {out.strides}"
            )
        self._ckernel(arr, out, self._box_table)


def _c_addressable(a: np.ndarray) -> bool:
    return a.dtype == _FLOAT64 and a.flags.c_contiguous


def compile_array_plan(
    spec: StencilSpec,
    extent: Sequence[int],
    ghost: int,
    margin: Union[int, Sequence[Tuple[int, int]]] = 0,
) -> ArrayStencilPlan:
    """Build an array plan (the compiled kernel inside is cached globally;
    the scratch-owning plan object is per caller)."""
    return ArrayStencilPlan(spec, extent, ghost, margin)
