"""Compiled execution plans for the executed timestep loop.

The paper's thesis is that on-node data movement dominates strong-scaled
stencil communication; this module applies the same discipline to the
reproduction's own hottest Python path.  The generic kernels re-derive
slices, allocate halo/accumulator temporaries, and issue ``3^D`` separate
fancy-index gathers on every chunk of every timestep.  A *plan* hoists all
of that out of the loop, once per ``(stencil spec, brick geometry, slot
set, field offset)``.  It steps on one of two tiers, which address
memory the same way and differ only in who runs the loops:

* **bricks** -- *stage, then sweep*.  The plan holds the slot set's
  ``(n, 3^D)`` adjacency rows (``info.adjacency[slots]``, the array
  ``repro check`` validates) and a plan-owned halo tile.  Each direction
  some tap reaches (:func:`repro.stencil.cbackend.brick_stage_boxes`)
  has its sub-box copied from the neighbour the row names into the
  tile, zeros where the entry is ``-1``; the taps then sweep the tile.
  No per-cell index table exists on either tier.
* **extended arrays** -- the taps sweep one box in place.

The **C tier** (:mod:`repro.stencil.cbackend`) does both per brick /
per box in one generated kernel call.  The **NumPy tier** (the fallback
``auto`` takes without a compiler, and what non-contiguous or
non-float64 arrays step on) stages a chunk of bricks with one
fancy-index copy per reached direction and runs the taps as a plain
loop over precomputed ``(coeff, member slices)`` groups: each group's
windows summed with in-place ``np.add``, then one
``np.multiply(..., out=)`` and one ``np.add`` into the accumulator, in
persistent scratch -- the canonical order of
:attr:`repro.stencil.spec.StencilSpec.groups`, zero temporaries per
tap.

The generic kernels in :mod:`repro.stencil.kernels` and
:mod:`repro.stencil.brick_kernels` remain the bit-identity reference; the
test suite asserts planned results equal them exactly on both tiers.

Plans own mutable scratch buffers, so every ``compile_*`` call returns a
new plan and nothing caches one: the executed driver compiles one per
rank per cycle position, over the one :class:`BrickInfo` the run's
geometry shares between the ranks.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.brick.info import BrickInfo
from repro.brick.storage import BrickStorage
from repro.obs import TRACER as _TRACER
from repro.stencil.cbackend import (
    array_step_kernel,
    backend_choice,
    batch_step_kernel,
    brick_stage_boxes,
    c_tier,
)
from repro.stencil.spec import StencilSpec

__all__ = [
    "ArrayStencilPlan",
    "BrickStencilPlan",
    "compile_array_plan",
    "compile_brick_plan",
]


# ----------------------------------------------------------------------
# The NumPy tier's tap loop, shared by both plan kinds
# ----------------------------------------------------------------------

def _tap_windows(
    spec: StencilSpec, lo: Sequence[int], shape: Sequence[int], lead: Tuple = ()
) -> List[Tuple[float, List[Tuple]]]:
    """``(coeff, member slices)`` per tap group (:attr:`StencilSpec.groups`):
    each the *shape*-sized window whose corner sits at *lo* + the tap's
    offset (numpy axis order), behind *lead*."""

    def window(off):
        return lead + tuple(
            slice(at + o, at + o + n) for at, o, n in zip(lo, reversed(off), shape)
        )

    return [
        (coeff, [window(off) for off in offsets]) for coeff, offsets in spec.groups
    ]


def _group_term(coeff: float, windows, src: np.ndarray, out: np.ndarray) -> None:
    """``out = coeff * (src[w0] + src[w1] + ...)``, summed left to right."""
    if len(windows) == 1:
        np.multiply(coeff, src[windows[0]], out=out)
        return
    np.add(src[windows[0]], src[windows[1]], out=out)
    for window in windows[2:]:
        np.add(out, src[window], out=out)
    np.multiply(coeff, out, out=out)


def _run_taps(groups, src: np.ndarray, acc: np.ndarray, tmp: np.ndarray) -> None:
    """``acc = c0*s0``, then ``acc = acc + ck*sk`` per later group: the
    canonical order of the generic loops, every intermediate in a
    caller-owned buffer."""
    _group_term(*groups[0], src, acc)
    for coeff, windows in groups[1:]:
        _group_term(coeff, windows, src, tmp)
        np.add(acc, tmp, out=acc)


# ----------------------------------------------------------------------
# Brick-storage plans
# ----------------------------------------------------------------------

def _box_slices(
    offset: int, shape: Sequence[int], extent: Sequence[int]
) -> Tuple[slice, ...]:
    """The *extent*-sized box at flat row-major *offset* of *shape*."""
    corner = np.unravel_index(offset, shape)
    return tuple(slice(int(c), int(c) + n) for c, n in zip(corner, extent))


class BrickStencilPlan:
    """Compiled executor of one stencil over a fixed brick slot set.

    The plan holds the slot set's ``(n, 3^D)`` adjacency rows and a
    halo-tile scratch, and addresses neighbours through those rows
    alone.  On the C tier a step is one call of the stage-then-sweep
    kernel (:func:`repro.stencil.cbackend.batch_step_source`) over a
    one-brick tile.  On the NumPy tier the tile spans a chunk of bricks:
    a step stages it with one fancy-index copy per reached direction,
    runs the tap loop into a persistent accumulator and scatters that
    into the destination bricks.
    """

    def __init__(
        self,
        spec: StencilSpec,
        info: BrickInfo,
        slots: np.ndarray,
        field_offset: int = 0,
        dtype=np.float64,
        chunk: int = 512,
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
        if chunk <= 0:
            raise ValueError("chunk must be positive")
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
        self.dtype = np.dtype(dtype)
        self.brick_elems = brick_elems
        self.volume = volume
        self._np_bd = np_bd = tuple(reversed(bd))
        slots = np.asarray(slots, dtype=np.int64)
        self.slots = slots
        self._adjacency = np.ascontiguousarray(
            info.adjacency[slots], dtype=np.int64
        )
        tile_np = tuple(b + 2 * r for b in np_bd)
        # The C kernel runs the whole stage/taps/store sequence per brick
        # when available (and allowed by REPRO_KERNEL_BACKEND); otherwise
        # the NumPy path below runs it per chunk.  Bit-identical.
        self._ckernel = batch_step_kernel(
            spec.taps, np_bd, r, self.field_offset, brick_elems, self.dtype
        )
        # Scratch is plan-owned, like every mutable step buffer: the tile's
        # size follows the brick shape, so it is no C stack array.
        if self._ckernel is not None:
            self._tile = np.empty(math.prod(tile_np), dtype=self.dtype)
            return
        self._chunk = chunk
        nmax = min(chunk, len(slots))
        self._tile = np.empty((nmax,) + tile_np, dtype=self.dtype)
        self._acc = np.empty((nmax,) + np_bd, dtype=self.dtype)
        self._tmp = np.empty_like(self._acc)
        # Per staged direction: adjacency column, the sub-box in the tile
        # and in the neighbour brick, and whether any planned brick lacks
        # that neighbour (its sub-box is then re-zeroed per step).
        absent = (self._adjacency < 0).any(axis=0)
        boxes = brick_stage_boxes(spec.taps, np_bd, r)
        self._stage = [
            (
                column,
                (slice(None),) + _box_slices(tile_off, tile_np, extent),
                _box_slices(brick_off, np_bd, extent),
                bool(absent[column]),
            )
            for column, tile_off, brick_off, extent in boxes
        ]
        centre = (r,) * len(np_bd)
        self._taps = _tap_windows(spec, centre, np_bd, (slice(None),))

    @property
    def kernel_backend(self) -> str:
        """The tier this plan steps on: ``"numpy"``, or ``"cffi"`` --
        with ``" (portable flags: <why>)"`` appended when the compiler
        refused the host flags (:func:`~repro.stencil.cbackend.c_tier`)."""
        return "numpy" if self._ckernel is None else c_tier()

    def _check_storage(self, storage: BrickStorage, role: str) -> None:
        if storage.brick_elems != self.brick_elems:
            raise ValueError(
                f"{role} storage has {storage.brick_elems}-element bricks,"
                f" plan expects {self.brick_elems}"
            )
        if storage.dtype != self.dtype:
            raise ValueError(
                f"{role} storage dtype {storage.dtype} != plan {self.dtype}"
            )
        if storage.nslots < self.info.nslots:
            raise ValueError(
                f"{role} storage has {storage.nslots} slots, adjacency"
                f" spans {self.info.nslots}"
            )

    def _field(self, storage: BrickStorage) -> np.ndarray:
        """The planned field of every brick, ``(nslots, bd_D, ..., bd_1)``."""
        fo = self.field_offset
        return storage.data[:, fo : fo + self.volume].reshape(
            (storage.nslots,) + self._np_bd
        )

    def execute(self, src: BrickStorage, dst: BrickStorage) -> None:
        """Apply the stencil to every planned slot, reading *src*,
        writing *dst* (which must be distinct storages)."""
        if src is dst:
            raise ValueError("plans require distinct src and dst storages")
        self._check_storage(src, "src")
        self._check_storage(dst, "dst")
        ck = self._ckernel
        if ck is not None:
            ck(src.data, dst.data, self._adjacency, self.slots, self._tile)
            return
        src_bricks, dst_bricks = self._field(src), self._field(dst)
        for lo in range(0, len(self.slots), self._chunk):
            rows = self._adjacency[lo : lo + self._chunk]
            n = len(rows)
            tile, acc = self._tile[:n], self._acc[:n]
            for column, to, frm, some_absent in self._stage:
                nb = rows[:, column]
                # An absent neighbour (-1) reads the last slot, then zeros.
                tile[to] = src_bricks[(nb,) + frm]
                if some_absent:
                    tile[(nb < 0,) + to[1:]] = 0.0
            _run_taps(self._taps, tile, acc, self._tmp[:n])
            dst_bricks[self.slots[lo : lo + self._chunk]] = acc


def compile_brick_plan(
    spec: StencilSpec,
    info: BrickInfo,
    slots: np.ndarray,
    field_offset: int = 0,
    dtype=np.float64,
    chunk: int = 512,
) -> BrickStencilPlan:
    """Build a brick plan over *info* (the compiled kernel inside is
    cached globally; the scratch-owning plan object is per caller).

    Every call returns a new plan: the halo tile, and the tap buffers
    of the NumPy tier, are written while a step runs -- the C kernel
    with the GIL released -- so a plan belongs to the rank that
    compiled it, while *info* may be one table shared by all of them.
    """
    with _TRACER.span("plan.compile", nslots=len(slots)):
        return BrickStencilPlan(spec, info, slots, field_offset, dtype, chunk)


# ----------------------------------------------------------------------
# Extended-array plans
# ----------------------------------------------------------------------

class ArrayStencilPlan:
    """Compiled executor of one stencil over one box of an extended array.

    The box (per-numpy-axis ``(lo, hi)`` ranges in extended-array
    coordinates) is the region the pack/mpi_types/shift executed paths
    sweep: the owned region grown by *margin* -- on every side, or per
    axis by ``(below, above)`` pairs in domain order (an open face grows
    by 0).  Like a brick plan it steps on the C kernel tier when
    ``REPRO_KERNEL_BACKEND`` allows -- one compiled function per extended
    shape, handed the box per call --
    and otherwise runs the NumPy tap loop, accumulating straight into the
    box of the output with a persistent box-shaped tap scratch.  Results
    are bit-identical to :func:`repro.stencil.kernels.apply_array_stencil`
    on those cells either way.
    """

    def __init__(
        self,
        spec: StencilSpec,
        extent: Sequence[int],
        ghost: int,
        margin: Union[int, Sequence[Tuple[int, int]]] = 0,
        dtype=np.float64,
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
        self.dtype = np.dtype(dtype)
        self._expected = tuple(e + 2 * ghost for e in reversed(extent))
        self.box = tuple(
            (ghost - lo, ghost + e + hi)
            for e, (lo, hi) in zip(reversed(extent), reversed(sides))
        )
        self._box_table = np.array([self.box], dtype=np.int64)
        self._ckernel = array_step_kernel(
            spec.taps, self._expected, self.dtype
        )
        self._step = None if self._ckernel is not None else self._numpy_step()

    @property
    def kernel_backend(self) -> str:
        """The tier this plan steps on: ``"numpy"``, or ``"cffi"`` --
        with ``" (portable flags: <why>)"`` appended when the compiler
        refused the host flags (:func:`~repro.stencil.cbackend.c_tier`)."""
        return "numpy" if self._ckernel is None else c_tier()

    def _numpy_step(self) -> tuple:
        """The box's slices, its tap windows and its tap scratch."""
        lo = [lo for lo, _ in self.box]
        shape = tuple(hi - lo for lo, hi in self.box)
        return (
            tuple(slice(lo, hi) for lo, hi in self.box),
            _tap_windows(self.spec, lo, shape),
            np.empty(shape, dtype=self.dtype),
        )

    def execute(self, arr: np.ndarray, out: np.ndarray) -> None:
        """``out[box] = stencil(arr)``; *arr* and *out* must be distinct
        extended arrays."""
        if arr is out:
            raise ValueError("plans require distinct arr and out arrays")
        if arr.shape != self._expected or out.shape != self._expected:
            raise ValueError(
                f"expected extended shape {self._expected},"
                f" got {arr.shape} / {out.shape}"
            )
        ck = self._ckernel
        if ck is not None:
            if _c_addressable(arr) and _c_addressable(out):
                ck(arr, out, self._box_table)
                return
            # The C kernel walks raw float64 row-major memory; anything
            # else steps on the NumPy tier rather than reading garbage.
            if backend_choice() == "cffi":
                raise RuntimeError(
                    "REPRO_KERNEL_BACKEND=cffi supports C-contiguous"
                    " float64 extended arrays only"
                )
            if self._step is None:
                self._step = self._numpy_step()
        region, taps, tmp = self._step
        _run_taps(taps, arr, out[region], tmp)


def _c_addressable(a: np.ndarray) -> bool:
    return a.dtype == np.float64 and a.flags.c_contiguous


def compile_array_plan(
    spec: StencilSpec,
    extent: Sequence[int],
    ghost: int,
    margin: Union[int, Sequence[Tuple[int, int]]] = 0,
    dtype=np.float64,
) -> ArrayStencilPlan:
    """Build an array plan (the compiled kernel inside is cached globally;
    the scratch-owning plan object is per caller)."""
    return ArrayStencilPlan(spec, extent, ghost, margin, dtype)

