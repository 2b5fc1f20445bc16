"""Compiled execution plans for the executed timestep loop.

The paper's thesis is that on-node data movement dominates strong-scaled
stencil communication; this module applies the same discipline to the
reproduction's own hottest path.  The generic kernels re-derive
slices, allocate halo/accumulator temporaries, and issue ``3^D`` separate
fancy-index gathers on every chunk of every timestep.  A *plan* hoists all
of that out of the loop, once per ``(stencil spec, brick geometry, slot
set, field offset)``, and steps on one generated C kernel
(:mod:`repro.stencil.cbackend`):

* **bricks** -- *stage, pair, sweep*, per brick.  The plan holds the
  slot set's ``(n, 3^D)`` adjacency rows (``info.adjacency[slots]``, the
  array ``repro check`` validates) and a plan-owned scratch: the halo
  tile, and the pair pass's copies after it
  (:func:`repro.stencil.cbackend.brick_scratch`).  Each direction some
  tap reaches (:func:`repro.stencil.cbackend.brick_stage_boxes`) has its
  sub-box copied from the neighbour the row names into the tile, zeros
  where the entry is ``-1``; where the stencil's x pairs repeat across
  the other axes each pair's sum is written once per tile row; the taps
  then sweep the tile and the sums.  No per-cell index table exists.
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
from typing import Callable, Dict, Sequence, Tuple, Union

import numpy as np

from repro.brick.info import BrickInfo
from repro.brick.storage import BrickStorage
from repro.obs import TRACER as _TRACER
from repro.stencil.cbackend import (
    array_step_kernel,
    batch_step_kernel,
    brick_scratch,
    c_tier,
)
from repro.stencil.spec import StencilSpec

__all__ = [
    "ArrayStencilPlan",
    "BrickStencilPlan",
    "compile_array_plan",
    "compile_brick_plan",
]

_FLOAT64 = np.dtype(np.float64)  # what every plan steps
#: bytes a plan's scratch is aligned to: one cache line, one 512-bit vector
_SCRATCH_ALIGN = 64


def _aligned_zeros(n: int) -> np.ndarray:
    """*n* zeroed float64 elements starting on a :data:`_SCRATCH_ALIGN`
    boundary (a view into a slightly larger buffer)."""
    pad = _SCRATCH_ALIGN // _FLOAT64.itemsize
    raw = np.zeros(n + pad)
    start = (-raw.ctypes.data % _SCRATCH_ALIGN) // _FLOAT64.itemsize
    return raw[start : start + n]


# ----------------------------------------------------------------------
# Brick-storage plans
# ----------------------------------------------------------------------

class BrickStencilPlan:
    """Compiled executor of one stencil over a fixed brick slot set.

    The plan holds the slot set's ``(n, 3^D)`` adjacency rows and a
    one-brick scratch (halo tile and pair sums), and addresses
    neighbours through those rows alone: a step is one call of the
    stage-pair-sweep kernel
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
        # Scratch is plan-owned, like every mutable step buffer: its size
        # follows the brick shape, so it is no C stack array.  The halo
        # tile and the pair pass's copies are one buffer on a cache line,
        # so the copies' rows load aligned; zeroed, so a tile cell no
        # stage box covers reads as 0.0 in the pair pass.
        self._tile = _aligned_zeros(
            brick_scratch(spec.taps, np_bd, r).elems
        )
        # (id(src), id(dst)) -> the kernel call bound over that pair.
        # This rank's own: never cache it on the shared geometry.
        self._bound: Dict[Tuple[int, int], Callable[[], None]] = {}

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
        _check_addressable(storage.data, role, written=role == "dst")

    def execute(self, src: BrickStorage, dst: BrickStorage) -> None:
        """Apply the stencil to every planned slot, reading *src*,
        writing *dst* (which must be distinct storages).

        The first call with a storage pair checks it and binds the
        kernel call over it (:func:`_bound_call`); every later call with
        the same pair is that one C call."""
        call = self._bound.get((id(src), id(dst)))
        if call is None:
            if src is dst:
                raise ValueError("plans require distinct src and dst storages")
            self._check_storage(src, "src")
            self._check_storage(dst, "dst")
            call = _bound_call(
                self._bound, src, dst, self._ckernel,
                src.data, dst.data, self._adjacency, self.slots, self._tile,
            )
        call()


def compile_brick_plan(
    spec: StencilSpec,
    info: BrickInfo,
    slots: np.ndarray,
    field_offset: int = 0,
) -> BrickStencilPlan:
    """Build a brick plan over *info* (the compiled kernel inside is
    cached globally; the scratch-owning plan object is per caller).

    Every call returns a new plan: the scratch is written while a step
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
    coordinates) is the region the pack/mpi_types executed paths
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
        self._bound: Dict[Tuple[int, int], Callable[[], None]] = {}

    @property
    def kernel_backend(self) -> str:
        """``"cffi"``, with ``" (portable flags: <why>)"`` appended when
        the compiler refused the host flags
        (:func:`~repro.stencil.cbackend.c_tier`)."""
        return c_tier()

    def execute(self, arr: np.ndarray, out: np.ndarray) -> None:
        """``out[box] = stencil(arr)``; *arr* and *out* must be distinct
        C-contiguous float64 extended arrays (the kernel walks raw
        row-major memory, so anything else is refused).  Checked and
        bound once per array pair, as :meth:`BrickStencilPlan.execute`."""
        call = self._bound.get((id(arr), id(out)))
        if call is None:
            if arr is out:
                raise ValueError("plans require distinct arr and out arrays")
            if arr.shape != self._expected or out.shape != self._expected:
                raise ValueError(
                    f"expected extended shape {self._expected},"
                    f" got {arr.shape} / {out.shape}"
                )
            _check_addressable(arr, "arr")
            _check_addressable(out, "out", written=True)
            call = _bound_call(
                self._bound, arr, out, self._ckernel, arr, out, self._box_table
            )
        call()


def _check_addressable(a: np.ndarray, role: str, written: bool = False) -> None:
    """A plan's kernel walks raw row-major float64 memory and writes its
    destination (*written*): refuse anything else before binding an
    address."""
    if not (a.dtype == _FLOAT64 and a.flags.c_contiguous):
        raise ValueError(
            f"plans step C-contiguous float64 memory, got {role} {a.dtype}"
            f" with strides {a.strides}"
        )
    if written and not a.flags.writeable:
        raise ValueError(f"plans write their {role}, which is read-only")


#: A run alternates one plan between two buffer pairs (src/dst swap).
_BOUND_PAIRS = 2


def _bound_call(bound: dict, src, dst, kernel, *arrays) -> Callable[[], None]:
    """*kernel* bound over *arrays* (:func:`~repro.stencil.cbackend._finish`),
    cached in a plan's *bound* under the ``(src, dst)`` pair it was
    checked for.  The call holds *src* and *dst*, so neither id is
    reused while it is cached; a third pair starts the cache over."""
    if len(bound) >= _BOUND_PAIRS:
        bound.clear()
    call = bound[(id(src), id(dst))] = kernel.bind(*arrays)
    call.__pair__ = (src, dst)
    return call


def compile_array_plan(
    spec: StencilSpec,
    extent: Sequence[int],
    ghost: int,
    margin: Union[int, Sequence[Tuple[int, int]]] = 0,
) -> ArrayStencilPlan:
    """Build an array plan (the compiled kernel inside is cached globally;
    the scratch-owning plan object is per caller)."""
    return ArrayStencilPlan(spec, extent, ghost, margin)
