"""Compiled execution plans for the executed timestep loop.

The paper's thesis is that on-node data movement dominates strong-scaled
stencil communication; this module applies the same discipline to the
reproduction's own hottest Python path.  The generic kernels re-derive
slices, allocate halo/accumulator temporaries, and issue ``3^D`` separate
fancy-index gathers on every chunk of every timestep.  A *plan* hoists all
of that out of the loop, once per ``(stencil spec, brick geometry, slot
set, field offset)`` key, on one of two tiers:

* **C tier** (:mod:`repro.stencil.cbackend`) -- a brick plan holds the
  slot set's ``(n, 3^D)`` adjacency rows and one plan-owned halo-tile
  scratch; a step is one call of the stage-then-sweep kernel, which
  copies each brick's reached neighbour sub-boxes into the tile and
  runs the unrolled tap loop over it unit-stride.  No per-cell index
  table is built.  An array plan hands its box list to the C box
  kernel of its extended shape.
* **NumPy tier** (the fallback) -- a **fused gather plan**: a flat int64
  ``(n, halo)`` source-index table built once, so the per-step halo
  gather is a single ``np.take`` into a persistent buffer instead of
  ``3^D`` direction-wise fancy-index assignments (halo cells whose
  source brick is absent, adjacency ``-1``, are located at plan build
  and re-zeroed per step with one small fancy write); **persistent work
  buffers** for halo batch, accumulator and tap scratch; and the tap
  loop as a codegen-compiled, fully-unrolled kernel
  (:mod:`repro.stencil.codegen`) that accumulates with
  ``np.multiply(..., out=)`` / in-place ``np.add``, making zero
  temporaries per step.

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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.brick.info import BrickInfo, all_direction_vectors, direction_index
from repro.brick.storage import BrickStorage
from repro.obs import METRICS as _METRICS
from repro.obs import TRACER as _TRACER
from repro.stencil.brick_kernels import _margin_slices
from repro.stencil.cbackend import (
    array_step_kernel,
    backend_choice,
    batch_step_kernel,
)
from repro.stencil.codegen import (
    checked_box,
    generate_array_box_kernel,
    generate_batch_plan_kernel,
)
from repro.stencil.spec import StencilSpec

__all__ = [
    "ArrayStencilPlan",
    "BrickStencilPlan",
    "compile_array_plan",
    "compile_brick_plan",
    "compile_array_phase_plans",
    "compile_brick_phase_plans",
    "split_array_region",
    "split_brick_slots",
    "ghost_slot_mask",
]


# ----------------------------------------------------------------------
# Brick-storage plans
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _GatherChunk:
    """One chunk's precomputed gather/scatter tables (NumPy tier)."""

    slots: np.ndarray  # the batch of brick slots, in compute order
    index: np.ndarray  # (n, *halo_np) flat source indices into storage
    absent: Optional[np.ndarray]  # flat halo positions with no source brick
    scatter: Union[slice, np.ndarray]  # row selector into the dst brick view

    @property
    def n(self) -> int:
        return len(self.slots)


# Per-(brick shape, radius) halo template maps, shared by every chunk and
# every plan: for each flattened halo position, which of the 3^D adjacency
# directions it reads from and the ravelled within-brick source offset.
# Building these once turns per-chunk index-table construction from 3^D
# meshgrid assemblies into two vectorized lookups -- the difference between
# a ~77 ms and a ~2 ms plan compile per run.  The tables are read-only:
# rank threads share them.
_halo_templates: Dict[Tuple, Tuple[np.ndarray, np.ndarray]] = {}


def _halo_template(
    bd: Tuple[int, ...], radius: int, ndim: int
) -> Tuple[np.ndarray, np.ndarray]:
    key = (tuple(bd), int(radius))
    tpl = _halo_templates.get(key)
    if tpl is not None:
        return tpl
    np_bd = tuple(reversed(bd))
    halo_np = tuple(b + 2 * radius for b in np_bd)
    dir_map = np.empty(halo_np, dtype=np.int64)
    within = np.empty(halo_np, dtype=np.int64)
    for vec in all_direction_vectors(ndim):
        if radius == 0 and any(vec):
            continue
        tgt_slices, src_slices = [], []
        for axis in range(ndim - 1, -1, -1):  # numpy order: axis D first
            t, s = _margin_slices(vec[axis], bd[axis], radius)
            tgt_slices.append(t)
            src_slices.append(s)
        coords = np.meshgrid(
            *(np.arange(s.start, s.stop) for s in src_slices), indexing="ij"
        )
        within[tuple(tgt_slices)] = np.ravel_multi_index(coords, np_bd)
        dir_map[tuple(tgt_slices)] = direction_index(vec)
    tpl = (dir_map.reshape(-1), within.reshape(-1))
    for table in tpl:
        table.flags.writeable = False
    _halo_templates[key] = tpl
    return tpl


def _build_gather_chunk(
    info: BrickInfo,
    slots: np.ndarray,
    radius: int,
    field_offset: int,
    brick_elems: int,
) -> _GatherChunk:
    """Index tables for one NumPy-tier batch, mirroring
    ``gather_halo_batch``."""
    bd = info.brick_dim
    ndim = info.ndim
    np_bd = tuple(reversed(bd))
    halo_np = tuple(b + 2 * radius for b in np_bd)
    n = len(slots)
    dir_map, within = _halo_template(bd, radius, ndim)
    src = info.adjacency[slots][:, dir_map]  # (n, halo cells) source bricks
    index = src * brick_elems
    index += within + field_offset
    absent_flat: Optional[np.ndarray] = None
    mask = src < 0
    if mask.any():
        absent_flat = np.flatnonzero(mask)
        # Sentinel -1: np.take reads the last element, which execute()
        # then re-zeroes in the halo.  (Assigned through the mask: the
        # fancy-indexed table is not C-ordered, so a reshape(-1) of it
        # would be a copy.)
        index[mask] = -1
    index = np.ascontiguousarray(index.reshape((n,) + halo_np))
    # Contiguous slot batches scatter with one slice assignment.
    scatter: Union[slice, np.ndarray]
    if n and slots[-1] - slots[0] + 1 == n and np.all(np.diff(slots) == 1):
        scatter = slice(int(slots[0]), int(slots[0]) + n)
    else:
        scatter = slots
    return _GatherChunk(slots, index, absent_flat, scatter)


class BrickStencilPlan:
    """Compiled executor of one stencil over a fixed brick slot set.

    On the C tier the plan holds the slot set's ``(n, 3^D)`` adjacency
    rows and one halo-tile scratch; a step is one call of the
    stage-then-sweep kernel (:func:`repro.stencil.cbackend
    .batch_step_source`), which addresses neighbours per brick through
    those rows.  On the NumPy tier it holds fused ``(n, halo)`` gather
    tables and persistent halo/accumulator/tap buffers, and a step is
    one ``np.take`` gather per chunk, the unrolled in-place tap loop and
    one scatter into the destination bricks (``chunks`` is empty on the
    C tier, which never builds the tables).

    ``plan.halo_cells_gathered`` counts the halo cells a step stages:
    on the C tier bricks x the tile cells of the directions some tap
    reaches (a star skips edge and corner sub-boxes), on the NumPy tier
    bricks x the whole ``prod(bd + 2r)`` halo block ``np.take`` fills.
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
        self._np_bd = tuple(reversed(bd))
        slots = np.asarray(slots, dtype=np.int64)
        self.slots = slots
        self.chunks: List[_GatherChunk] = []
        halo_np = tuple(b + 2 * r for b in self._np_bd)
        # Codegen seam: the C kernel replaces the whole per-chunk
        # gather/taps/scatter sequence when available (and allowed by
        # REPRO_KERNEL_BACKEND); otherwise the NumPy plan path below runs
        # with its persistent scratch.  Results are bit-identical.
        self._ckernel = batch_step_kernel(
            spec.taps, self._np_bd, r, self.field_offset, brick_elems,
            self.dtype,
        )
        if self._ckernel is not None:
            self._adjacency = np.ascontiguousarray(
                info.adjacency[slots], dtype=np.int64
            )
            # Plan-owned, like every other mutable step buffer: its size
            # follows the brick shape, so it is no C stack array.
            self._tile = np.empty(math.prod(halo_np), dtype=self.dtype)
            self._staged_cells = len(slots) * self._ckernel.staged_cells
        else:
            self.chunks = [
                _build_gather_chunk(
                    info, slots[lo : lo + chunk], r, self.field_offset,
                    brick_elems,
                )
                for lo in range(0, len(slots), chunk)
            ]
            nmax = max((c.n for c in self.chunks), default=0)
            self._halo = np.zeros((nmax,) + halo_np, dtype=self.dtype)
            self._acc = np.empty((nmax,) + self._np_bd, dtype=self.dtype)
            self._tmp = np.empty_like(self._acc)
            self._kernel = generate_batch_plan_kernel(spec, bd)

    @property
    def kernel_backend(self) -> str:
        """The tier this plan steps on: ``"cffi"`` or ``"numpy"``."""
        return "cffi" if self._ckernel is not None else "numpy"

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

    def execute(self, src: BrickStorage, dst: BrickStorage) -> None:
        """Apply the stencil to every planned slot, reading *src*,
        writing *dst* (which must be distinct storages)."""
        if src is dst:
            raise ValueError("plans require distinct src and dst storages")
        self._check_storage(src, "src")
        self._check_storage(dst, "dst")
        track = _METRICS.enabled
        ck = self._ckernel
        if ck is not None:
            if track:
                _METRICS.count("plan.halo_cells_gathered", self._staged_cells)
            ck(src.data, dst.data, self._adjacency, self.slots, self._tile)
            return
        src_flat = src.data.reshape(-1)
        fo, vol = self.field_offset, self.volume
        dst_bricks = dst.data[:, fo : fo + vol].reshape(
            (dst.nslots,) + self._np_bd
        )
        for ch in self.chunks:
            n = ch.n
            halo = self._halo[:n]
            np.take(src_flat, ch.index, out=halo)
            if track:
                _METRICS.count("plan.halo_cells_gathered", int(ch.index.size))
            if ch.absent is not None:
                halo.reshape(-1)[ch.absent] = 0.0
            acc = self._acc[:n]
            self._kernel(halo, acc, self._tmp[:n])
            dst_bricks[ch.scatter] = acc


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

    Every call returns a new plan: the halo tile, or the halo / tap
    buffers of the NumPy tier, are written while a step runs -- the C
    kernel with the GIL released -- so a plan belongs to the rank that
    compiled it, while *info* may be one table shared by all of them.
    """
    with _TRACER.span("plan.compile", nslots=len(slots)):
        return BrickStencilPlan(spec, info, slots, field_offset, dtype, chunk)


# ----------------------------------------------------------------------
# Interior/surface phase split (compute-comm overlap)
#
# A phased timestep starts the exchange, computes every cell whose taps
# read no exchanged ghost data while the messages are in flight, completes
# the receives, then sweeps the rest.  The split below classifies compute
# work by what it *reads*: a brick is interior when no adjacency neighbor
# is a ghost-section slot; an array cell is interior when its stencil
# footprint stays inside the owned box.  Interior and surface partitions
# are disjoint and cover the unphased plan exactly, and each cell/brick is
# computed by the same kernel with the same tap order either way, so
# phased results are bit-identical to the unphased sweep.
# ----------------------------------------------------------------------

def split_brick_slots(
    info: BrickInfo, ghost_mask: np.ndarray, slots: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Partition *slots* into ``(interior, surface)`` by ghost reads.

    *ghost_mask* is a boolean array over storage slots, true for slots
    belonging to ghost sections (see :func:`ghost_slot_mask`).  A slot
    whose ``3^D`` adjacency row references any ghost slot -- including
    itself, via the central direction -- is surface; absent neighbors
    (adjacency ``-1``) read zeros the exchange never touches and do not
    force a slot to surface.  Original slot order is preserved within
    each part (plans chunk independently; per-brick results do not depend
    on batch composition).
    """
    slots = np.asarray(slots, dtype=np.int64)
    if len(slots) == 0:
        return slots, slots
    mask = np.asarray(ghost_mask, dtype=bool)
    adj = info.adjacency[slots]
    present = adj >= 0
    reads_ghost = (mask[np.where(present, adj, 0)] & present).any(axis=1)
    return slots[~reads_ghost], slots[reads_ghost]


def ghost_slot_mask(assignment) -> np.ndarray:
    """Boolean mask over storage slots: true for ghost-section slots."""
    mask = np.zeros(assignment.total_slots, dtype=bool)
    for s in assignment.sections:
        if s.kind == "ghost" and s.nbricks:
            mask[s.start: s.end] = True
    return mask


def compile_brick_phase_plans(
    spec: StencilSpec,
    info: BrickInfo,
    assignment,
    slots: np.ndarray,
    field_offset: int = 0,
    dtype=np.float64,
) -> Tuple[Optional["BrickStencilPlan"], Optional["BrickStencilPlan"]]:
    """``(interior plan, surface plan)`` for one cycle position's slots.

    Either part may be ``None`` when empty (tiny subdomains have no
    interior bricks; a neighborless rank has no surface).  Compiled
    through :func:`compile_brick_plan`, so the sub-plans share the
    per-geometry cache with the unphased plan.
    """
    interior, surface = split_brick_slots(info, ghost_slot_mask(assignment), slots)
    return (
        compile_brick_plan(spec, info, interior, field_offset, dtype)
        if len(interior)
        else None,
        compile_brick_plan(spec, info, surface, field_offset, dtype)
        if len(surface)
        else None,
    )


def split_array_region(
    extent: Sequence[int], ghost: int, margin: int, radius: int
) -> Tuple[Optional[Tuple], List[Tuple]]:
    """``(interior box, surface boxes)`` of one cycle-position region.

    Boxes are per-numpy-axis ``(lo, hi)`` ranges in extended-array
    coordinates.  The computed region is the owned box grown by *margin*;
    the interior is the owned box shrunk by *radius* (the cells whose
    taps stay inside owned data), and the surface shell is decomposed
    into at most ``2 * ndim`` disjoint slabs (axis ``a``'s slabs span the
    interior range on axes before ``a`` and the full region after it).
    ``(None, [region])`` when the subdomain is too thin for any interior.
    """
    ext_np = tuple(int(e) for e in reversed(tuple(extent)))
    lo = [ghost - margin] * len(ext_np)
    hi = [ghost + e + margin for e in ext_np]
    ilo = [ghost + radius] * len(ext_np)
    ihi = [ghost + e - radius for e in ext_np]
    region = tuple(zip(lo, hi))
    if any(l >= h for l, h in zip(ilo, ihi)):
        return None, [region]
    boxes: List[Tuple] = []
    for a in range(len(ext_np)):
        for blo, bhi in ((lo[a], ilo[a]), (ihi[a], hi[a])):
            if bhi <= blo:
                continue
            box = [
                (ilo[j], ihi[j]) if j < a else (lo[j], hi[j])
                for j in range(len(ext_np))
            ]
            box[a] = (blo, bhi)
            boxes.append(tuple(box))
    return tuple(zip(ilo, ihi)), boxes


# ----------------------------------------------------------------------
# Extended-array plans
# ----------------------------------------------------------------------

class ArrayStencilPlan:
    """Compiled executor of one stencil over boxes of an extended array.

    A plan is a list of boxes (per-numpy-axis ``(lo, hi)`` ranges in
    extended-array coordinates).  The default is the one box the
    pack/mpi_types/shift executed paths sweep, the owned region grown by
    *margin*; the phase split passes the interior box or the surface
    slabs of that region instead.  Like a brick plan it steps on the C
    kernel tier when ``REPRO_KERNEL_BACKEND`` allows -- one compiled
    function per extended shape, handed the box list per call -- and
    otherwise on the codegen NumPy box kernels with a persistent
    box-shaped tap scratch each.  Results are bit-identical to
    :func:`repro.stencil.kernels.apply_array_stencil` on those cells
    either way.
    """

    def __init__(
        self,
        spec: StencilSpec,
        extent: Sequence[int],
        ghost: int,
        margin: int = 0,
        dtype=np.float64,
        boxes: Optional[Sequence[Tuple]] = None,
    ) -> None:
        extent = tuple(int(e) for e in extent)
        if spec.ndim != len(extent):
            raise ValueError(
                f"stencil is {spec.ndim}-D but the domain is {len(extent)}-D"
            )
        if margin < 0:
            raise ValueError("margin cannot be negative")
        if spec.radius + margin > ghost:
            raise ValueError(
                f"stencil radius {spec.radius} plus margin {margin} exceeds"
                f" ghost width {ghost}"
            )
        if boxes is None:
            boxes = [
                tuple((ghost - margin, ghost + e + margin)
                      for e in reversed(extent))
            ]
        elif not boxes:
            raise ValueError("an array plan needs at least one box")
        self.spec = spec
        self.extent = extent
        self.ghost = int(ghost)
        self.margin = int(margin)
        self.dtype = np.dtype(dtype)
        self._expected = tuple(e + 2 * ghost for e in reversed(extent))
        self.boxes = tuple(
            checked_box(box, self._expected, spec.radius) for box in boxes
        )
        self.cells = int(
            sum(math.prod(hi - lo for lo, hi in box) for box in self.boxes)
        )
        self._box_table = np.array(self.boxes, dtype=np.int64)
        self._ckernel = array_step_kernel(
            spec.taps, self._expected, self.dtype
        )
        self._steps = None if self._ckernel is not None else self._numpy_steps()

    @property
    def kernel_backend(self) -> str:
        """The tier this plan steps on: ``"cffi"`` or ``"numpy"``."""
        return "cffi" if self._ckernel is not None else "numpy"

    def _numpy_steps(self) -> list:
        return [
            (
                generate_array_box_kernel(
                    self.spec, self.extent, self.ghost, box
                ),
                np.empty(tuple(hi - lo for lo, hi in box), dtype=self.dtype),
            )
            for box in self.boxes
        ]

    def execute(self, arr: np.ndarray, out: np.ndarray) -> None:
        """``out[box] = stencil(arr)`` over every planned box; *arr* and
        *out* must be distinct extended arrays."""
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
            if self._steps is None:
                self._steps = self._numpy_steps()
        for kernel, tmp in self._steps:
            kernel(arr, out, tmp)


def _c_addressable(a: np.ndarray) -> bool:
    return a.dtype == np.float64 and a.flags.c_contiguous


def compile_array_plan(
    spec: StencilSpec,
    extent: Sequence[int],
    ghost: int,
    margin: int = 0,
    dtype=np.float64,
) -> ArrayStencilPlan:
    """Build an array plan (the compiled kernel inside is cached globally;
    the scratch-owning plan object is per caller)."""
    return ArrayStencilPlan(spec, extent, ghost, margin, dtype)


def compile_array_phase_plans(
    spec: StencilSpec,
    extent: Sequence[int],
    ghost: int,
    margin: int = 0,
    dtype=np.float64,
) -> Tuple[Optional[ArrayStencilPlan], ArrayStencilPlan]:
    """``(interior plan, surface plan)`` for one array cycle position.

    Executing the interior plan and then the surface plan touches every
    region cell exactly once, bit-identically to the unsplit plan.
    """
    interior_box, surface_boxes = split_array_region(
        extent, ghost, margin, spec.radius
    )
    interior = (
        ArrayStencilPlan(spec, extent, ghost, margin, dtype, [interior_box])
        if interior_box is not None
        else None
    )
    surface = ArrayStencilPlan(spec, extent, ghost, margin, dtype, surface_boxes)
    return interior, surface
