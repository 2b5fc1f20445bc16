"""Subdomain decomposition into interior / surface / ghost brick sections.

Everything the communication layer needs falls out of one observation: in
grid-of-bricks coordinates, the interior, every surface region ``r(S)`` and
every ghost *subsection* are axis-aligned boxes.

* The **interior** is the box ``[W, n-W)`` per axis (``W`` = ghost width in
  bricks, ``n`` = subdomain extent in bricks).
* **Surface region** ``r(S)``: per axis, the low band ``[0, W)`` if
  ``S_i = -1``, the high band ``[n-W, n)`` if ``S_i = +1``, else the middle
  ``[W, n-W)``.
* **Ghost subsection** ``(T, S')``: the image of the *sender's* surface
  region ``r(S')`` (``S'`` a superset of ``opposite(T)``) shifted by
  ``T * n`` -- the exact bricks neighbor ``N(T)``'s region lands in.

Physical slot order is: interior, then surface regions in the layout's
order, then ghost subsections grouped by neighbor and ordered *by the
sender's layout* within each group -- so that every message of the
pack-free exchange is a contiguous slot range on both ends.

Section starts can be aligned to a slot multiple (``alignment`` > 1):
that is how ``mmap_alloc`` keeps regions page-aligned for MemMap, at the
price of phantom padding slots (the Table 2 network-transfer waste).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.brick.info import BrickInfo
from repro.brick.storage import BrickStorage
from repro.layout.order import surface_order, validate_order
from repro.layout.regions import all_regions, sending_regions
from repro.util.bitset import BitSet
from repro.util.indexing import ceil_div

__all__ = ["Section", "SlotAssignment", "BrickDecomp"]

_COORD_SENTINEL = np.iinfo(np.int32).min


@dataclass(frozen=True)
class Section:
    """A contiguous slot range holding the bricks of one box.

    ``kind`` is ``"interior"``, ``"surface"`` or ``"ghost"``.  For surface
    sections ``region`` names ``r(S)``; for ghost sections ``region`` is
    the *sender's* region ``S'`` and ``neighbor`` the slab direction ``T``
    (the neighbor the data comes from).
    """

    kind: str
    start: int
    nbricks: int
    box_lo: Tuple[int, ...]  # signed brick-grid coordinates, inclusive
    box_extent: Tuple[int, ...]
    region: Optional[BitSet] = None
    neighbor: Optional[BitSet] = None
    padded_nbricks: int = 0  # slots reserved including alignment padding

    @property
    def end(self) -> int:
        return self.start + self.nbricks

    @property
    def padded_end(self) -> int:
        return self.start + self.padded_nbricks


@dataclass
class SlotAssignment:
    """Physical slot layout for one alignment choice."""

    alignment: int
    total_slots: int
    sections: List[Section]
    interior: Section
    surface: Dict[BitSet, Section]
    ghost: Dict[Tuple[BitSet, BitSet], Section]  # keyed (neighbor T, sender region S')
    grid_index: np.ndarray  # numpy-axis-ordered grid -> slot
    slot_coords: np.ndarray  # (total_slots, ndim) signed coords; sentinel = padding

    @property
    def logical_bricks(self) -> int:
        return sum(s.nbricks for s in self.sections)

    @property
    def padding_slots(self) -> int:
        return self.total_slots - self.logical_bricks

    def is_padding(self, slot: int) -> bool:
        return self.slot_coords[slot, 0] == _COORD_SENTINEL


class BrickDecomp:
    """Decompose one rank's subdomain for pack-free ghost-zone exchange.

    Parameters
    ----------
    extent:
        Subdomain size in elements per axis (axis 1 first).
    brick_dim:
        Brick size in elements per axis; must divide *extent*.
    ghost_elems:
        Ghost-zone width in elements; must be a positive multiple of the
        brick dimension on every axis (use ghost-cell expansion to widen a
        thin ghost zone to a brick multiple -- paper Section 2).
    layout:
        Surface-region order; defaults to the packaged optimal order for
        the dimensionality.
    dtype, nfields:
        Element type and interleaved field count per brick.
    """

    def __init__(
        self,
        extent: Sequence[int],
        brick_dim: Sequence[int],
        ghost_elems: int,
        layout: Optional[Sequence[BitSet]] = None,
        dtype=np.float64,
        nfields: int = 1,
    ) -> None:
        self.extent = tuple(int(e) for e in extent)
        self.ndim = len(self.extent)
        if self.ndim < 1:
            raise ValueError("extent must have at least one axis")
        if isinstance(brick_dim, int):
            brick_dim = (brick_dim,) * self.ndim
        self.brick_dim = tuple(int(b) for b in brick_dim)
        if len(self.brick_dim) != self.ndim:
            raise ValueError("brick_dim dimensionality mismatch")
        if any(b <= 0 for b in self.brick_dim):
            raise ValueError("brick dimensions must be positive")
        if any(e % b for e, b in zip(self.extent, self.brick_dim)):
            raise ValueError(
                f"brick dims {self.brick_dim} must divide extent {self.extent}"
            )
        if ghost_elems <= 0:
            raise ValueError("ghost width must be positive")
        if any(ghost_elems % b for b in self.brick_dim):
            raise ValueError(
                f"ghost width {ghost_elems} must be a multiple of the brick"
                f" dimension on every axis {self.brick_dim}; widen it with"
                " ghost-cell expansion"
            )
        self.ghost_elems = int(ghost_elems)
        #: subdomain extent in bricks per axis
        self.grid = tuple(e // b for e, b in zip(self.extent, self.brick_dim))
        #: ghost/surface width in bricks (same on every axis)
        self.width = ghost_elems // self.brick_dim[0]
        widths = {ghost_elems // b for b in self.brick_dim}
        if len(widths) != 1:
            raise ValueError(
                "anisotropic bricks must still give one ghost width in bricks"
            )
        if any(n < 2 * self.width for n in self.grid):
            raise ValueError(
                f"subdomain of {self.grid} bricks too small for surface"
                f" width {self.width} bricks per side"
            )
        if nfields <= 0:
            raise ValueError("nfields must be positive")
        self.nfields = int(nfields)
        self.dtype = np.dtype(dtype)
        self.brick_volume = math.prod(self.brick_dim)
        self.brick_elems = self.brick_volume * self.nfields
        self.brick_bytes = self.brick_elems * self.dtype.itemsize

        if layout is None:
            layout = surface_order(self.ndim)
        self.layout: List[BitSet] = list(layout)
        self.messages_per_exchange = validate_order(self.layout, self.ndim)
        self._assignments: Dict[int, SlotAssignment] = {}

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def region_box(self, region: BitSet) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Signed-coordinate (lo, extent) box of surface region ``r(region)``."""
        lo, ext = [], []
        for axis in range(self.ndim):
            n, w = self.grid[axis], self.width
            d = region.direction(axis + 1)
            if d < 0:
                lo.append(0)
                ext.append(w)
            elif d > 0:
                lo.append(n - w)
                ext.append(w)
            else:
                lo.append(w)
                ext.append(n - 2 * w)
        return tuple(lo), tuple(ext)

    def interior_box(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        lo = tuple(self.width for _ in range(self.ndim))
        ext = tuple(n - 2 * self.width for n in self.grid)
        return lo, ext

    def ghost_subsection_box(
        self, neighbor: BitSet, sender_region: BitSet
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Box where ``N(neighbor)``'s region ``r(sender_region)`` lands.

        The sender's region box shifted by ``neighbor * n``; valid only
        when ``sender_region`` is a superset of ``opposite(neighbor)``.
        """
        if not neighbor.opposite().issubset(sender_region):
            raise ValueError(
                f"region {sender_region.notation()} is not sent to the"
                f" neighbor opposite {neighbor.notation()}"
            )
        lo, ext = self.region_box(sender_region)
        tvec = neighbor.to_vector(self.ndim)
        lo = tuple(l + t * n for l, t, n in zip(lo, tvec, self.grid))
        return lo, ext

    # ------------------------------------------------------------------
    # Slot assignment
    # ------------------------------------------------------------------
    def assignment(self, alignment: int = 1) -> SlotAssignment:
        """Slot layout with section starts aligned to *alignment* slots."""
        if alignment <= 0:
            raise ValueError("alignment must be positive")
        cached = self._assignments.get(alignment)
        if cached is not None:
            return cached

        full = tuple(n + 2 * self.width for n in self.grid)
        # numpy arrays index [axis_D, ..., axis_1] (axis 1 fastest/last)
        np_shape = tuple(reversed(full))
        grid_index = np.full(np_shape, -1, dtype=np.int64)

        plan: List[Tuple[str, Optional[BitSet], Optional[BitSet], tuple, tuple]] = []
        plan.append(("interior", None, None) + self.interior_box())
        for region in self.layout:
            plan.append(("surface", region, None) + self.region_box(region))
        for neighbor in self.layout:
            opp = neighbor.opposite()
            wanted = {
                s for s in sending_regions(opp, self.ndim)
            }  # sender regions covering us
            for sender_region in self.layout:
                if sender_region in wanted:
                    plan.append(
                        ("ghost", sender_region, neighbor)
                        + self.ghost_subsection_box(neighbor, sender_region)
                    )

        sections: List[Section] = []
        cursor = 0
        coords_blocks: List[np.ndarray] = []
        for kind, region, neighbor, lo, ext in plan:
            nb = math.prod(ext)
            aligned_start = ceil_div(cursor, alignment) * alignment
            if kind == "interior":
                # The interior needs no alignment of its own; it starts the
                # buffer.  (cursor == 0 is always aligned.)
                aligned_start = cursor
            if nb == 0:
                sections.append(
                    Section(kind, aligned_start, 0, lo, ext, region, neighbor, 0)
                )
                continue
            start = aligned_start
            padded = ceil_div(nb, alignment) * alignment
            sections.append(
                Section(kind, start, nb, lo, ext, region, neighbor, padded)
            )
            # Fill grid_index for this box: slots are consecutive with
            # axis 1 fastest, which is exactly numpy C-order over the
            # reversed-axis slice.
            slices = tuple(
                slice(l + self.width, l + self.width + e)
                for l, e in zip(reversed(lo), reversed(ext))
            )
            grid_index[slices] = np.arange(start, start + nb).reshape(
                tuple(reversed(ext))
            )
            # Signed coordinates of each slot in the box, same ordering.
            mesh = np.meshgrid(
                *(np.arange(l, l + e) for l, e in zip(reversed(lo), reversed(ext))),
                indexing="ij",
            )
            block = np.stack(
                [m.reshape(-1) for m in reversed(mesh)], axis=1
            )  # (nb, ndim) with axis 1 first
            pad_rows = padded - nb
            if pad_rows or start != cursor:
                lead = start - cursor
                if lead:
                    coords_blocks.append(
                        np.full((lead, self.ndim), _COORD_SENTINEL, dtype=np.int64)
                    )
                coords_blocks.append(block)
                if pad_rows:
                    coords_blocks.append(
                        np.full((pad_rows, self.ndim), _COORD_SENTINEL, dtype=np.int64)
                    )
                cursor = start + padded
            else:
                coords_blocks.append(block)
                cursor = start + nb

        total = ceil_div(cursor, alignment) * alignment
        if total > cursor:
            coords_blocks.append(
                np.full((total - cursor, self.ndim), _COORD_SENTINEL, dtype=np.int64)
            )
        slot_coords = (
            np.concatenate(coords_blocks, axis=0)
            if coords_blocks
            else np.empty((0, self.ndim), dtype=np.int64)
        )
        assert slot_coords.shape[0] == total, (slot_coords.shape, total)

        interior = next(s for s in sections if s.kind == "interior")
        surface = {s.region: s for s in sections if s.kind == "surface"}
        ghost = {
            (s.neighbor, s.region): s for s in sections if s.kind == "ghost"
        }
        # Cached and handed to every caller (every rank thread of a run):
        # a write would be a race, so make it an error.
        grid_index.flags.writeable = False
        slot_coords.flags.writeable = False
        out = SlotAssignment(
            alignment=alignment,
            total_slots=total,
            sections=sections,
            interior=interior,
            surface=surface,
            ghost=ghost,
            grid_index=grid_index,
            slot_coords=slot_coords,
        )
        self._assignments[alignment] = out
        return out

    def alignment_for_page(self, page_size: int) -> int:
        """Slots per aligned unit so section starts are page-aligned."""
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        return math.lcm(self.brick_bytes, page_size) // self.brick_bytes

    # ------------------------------------------------------------------
    # Allocation (paper Figure 7)
    # ------------------------------------------------------------------
    def allocate(self, dtype=None) -> Tuple[BrickStorage, SlotAssignment]:
        """Plain storage for Layout-mode exchange (no padding)."""
        asn = self.assignment(1)
        storage = BrickStorage.allocate(
            asn.total_slots, self.brick_elems, dtype or self.dtype
        )
        return storage, asn

    def mmap_alloc(
        self, page_size: int = 4096, dtype=None
    ) -> Tuple[BrickStorage, SlotAssignment]:
        """Mapping-capable storage with page-aligned regions (MemMap)."""
        asn = self.assignment(self.alignment_for_page(page_size))
        storage = BrickStorage.mmap_alloc(
            asn.total_slots, self.brick_elems, dtype or self.dtype, page_size
        )
        return storage, asn

    # ------------------------------------------------------------------
    def brick_info(self, assignment: Optional[SlotAssignment] = None) -> BrickInfo:
        """Adjacency metadata for stencil computation over this layout."""
        asn = assignment or self.assignment(1)
        return BrickInfo.from_assignment(self, asn)

    def compute_slots(self, assignment: Optional[SlotAssignment] = None) -> np.ndarray:
        """Slots the stencil is applied to: interior plus surface bricks."""
        asn = assignment or self.assignment(1)
        ranges = [np.arange(asn.interior.start, asn.interior.end)]
        for region in self.layout:
            s = asn.surface[region]
            ranges.append(np.arange(s.start, s.end))
        return np.concatenate(ranges)
