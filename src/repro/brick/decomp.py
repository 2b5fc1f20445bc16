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
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.brick.info import BrickInfo
from repro.brick.storage import BrickStorage
from repro.layout.messages import runs_per_neighbor
from repro.layout.order import check_order, surface_order
from repro.util.bitset import BitSet

__all__ = ["Section", "SlotAssignment", "BrickDecomp"]

_COORD_SENTINEL = np.iinfo(np.int32).min


class Section(NamedTuple):
    """A contiguous slot range holding the bricks of one box.

    ``kind`` is ``"interior"``, ``"surface"`` or ``"ghost"``.  For surface
    sections ``region`` names ``r(S)``; for ghost sections ``region`` is
    the *sender's* region ``S'`` and ``neighbor`` the slab direction ``T``
    (the neighbor the data comes from).  A named tuple: an assignment
    builds one per section key, ``5^D`` of them (125 in 3-D).
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
        self.layout: List[BitSet] = check_order(layout, self.ndim)
        #: every neighbor's message runs under the layout
        self.runs = runs_per_neighbor(self.layout, self.ndim)
        self.messages_per_exchange = sum(map(len, self.runs.values()))
        self._vectors = np.array(
            [region.to_vector(self.ndim) for region in self.layout], dtype=np.int64
        ).reshape(len(self.layout), self.ndim)
        self._assignments: Dict[int, SlotAssignment] = {}

    # ------------------------------------------------------------------
    # Slot assignment
    # ------------------------------------------------------------------
    def assignment(self, alignment: int = 1) -> SlotAssignment:
        """Slot layout with section starts aligned to *alignment* slots.

        Built from arrays: every cell of the ``(n + 2W)^D`` brick grid is
        classified by its section key -- interior, surface region
        ``r(S)``, or ghost subsection ``(T, S')`` -- one stable argsort
        lays the sections out in key order (each box's cells stay in
        C order, axis 1 fastest), and the aligned section starts are a
        cumulative sum of the padded per-key counts.
        """
        if alignment <= 0:
            raise ValueError("alignment must be positive")
        cached = self._assignments.get(alignment)
        if cached is not None:
            return cached

        ndim, w = self.ndim, self.width
        n = np.array(self.grid, dtype=np.int64)
        vecs = self._vectors  # (R, ndim) layout regions, axis 1 first
        nregions = len(self.layout)
        # Ghost subsections in slot order: per neighbor T (layout order),
        # every sender region S' that covers it -- opposite(T) a subset
        # of S' -- in the sender's layout order.
        covers = (
            (vecs[:, None, :] == 0) | (vecs[None, :, :] == -vecs[:, None, :])
        ).all(axis=2)
        ghost_t, ghost_s = np.nonzero(covers)
        nkeys = 1 + nregions + len(ghost_t)
        # Per key: the direction vectors of its slab T (zero unless ghost)
        # and of its region S (zero for the interior).
        key_t = np.zeros((nkeys, ndim), dtype=np.int64)
        key_s = np.zeros((nkeys, ndim), dtype=np.int64)
        key_s[1 : 1 + nregions] = vecs
        key_t[1 + nregions :] = vecs[ghost_t]
        key_s[1 + nregions :] = vecs[ghost_s]
        # (T, S) direction-index pair -> key.
        weights = 3 ** np.arange(ndim, dtype=np.int64)
        ndirs = 3**ndim
        lookup = np.full(ndirs * ndirs, -1, dtype=np.int64)
        lookup[(key_t + 1) @ weights * ndirs + (key_s + 1) @ weights] = np.arange(nkeys)

        # Per axis, for each signed coordinate -W .. n+W-1: the slab it
        # lies in (T_i) and the sender-frame region band (S_i).
        np_shape = tuple(int(x) for x in reversed(n + 2 * w))
        t_idx = s_idx = 0
        for axis in range(ndim):
            c = np.arange(-w, self.grid[axis] + w)
            t = (c >= self.grid[axis]).astype(np.int64) - (c < 0)
            s = np.where(
                t != 0, -t, (c >= self.grid[axis] - w).astype(np.int64) - (c < w)
            )
            shape = [1] * ndim
            shape[ndim - 1 - axis] = c.size  # numpy axis position
            t_idx = t_idx + ((t + 1) * weights[axis]).reshape(shape)
            s_idx = s_idx + ((s + 1) * weights[axis]).reshape(shape)
        keys = lookup[(t_idx * ndirs + s_idx).reshape(-1)]
        assert (keys >= 0).all(), "a brick-grid cell has no section"

        counts = np.bincount(keys, minlength=nkeys)
        padded = -(-counts // alignment) * alignment
        starts = np.concatenate(([0], np.cumsum(padded)[:-1]))
        total = int(padded.sum())
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        first = np.cumsum(counts) - counts  # sorted position of each key's first cell
        slots = starts[sorted_keys] + np.arange(keys.size) - first[sorted_keys]
        grid_index = np.empty(keys.size, dtype=np.int64)
        grid_index[order] = slots
        grid_index = grid_index.reshape(np_shape)
        # Signed coordinates of every cell, axis 1 first.
        coords = np.indices(np_shape).reshape(ndim, -1)[::-1].T - w
        slot_coords = np.full((total, ndim), _COORD_SENTINEL, dtype=np.int64)
        slot_coords[slots] = coords[order]

        # Box of each key: the region's box in the sender's frame,
        # shifted by T * n.
        lo = np.where(key_s < 0, 0, np.where(key_s > 0, n - w, w)) + key_t * n
        ext = np.where(key_s == 0, n - 2 * w, w)
        layout = self.layout
        kinds = ["interior"] + ["surface"] * nregions + ["ghost"] * len(ghost_t)
        regions = [None] + layout + [layout[i] for i in ghost_s.tolist()]
        neighbors = [None] * (1 + nregions) + [layout[i] for i in ghost_t.tolist()]
        sections = list(map(
            Section, kinds, starts.tolist(), counts.tolist(),
            map(tuple, lo.tolist()), map(tuple, ext.tolist()), regions,
            neighbors, padded.tolist(),
        ))
        # Cached and handed to every caller (every rank thread of a run):
        # a write would be a race, so make it an error.
        grid_index.flags.writeable = False
        slot_coords.flags.writeable = False
        out = SlotAssignment(
            alignment=alignment,
            total_slots=total,
            sections=sections,
            interior=sections[0],
            surface=dict(zip(layout, sections[1 : 1 + nregions])),
            ghost={(s.neighbor, s.region): s for s in sections[1 + nregions :]},
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
