"""Intra-node halo sharing: ghost zones that *are* the neighbor's surface.

The paper notes (Sections 2 and 4) that memory mapping also optimizes
data movement "between subdomains on the same rank".  This module takes
that idea to its endpoint: when several subdomains live in one process,
back them all with a single memfd arena and build each subdomain's
storage as a stitched view in which the *ghost sections are mappings of
the neighboring subdomain's surface sections*.

Consequences:

* intra-node halo exchange is a **no-op** -- a neighbor's surface write
  is instantly visible through this subdomain's ghost bricks, with zero
  copies and zero messages;
* ghost zones consume **no physical memory** (they are aliases), cutting
  the footprint of small-subdomain decompositions;
* with a fully periodic in-process domain grid, an entire simulation runs
  with *no communication code at all* -- which this module's tests verify
  bit-for-bit against the serial reference.

On the simulated (page-table) arena the same structure works, but the MMU
emulation must be told when to move data: ``flush_owned`` after writing a
step's results, ``sync`` before reading ghosts.  Both are no-ops on the
real arena.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.brick.decomp import BrickDecomp, SlotAssignment
from repro.brick.info import BrickInfo
from repro.brick.storage import BrickStorage
from repro.util.bitset import BitSet
from repro.vmem import default_arena
from repro.faults.errors import ExchangeConfigError

__all__ = ["LocalDomainGrid"]


class LocalDomainGrid:
    """A periodic grid of subdomains in one process with aliased halos.

    Parameters
    ----------
    domain_dims:
        Number of subdomains per axis (axis 1 first); the grid wraps
        periodically (a dimension of 1 aliases a subdomain to itself,
        which implements single-domain periodic boundaries for free).
    sub_extent, brick_dim, ghost, layout, dtype, nfields:
        Per-subdomain decomposition parameters, as for
        :class:`~repro.brick.decomp.BrickDecomp`.
    page_size:
        Mapping granularity; sections are padded to it.
    """

    def __init__(
        self,
        domain_dims: Sequence[int],
        sub_extent: Sequence[int],
        brick_dim: Sequence[int],
        ghost: int,
        layout=None,
        page_size: int = 4096,
        dtype=np.float64,
        nfields: int = 1,
    ) -> None:
        self.domain_dims = tuple(int(d) for d in domain_dims)
        if any(d <= 0 for d in self.domain_dims):
            raise ExchangeConfigError("domain_dims must be positive")
        self.decomp = BrickDecomp(
            sub_extent, brick_dim, ghost, layout, dtype, nfields
        )
        if len(self.domain_dims) != self.decomp.ndim:
            raise ExchangeConfigError("domain_dims dimensionality mismatch")
        self.page_size = int(page_size)
        align = self.decomp.alignment_for_page(self.page_size)
        self.assignment: SlotAssignment = self.decomp.assignment(align)
        asn = self.assignment
        bb = self.decomp.brick_bytes

        ghost_starts = [s.start for s in asn.sections if s.kind == "ghost"]
        #: slots up to the first ghost section: the physically-owned part.
        self.owned_slots = min(ghost_starts) if ghost_starts else asn.total_slots
        self.owned_bytes = self.owned_slots * bb
        if self.owned_bytes % self.page_size:
            raise ExchangeConfigError("owned region is not page aligned")

        self.ndomains = math.prod(self.domain_dims)
        arena_bytes = self.ndomains * self.owned_bytes
        self.arena = default_arena(arena_bytes, self.page_size)

        self._views = []
        self.storages: List[BrickStorage] = []
        for idx in range(self.ndomains):
            chunks = self._domain_chunks(idx)
            view = self.arena.make_view(chunks)
            self._views.append(view)
            self.storages.append(
                BrickStorage.from_view(
                    view, asn.total_slots, self.decomp.brick_elems, dtype
                )
            )

        self.info: BrickInfo = self.decomp.brick_info(asn)
        self.compute_slots = self.decomp.compute_slots(asn)

    # ------------------------------------------------------------------
    # Domain indexing (axis 1 fastest, periodic)
    # ------------------------------------------------------------------
    def coords_to_index(self, coords: Sequence[int]) -> int:
        idx = 0
        stride = 1
        for c, d in zip(coords, self.domain_dims):
            idx += (int(c) % d) * stride
            stride *= d
        return idx

    def index_to_coords(self, idx: int) -> Tuple[int, ...]:
        coords = []
        for d in self.domain_dims:
            coords.append(idx % d)
            idx //= d
        return tuple(coords)

    def neighbor_index(self, idx: int, direction: BitSet) -> int:
        coords = self.index_to_coords(idx)
        vec = direction.to_vector(self.decomp.ndim)
        return self.coords_to_index(
            tuple(c + v for c, v in zip(coords, vec))
        )

    def storage(self, coords: Sequence[int]) -> BrickStorage:
        return self.storages[self.coords_to_index(coords)]

    # ------------------------------------------------------------------
    def _domain_chunks(self, idx: int) -> List[Tuple[int, int]]:
        """Stitched-view chunks for one subdomain, in slot order."""
        asn = self.assignment
        bb = self.decomp.brick_bytes
        base = idx * self.owned_bytes
        chunks: List[Tuple[int, int]] = [(base, self.owned_bytes)]
        for sec in asn.sections:
            if sec.kind != "ghost" or sec.padded_nbricks == 0:
                continue
            nbr_idx = self.neighbor_index(idx, sec.neighbor)
            src = asn.surface[sec.region]
            if src.padded_nbricks != sec.padded_nbricks:
                raise ExchangeConfigError(
                    "ghost subsection and source surface region disagree"
                )
            chunks.append(
                (
                    nbr_idx * self.owned_bytes + src.start * bb,
                    sec.padded_nbricks * bb,
                )
            )
        total = sum(length for _, length in chunks)
        if total != asn.total_slots * bb:
            raise ExchangeConfigError("view chunks do not tile the slot space")
        return chunks

    # ------------------------------------------------------------------
    # MMU emulation hooks (no-ops over the real memfd arena)
    # ------------------------------------------------------------------
    @property
    def zero_copy(self) -> bool:
        return bool(self._views) and self._views[0].zero_copy

    def flush_owned(self) -> None:
        """Write each domain's owned slots back to the arena (sim only).

        Only the owned prefix is flushed: the ghost tail of every view
        aliases *other* domains' surfaces and must never be written back.
        """
        for view in self._views:
            view.flush(up_to_bytes=self.owned_bytes)

    def sync(self) -> None:
        """Re-read every view from the arena (sim only)."""
        for view in self._views:
            view.refresh()

    # ------------------------------------------------------------------
    def load_global(self, global_arr: np.ndarray, fld: int = 0) -> None:
        """Scatter a global (numpy-ordered) array into all subdomains.

        Only the *owned* element region of each subdomain is written:
        ghost slots are aliases of other domains' surfaces, and writing
        them would write through onto that foreign data.
        """
        from repro.brick.convert import element_permutation
        from repro.stencil.kernels import owned_slices

        sub = self.decomp.extent
        g = self.decomp.ghost_elems
        expected = tuple(
            s * d for s, d in zip(reversed(sub), reversed(self.domain_dims))
        )
        if global_arr.shape != expected:
            raise ExchangeConfigError(
                f"global array shape {global_arr.shape}, expected {expected}"
            )
        own = owned_slices(sub, g)
        owned_perm = element_permutation(self.decomp, self.assignment, fld)[
            own
        ].reshape(-1)
        for idx in range(self.ndomains):
            coords = self.index_to_coords(idx)
            lo = [c * s for c, s in zip(coords, sub)]
            slc = tuple(
                slice(l, l + s) for l, s in zip(reversed(lo), reversed(sub))
            )
            self.storages[idx].data.reshape(-1)[owned_perm] = (
                global_arr[slc].astype(self.decomp.dtype).reshape(-1)
            )
        self.flush_owned()
        self.sync()

    def extract_global(self, fld: int = 0) -> np.ndarray:
        """Gather every subdomain's owned region into a global array."""
        from repro.brick.convert import bricks_to_extended
        from repro.stencil.kernels import owned_slices

        sub = self.decomp.extent
        g = self.decomp.ghost_elems
        shape = tuple(
            s * d for s, d in zip(reversed(sub), reversed(self.domain_dims))
        )
        out = np.empty(shape, dtype=self.decomp.dtype)
        own = owned_slices(sub, g)
        for idx in range(self.ndomains):
            coords = self.index_to_coords(idx)
            lo = [c * s for c, s in zip(coords, sub)]
            slc = tuple(
                slice(l, l + s) for l, s in zip(reversed(lo), reversed(sub))
            )
            out[slc] = bricks_to_extended(
                self.decomp, self.storages[idx], self.assignment, fld
            )[own]
        return out

    def close(self) -> None:
        for view in self._views:
            view.close()
        self._views.clear()
        self.storages.clear()
        self.arena.close()

    def __enter__(self) -> "LocalDomainGrid":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
