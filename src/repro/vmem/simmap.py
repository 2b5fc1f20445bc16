"""Simulated virtual-memory mapping: a page table plus gather/scatter.

Portable stand-in for :mod:`repro.vmem.realmap` with the same interface.
A :class:`SimArena` keeps an explicit page table per view -- a vector of
physical page numbers -- exactly the logical structure the hardware MMU
walks in the real implementation.  Because Python cannot alias
non-contiguous buffers, :meth:`SimStitchedView.array` materializes the view
by gathering pages (and :meth:`flush` scatters them back).

The copies are *bookkeeping, not modelled cost*: they emulate work the MMU
does for free, so the modelled-time exchangers charge zero seconds for
them.  The test suite runs every MemMap scenario over both arenas and
asserts bit-identical results.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.faults.runtime import VMEM_FAULTS
from repro.vmem.arena import Arena
from repro.vmem.view import StitchedViewBase

__all__ = ["SimArena", "SimStitchedView"]


class SimArena(Arena):
    """Plain-numpy arena with a simulated page-mapping facility."""

    def __init__(self, nbytes: int, page_size: int) -> None:
        nbytes = -(-nbytes // page_size) * page_size
        super().__init__(nbytes, page_size)
        self._buf = np.zeros(nbytes, dtype=np.uint8)
        self._views: List[SimStitchedView] = []

    @property
    def buffer(self) -> np.ndarray:
        return self._buf

    def make_view(self, chunks: Sequence[Tuple[int, int]]) -> "SimStitchedView":
        view = SimStitchedView(self, self.check_chunks(chunks))
        self._views.append(view)
        return view

    @property
    def mapping_count(self) -> int:
        """Requested chunks of the live views, plus 1 base: the paper's
        ``vm.max_map_count`` charge, counted as :class:`MemfdArena` does."""
        return 1 + sum(len(v.chunks) for v in self._views if not v.closed)

    def close(self) -> None:
        for v in self._views:
            v.close()
        self._views.clear()


class SimStitchedView(StitchedViewBase):
    """Copy-based stand-in for a stitched mapping.

    The page table maps each virtual page of the view to a physical page
    of the arena.  ``array()`` returns a cached materialization;
    ``refresh``/``flush`` move data between the materialization and the
    arena along the page table.
    """

    def __init__(self, arena: SimArena, chunks: List[Tuple[int, int]]) -> None:
        super().__init__(chunks)
        self._arena = arena
        self.closed = False
        # Same armable failure site as the real mapping path, so the
        # degradation machinery behaves identically over both arenas.
        VMEM_FAULTS.check("view_map_chunk")
        page = arena.page_size
        table = []
        for off, length in chunks:
            first = off // page
            table.extend(range(first, first + length // page))
        #: physical page number backing each virtual page of the view.
        self.page_table = np.asarray(table, dtype=np.int64)
        self._mat = np.empty(self.nbytes, dtype=np.uint8)
        self.refresh()

    @property
    def zero_copy(self) -> bool:
        return False

    def _phys_pages(self) -> np.ndarray:
        """Arena reshaped as (npages, page_size)."""
        page = self._arena.page_size
        return self._arena.buffer.reshape(-1, page)

    def array(self, dtype=np.uint8) -> np.ndarray:
        if self.closed:
            raise ValueError("view is closed")
        return self._mat.view(dtype)

    def refresh(self) -> None:
        """Gather arena pages into the materialized view (MMU emulation)."""
        if self.closed:
            raise ValueError("view is closed")
        page = self._arena.page_size
        self._mat.reshape(-1, page)[:] = self._phys_pages()[self.page_table]

    def flush(self, up_to_bytes: int = None) -> None:
        """Scatter the materialized view back into the arena.

        When the view maps the same physical page more than once (legal --
        overlapping surface regions), the *last* virtual occurrence wins
        here.  Writing different values through two aliases of one page is
        a data race whose order is unspecified even on the real mapping;
        the exchange never does it (its receive window maps disjoint ghost
        pages, its send window only reads).

        *up_to_bytes* (page-multiple) limits write-back to the leading
        pages -- used when the view's tail aliases foreign data.
        """
        if self.closed:
            raise ValueError("view is closed")
        page = self._arena.page_size
        if up_to_bytes is None:
            npages = len(self.page_table)
        else:
            if up_to_bytes % page:
                raise ValueError(
                    f"up_to_bytes {up_to_bytes} must be a page multiple"
                )
            npages = min(up_to_bytes // page, len(self.page_table))
        table = self.page_table[:npages]
        self._phys_pages()[table] = self._mat.reshape(-1, page)[:npages]

    def close(self) -> None:
        self.closed = True
        self._mat = None
