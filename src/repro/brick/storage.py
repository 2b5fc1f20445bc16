"""Flat brick storage over an arena.

Bricks occupy consecutive *slots* of ``brick_bytes`` each.  Slot indices
include any phantom padding slots the MemMap allocator inserted to keep
region starts page-aligned; padding slots hold no data and are never
referenced by the adjacency or the exchange schedules.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.vmem import MemfdArena, NumpyArena
from repro.vmem.arena import Arena

__all__ = ["BrickStorage"]


class BrickStorage:
    """``nslots`` bricks of ``brick_elems`` elements over an *arena*.

    Parameters
    ----------
    arena:
        Backing byte buffer.  :class:`~repro.vmem.NumpyArena` for plain
        (Layout-mode) storage; a mapping-capable arena for MemMap mode.
    nslots:
        Number of brick slots, including padding slots.
    brick_elems:
        Elements per brick (brick volume times interleaved field count).
    dtype:
        Element dtype.
    """

    def __init__(
        self, arena: Arena, nslots: int, brick_elems: int, dtype=np.float64
    ) -> None:
        if nslots <= 0 or brick_elems <= 0:
            raise ValueError("nslots and brick_elems must be positive")
        self.arena = arena
        self.nslots = int(nslots)
        self.brick_elems = int(brick_elems)
        self.dtype = np.dtype(dtype)
        self.brick_bytes = self.brick_elems * self.dtype.itemsize
        need = self.nslots * self.brick_bytes
        if arena.nbytes < need:
            raise ValueError(
                f"arena of {arena.nbytes} bytes too small for {nslots} slots"
                f" of {self.brick_bytes} bytes"
            )
        #: (nslots, brick_elems) view of the arena -- the brick data.
        self.data = (
            arena.buffer[:need].view(self.dtype).reshape(self.nslots, self.brick_elems)
        )

    # ------------------------------------------------------------------
    @classmethod
    def allocate(
        cls, nslots: int, brick_elems: int, dtype=np.float64, page_size: int = 4096
    ) -> "BrickStorage":
        """Plain allocation (the paper's ``BrickInfo::allocate``)."""
        dtype = np.dtype(dtype)
        nbytes = -(-nslots * brick_elems * dtype.itemsize // page_size) * page_size
        return cls(NumpyArena(nbytes, page_size), nslots, brick_elems, dtype)

    @classmethod
    def mmap_alloc(
        cls, nslots: int, brick_elems: int, dtype=np.float64, page_size: int = 4096
    ) -> "BrickStorage":
        """Mapping-capable allocation (the paper's ``mmap_alloc``): a
        :class:`~repro.vmem.MemfdArena`, which raises ``OSError`` where
        ``memfd_create`` / ``mmap(MAP_FIXED)`` are unavailable.
        """
        dtype = np.dtype(dtype)
        nbytes = nslots * brick_elems * dtype.itemsize
        return cls(MemfdArena(nbytes, page_size), nslots, brick_elems, dtype)

    # ------------------------------------------------------------------
    @property
    def can_map(self) -> bool:
        """True when stitched views can be built over this storage."""
        return not isinstance(self.arena, NumpyArena)

    def slot_range_bytes(self, start_slot: int, nslots: int) -> Tuple[int, int]:
        """Byte ``(offset, length)`` of a contiguous slot range."""
        if not 0 <= start_slot <= start_slot + nslots <= self.nslots:
            raise IndexError(
                f"slot range ({start_slot}, {nslots}) outside storage of"
                f" {self.nslots} slots"
            )
        return start_slot * self.brick_bytes, nslots * self.brick_bytes

    def slot_view(self, start_slot: int, nslots: int) -> np.ndarray:
        """Contiguous element view of a slot range (zero-copy)."""
        off, length = self.slot_range_bytes(start_slot, nslots)
        return self.data.reshape(-1)[
            start_slot * self.brick_elems : (start_slot + nslots) * self.brick_elems
        ]

    def slot_bytes(self, start_slot: int, nslots: int) -> np.ndarray:
        """Zero-copy ``uint8`` view of a slot range's raw bytes, routed
        through the arena (the checkpoint writer snapshots arena content
        directly)."""
        off, length = self.slot_range_bytes(start_slot, nslots)
        return self.arena.read_bytes(off, length)

    def load_slot_bytes(self, start_slot: int, nslots: int, data) -> None:
        """Overwrite a slot range with raw bytes (checkpoint restore)."""
        target = self.slot_bytes(start_slot, nslots)
        src = np.frombuffer(data, dtype=np.uint8)
        if src.nbytes != target.nbytes:
            raise ValueError(
                f"slot range ({start_slot}, {nslots}) is {target.nbytes}"
                f" bytes; got {src.nbytes}"
            )
        target[:] = src

    def make_view(self, chunks: Sequence[Tuple[int, int]]):
        """Stitch page-aligned byte ranges into a contiguous view."""
        return self.arena.make_view(chunks)

    def fill(self, value: float) -> None:
        self.data[:] = value

    def close(self) -> None:
        self.arena.close()
