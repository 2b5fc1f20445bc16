"""Fine-grained data blocking: the brick library (paper Section 6).

The domain (plus its ghost zone) is stored as fixed-size *bricks* -- e.g.
8x8x8 doubles -- laid out contiguously in a flat buffer
(:class:`BrickStorage`) in an order chosen freely per layout.  The logical
organisation lives in an adjacency list (:class:`BrickInfo`), so stencil
code is layout-agnostic: accesses that leave a brick resolve through the
adjacency to the right neighboring brick, wherever it physically lives.

:class:`BrickDecomp` decomposes one rank's subdomain into interior bricks,
surface regions (ordered by the communication layout) and ghost regions
(ordered so each neighbor's incoming messages land contiguously), and
allocates storage either plainly (``allocate`` -- Layout mode) or
memfd-backed with page-aligned regions (``mmap_alloc`` -- MemMap mode).
"""

from repro.brick.convert import bricks_to_extended, extended_to_bricks
from repro.brick.decomp import BrickDecomp, Section, SlotAssignment
from repro.brick.info import BrickInfo
from repro.brick.storage import BrickStorage

__all__ = [
    "BrickDecomp",
    "BrickInfo",
    "BrickStorage",
    "Section",
    "SlotAssignment",
    "bricks_to_extended",
    "extended_to_bricks",
]
