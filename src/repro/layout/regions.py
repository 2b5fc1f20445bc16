"""Enumeration of surface/ghost regions and neighbors.

Regions and neighbors share the same name space: the non-empty direction
sets over ``D`` axes (``3^D - 1`` of them).  The fundamental send relation
(paper Section 2, Figure 2) is::

    r(S) is sent to N(T)   iff   {} != T is a subset of S

e.g. in 2-D the corner region ``r({A1-, A2-})`` goes to three neighbors
(``{A1-}``, ``{A2-}`` and ``{A1-, A2-}``) while the edge-interior region
``r({A1-})`` goes only to ``N({A1-})``.
"""

from __future__ import annotations

from itertools import product
from typing import List, Tuple

from repro.util.bitset import BitSet

__all__ = [
    "all_regions",
    "all_neighbors",
    "receiving_neighbors",
    "region_brick_extent",
]


def all_regions(ndim: int) -> List[BitSet]:
    """All ``3^D - 1`` non-empty direction sets, in lexicographic
    direction-vector order (axis 1 fastest, -1 < 0 < +1)."""
    if ndim < 1:
        raise ValueError("ndim must be >= 1")
    out = []
    for rev in product((-1, 0, 1), repeat=ndim):
        vec = tuple(reversed(rev))
        if any(vec):
            out.append(BitSet.from_vector(vec))
    return out


def all_neighbors(ndim: int) -> List[BitSet]:
    """Neighbors are named exactly like regions (``3^D - 1`` of them)."""
    return all_regions(ndim)


def receiving_neighbors(region: BitSet) -> List[BitSet]:
    """Every neighbor that must receive surface region ``r(region)``.

    These are the non-empty subsets of *region*'s direction set:
    ``2^|region| - 1`` neighbors.
    """
    elems = list(region)
    if not elems:
        raise ValueError("the empty set names the interior, not a region")
    out = []
    for mask in range(1, 1 << len(elems)):
        out.append(BitSet(e for i, e in enumerate(elems) if mask >> i & 1))
    return out


def region_brick_extent(
    region: BitSet, grid: Tuple[int, ...], width: int = 1
) -> Tuple[int, ...]:
    """Brick-grid extent of surface region ``r(region)``.

    *grid* is the subdomain's brick-grid shape (interior + surface) and
    *width* the surface thickness in bricks.  Axes constrained by *region*
    contribute *width*; free axes contribute the interior span
    ``grid[i] - 2 * width``.  A closed form the tests hold the slot
    assignment's sections to; no schedule is derived from it.
    """
    vec = region.to_vector(len(grid))
    extent = []
    for g, v in zip(grid, vec):
        if g < 2 * width:
            raise ValueError(
                f"grid extent {g} too small for surface width {width} bricks"
            )
        extent.append(width if v else g - 2 * width)
    return tuple(extent)
