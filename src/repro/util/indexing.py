"""Small index-arithmetic helpers shared by the brick and layout machinery.

All multi-dimensional coordinates in :mod:`repro` are ordered
``(c_1, c_2, ..., c_D)`` where axis 1 is the *fastest varying* (unit-stride)
axis, matching the paper's ``i-j-k`` convention for lexicographic layouts.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence, Tuple

__all__ = [
    "ceil_div",
    "lexicographic_coords",
    "unravel_index",
    "strides_for",
]


def ceil_div(a: int, b: int) -> int:
    """Ceiling integer division for non-negative *a* and positive *b*."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    return -(-a // b)


def strides_for(extent: Sequence[int]) -> Tuple[int, ...]:
    """Linear strides with axis 1 (index 0) fastest varying."""
    strides = []
    acc = 1
    for e in extent:
        strides.append(acc)
        acc *= e
    return tuple(strides)


def unravel_index(index: int, extent: Sequence[int]) -> Tuple[int, ...]:
    """Coordinate of linear *index* within a box of *extent* (axis 1
    fastest)."""
    total = 1
    for e in extent:
        total *= e
    if not 0 <= index < total:
        raise IndexError(f"index {index} outside extent {tuple(extent)}")
    coord = []
    for e in extent:
        coord.append(index % e)
        index //= e
    return tuple(coord)


def lexicographic_coords(extent: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """All coordinates of a box in linear-index order (axis 1 fastest)."""
    # itertools.product varies the *last* factor fastest, so feed axes
    # reversed and flip each produced tuple.
    for rev in product(*(range(e) for e in reversed(extent))):
        yield tuple(reversed(rev))
