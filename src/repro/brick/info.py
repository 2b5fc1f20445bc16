"""BrickInfo: the logical organisation of bricks (adjacency list).

The brick library stores the logical neighbor relation of every brick in
an adjacency list (paper Section 6): entry ``adjacency[slot, dir]`` is the
physical slot of the brick one step in direction ``dir`` from ``slot``,
or ``-1`` when no such brick exists (outside the ghost shell, or a padding
slot).  Directions are all ``3^D`` vectors over ``{-1, 0, +1}`` indexed
lexicographically with axis 1 fastest; the centre index is the brick
itself.

Computation through :class:`BrickInfo` is *layout-agnostic*: kernels only
ever chase adjacency entries, so reordering bricks for communication does
not change any compute code (and, per Figure 10, not its performance
either).
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.brick.decomp import BrickDecomp, SlotAssignment

__all__ = ["BrickInfo", "direction_index", "all_direction_vectors"]


def all_direction_vectors(ndim: int) -> List[Tuple[int, ...]]:
    """All ``3^D`` direction vectors, lexicographic, axis 1 fastest."""
    out = []
    for rev in product((-1, 0, 1), repeat=ndim):
        out.append(tuple(reversed(rev)))
    return out


def direction_index(vec: Sequence[int]) -> int:
    """Index of a direction vector in :func:`all_direction_vectors` order."""
    idx = 0
    stride = 1
    for v in vec:
        if v not in (-1, 0, 1):
            raise ValueError(f"direction entries must be -1/0/+1, got {v}")
        idx += (v + 1) * stride
        stride *= 3
    return idx


class BrickInfo:
    """Adjacency metadata tying slots into the logical brick grid."""

    def __init__(
        self,
        ndim: int,
        brick_dim: Tuple[int, ...],
        adjacency: np.ndarray,
        nfields: int = 1,
    ) -> None:
        if adjacency.ndim != 2 or adjacency.shape[1] != 3**ndim:
            raise ValueError(
                f"adjacency must be (nslots, 3^{ndim}), got {adjacency.shape}"
            )
        self.ndim = ndim
        self.brick_dim = tuple(brick_dim)
        self.adjacency = adjacency
        self.nfields = nfields
        self.center_index = direction_index((0,) * ndim)

    @property
    def nslots(self) -> int:
        return self.adjacency.shape[0]

    @classmethod
    def from_assignment(
        cls, decomp: "BrickDecomp", assignment: "SlotAssignment"
    ) -> "BrickInfo":
        """Build adjacency from a slot assignment's grid index: every
        cell's ``3^D`` neighbourhood is one window of the grid index
        padded with a ``-1`` border, so one copy fills every row."""
        ndim = decomp.ndim
        grid_index = np.pad(assignment.grid_index, 1, constant_values=-1)
        # Window axes in numpy order (axis D first, axis 1 last): in C
        # order that is direction_index order, axis 1 fastest.
        windows = np.lib.stride_tricks.sliding_window_view(
            grid_index, (3,) * ndim
        ).reshape(-1, 3**ndim)
        adjacency = np.full((assignment.total_slots, 3**ndim), -1, dtype=np.int64)
        adjacency[assignment.grid_index.reshape(-1)] = windows
        # One table serves every rank of a run: readers only.
        adjacency.flags.writeable = False
        return cls(ndim, decomp.brick_dim, adjacency, decomp.nfields)

    def neighbor_slot(self, slot: int, vec: Sequence[int]) -> int:
        """Physical slot one step in direction *vec* from *slot* (-1: none)."""
        return int(self.adjacency[slot, direction_index(vec)])
