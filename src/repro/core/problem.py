"""Distributed stencil problem definition.

A :class:`StencilProblem` is the paper's experimental unit: a periodic
global domain evenly decomposed over a Cartesian grid of ranks, a stencil,
a brick size and a ghost width (a brick multiple, per ghost-cell
expansion).  It knows how to slice the global initial condition into rank
subdomains and how dimensions relate -- everything the drivers need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.brick.decomp import BrickDecomp
from repro.layout.order import surface_order, validate_order
from repro.stencil.spec import StencilSpec
from repro.util.bitset import BitSet

__all__ = ["StencilProblem"]


@dataclass
class StencilProblem:
    """A periodic global stencil domain decomposed over ranks."""

    global_extent: Tuple[int, ...]
    rank_dims: Tuple[int, ...]
    stencil: StencilSpec
    brick_dim: Tuple[int, ...] = (8, 8, 8)
    ghost: int = 8
    layout: Optional[Sequence[BitSet]] = None
    dtype: np.dtype = np.float64
    #: Periodic wrap per the paper's experiments; set False for open
    #: boundaries (boundary ghost zones are left to the application's
    #: boundary conditions and simply not exchanged).
    periodic: bool = True

    def __post_init__(self) -> None:
        self.global_extent = tuple(int(e) for e in self.global_extent)
        self.rank_dims = tuple(int(d) for d in self.rank_dims)
        if isinstance(self.brick_dim, int):
            self.brick_dim = (self.brick_dim,) * self.ndim
        self.brick_dim = tuple(int(b) for b in self.brick_dim)
        self.dtype = np.dtype(self.dtype)
        if len(self.rank_dims) != self.ndim or len(self.brick_dim) != self.ndim:
            raise ValueError("rank_dims/brick_dim dimensionality mismatch")
        if self.stencil.ndim != self.ndim:
            raise ValueError(
                f"stencil is {self.stencil.ndim}-D, domain is {self.ndim}-D"
            )
        for e, d in zip(self.global_extent, self.rank_dims):
            if d <= 0 or e % d:
                raise ValueError(
                    f"rank grid {self.rank_dims} must evenly divide the"
                    f" global extent {self.global_extent}"
                )
        for s, b in zip(self.subdomain_extent, self.brick_dim):
            if b <= 0 or s % b:
                raise ValueError(
                    f"bricks {self.brick_dim} must divide the subdomain"
                    f" {self.subdomain_extent}"
                )
        if self.ghost <= 0 or any(self.ghost % b for b in self.brick_dim):
            raise ValueError(
                f"ghost width {self.ghost} must be a positive multiple of"
                f" the brick dims {self.brick_dim} (use ghost-cell expansion)"
            )
        if self.stencil.radius > self.ghost:
            raise ValueError(
                f"stencil radius {self.stencil.radius} exceeds the ghost"
                f" width {self.ghost}"
            )
        if self.layout is None:
            self.layout = surface_order(self.ndim)
        else:
            self.layout = list(self.layout)
        validate_order(self.layout, self.ndim)

    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.global_extent)

    @property
    def nranks(self) -> int:
        return math.prod(self.rank_dims)

    @property
    def subdomain_extent(self) -> Tuple[int, ...]:
        return tuple(
            e // d for e, d in zip(self.global_extent, self.rank_dims)
        )

    @property
    def points_per_rank(self) -> int:
        return math.prod(self.subdomain_extent)

    @property
    def global_points(self) -> int:
        return math.prod(self.global_extent)

    def brick_decomp(self) -> BrickDecomp:
        """The brick decomposition of one rank's subdomain."""
        return BrickDecomp(
            self.subdomain_extent, self.brick_dim, self.ghost, self.layout,
            self.dtype,
        )

    # ------------------------------------------------------------------
    def initial_global(self, seed: int = 0) -> np.ndarray:
        """Deterministic global initial condition (numpy axis order)."""
        rng = np.random.default_rng(seed)
        shape = tuple(reversed(self.global_extent))
        return rng.random(shape, dtype=np.float64).astype(self.dtype)

    def owned_slices(self, coords: Sequence[int]) -> Tuple[slice, ...]:
        """Slices of the global array owned by the rank at *coords*
        (coords in axis order 1..D; slices in numpy order)."""
        sub = self.subdomain_extent
        lo = [c * s for c, s in zip(coords, sub)]
        return tuple(
            slice(l, l + s) for l, s in zip(reversed(lo), reversed(sub))
        )
