"""Stencil specifications: taps, radius, the canonical accumulation
order, and roofline accounting.

A stencil is a list of ``(offset_vector, coefficient)`` taps.  Every
kernel -- the generic references and the compiled C -- sums a point the
same way, fixed here by :func:`tap_groups`:
taps whose coefficients are bit-for-bit equal form a group, groups come
in order of first appearance and members keep tap order, and a point's
value is ``acc = c0*s0`` then ``acc = acc + ck*sk`` per later group,
where ``sk`` is the left-to-right sum of group *k*'s loads.  A stencil
whose coefficients are all distinct has singleton groups -- one
multiply and one add per tap, in tap order.  The
roofline inputs (``flops_per_point``, ``bytes_per_point``) default to the
structural count (one multiply per tap, one add per extra tap; one read +
one write of 8 bytes per point under perfect cache reuse) but can be
overridden to match the paper's own accounting -- which we do for the two
experiment stencils so that modelled compute times use the paper's
arithmetic intensities of 8/16 and 139/16 flop/byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "StencilSpec",
    "tap_groups",
    "star_stencil",
    "cube_stencil",
    "SEVEN_POINT",
    "CUBE125",
    "TWENTY_FIVE_POINT_2D",
]

Offset = Tuple[int, ...]
Tap = Tuple[Offset, float]
#: ``(coefficient, member offsets in tap order)``
TapGroup = Tuple[float, Tuple[Offset, ...]]


def tap_groups(taps: Sequence[Tap]) -> Tuple[TapGroup, ...]:
    """The canonical accumulation order: *taps* grouped by coefficient.

    Coefficients are compared by bit pattern (``float.hex``), so ``0.0``
    and ``-0.0`` stay apart.  Groups come in order of their first tap,
    members in tap order.
    """
    groups: Dict[str, Tuple[float, list]] = {}
    for off, coeff in taps:
        groups.setdefault(float(coeff).hex(), (coeff, []))[1].append(off)
    return tuple((coeff, tuple(offs)) for coeff, offs in groups.values())


@dataclass(frozen=True)
class StencilSpec:
    """An explicit constant-coefficient stencil."""

    name: str
    ndim: int
    taps: Tuple[Tap, ...]
    flops_per_point: float
    bytes_per_point: float
    itemsize: int = 8

    def __post_init__(self) -> None:
        if not self.taps:
            raise ValueError("a stencil needs at least one tap")
        for off, _ in self.taps:
            if len(off) != self.ndim:
                raise ValueError(f"tap offset {off} is not {self.ndim}-dimensional")
        seen = {off for off, _ in self.taps}
        if len(seen) != len(self.taps):
            raise ValueError("duplicate tap offsets")

    @property
    def radius(self) -> int:
        """Chebyshev radius: how deep the stencil reads per axis."""
        return max(max(abs(o) for o in off) for off, _ in self.taps)

    @property
    def ntaps(self) -> int:
        return len(self.taps)

    @property
    def arithmetic_intensity(self) -> float:
        """Flop per byte of memory traffic (the paper's AI)."""
        return self.flops_per_point / self.bytes_per_point

    @cached_property
    def groups(self) -> Tuple[TapGroup, ...]:
        """The taps in the canonical accumulation order (:func:`tap_groups`)."""
        return tap_groups(self.taps)

    def coefficients(self) -> Dict[Tuple[int, ...], float]:
        return {off: c for off, c in self.taps}


def _structural_flops(ntaps: int) -> float:
    # one multiply per tap plus (ntaps - 1) adds
    return 2.0 * ntaps - 1.0


def star_stencil(
    ndim: int,
    radius: int = 1,
    coefficients: Optional[Sequence[float]] = None,
    name: Optional[str] = None,
    flops_per_point: Optional[float] = None,
    bytes_per_point: float = 16.0,
) -> StencilSpec:
    """Axis-aligned star: centre plus ``2 * ndim * radius`` arm points.

    *coefficients*, if given, lists ``1 + 2 * ndim * radius`` values:
    centre first, then per axis the -1..-radius and +1..+radius arms.
    """
    if ndim < 1 or radius < 1:
        raise ValueError("ndim and radius must be >= 1")
    offsets = [tuple([0] * ndim)]
    for axis in range(ndim):
        for sign in (-1, 1):
            for r in range(1, radius + 1):
                off = [0] * ndim
                off[axis] = sign * r
                offsets.append(tuple(off))
    if coefficients is None:
        # A diffusion-like default: dominant centre, symmetric arms.
        coefficients = [0.5] + [0.5 / (len(offsets) - 1)] * (len(offsets) - 1)
    if len(coefficients) != len(offsets):
        raise ValueError(
            f"need {len(offsets)} coefficients, got {len(coefficients)}"
        )
    taps = tuple((off, float(c)) for off, c in zip(offsets, coefficients))
    return StencilSpec(
        name or f"star{len(offsets)}pt-{ndim}d",
        ndim,
        taps,
        flops_per_point if flops_per_point is not None else _structural_flops(len(taps)),
        bytes_per_point,
    )


def cube_stencil(
    ndim: int,
    radius: int,
    name: Optional[str] = None,
    flops_per_point: Optional[float] = None,
    bytes_per_point: float = 16.0,
    seed: int = 1234,
) -> StencilSpec:
    """Dense cube stencil of side ``2 * radius + 1``.

    Coefficients are symmetric under coordinate reflection/permutation (as
    in the paper's 125-point stencil with 10 unique constants) and sum to
    one; generated deterministically from *seed*.
    """
    if ndim < 1 or radius < 1:
        raise ValueError("ndim and radius must be >= 1")
    rng = np.random.default_rng(seed)
    classes: Dict[Tuple[int, ...], float] = {}
    taps = []
    offsets = list(product(range(-radius, radius + 1), repeat=ndim))
    for off in offsets:
        key = tuple(sorted(abs(o) for o in off))
        if key not in classes:
            classes[key] = float(rng.uniform(0.1, 1.0))
        taps.append((tuple(off), classes[key]))
    total = sum(c for _, c in taps)
    taps = tuple((off, c / total) for off, c in taps)
    return StencilSpec(
        name or f"cube{len(taps)}pt-{ndim}d",
        ndim,
        taps,
        flops_per_point if flops_per_point is not None else _structural_flops(len(taps)),
        bytes_per_point,
    )


#: The paper's 7-point star (AI = 8/16 flop/byte).
SEVEN_POINT = star_stencil(
    3, 1, name="7pt", flops_per_point=8.0, bytes_per_point=16.0
)

#: The paper's 5^3 cube 125-point stencil, 10 unique symmetric constants
#: (AI = 139/16 flop/byte).
CUBE125 = cube_stencil(
    3, 2, name="125pt", flops_per_point=139.0, bytes_per_point=16.0
)

#: A 2-D example stencil used by documentation and low-dimension tests.
TWENTY_FIVE_POINT_2D = cube_stencil(2, 2, name="25pt-2d")
