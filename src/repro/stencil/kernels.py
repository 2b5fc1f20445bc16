"""Vectorized stencil application on lexicographic extended arrays.

The extended array covers the subdomain plus its ghost shell; the stencil
is applied to every *owned* point (the subdomain proper), reading up to
``radius`` elements into the ghost shell, which must have been filled by a
prior exchange.  Pure NumPy slicing -- no Python-level loops over grid
points (the guide's vectorization idiom).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.stencil.spec import StencilSpec, group_terms

__all__ = ["apply_array_stencil", "owned_slices"]


def owned_slices(extent: Sequence[int], ghost: int) -> Tuple[slice, ...]:
    """Numpy slices selecting the owned region of an extended array.

    *extent* is in axis order (axis 1 first); the returned slices are in
    numpy order (axis D first).
    """
    return tuple(slice(ghost, ghost + e) for e in reversed(extent))


def apply_array_stencil(
    arr: np.ndarray,
    out: np.ndarray,
    spec: StencilSpec,
    extent: Sequence[int],
    ghost: int,
    margin: int = 0,
) -> None:
    """``out[region] = sum_t c_t * arr[region + offset_t]``, summed in
    the canonical order of :attr:`StencilSpec.groups` (x pairs first:
    :func:`~repro.stencil.spec.group_terms`).

    *arr* and *out* are extended arrays of identical shape; the computed
    region is the owned box grown by *margin* elements per side (margin 0
    = owned only; margin > 0 computes redundantly into the ghost shell
    for communication avoidance, and requires ``margin + radius`` of
    valid ghost data).  Tap offsets are in axis order (axis 1 first) and
    are applied to the matching numpy axes (reversed).
    """
    if arr.shape != out.shape:
        raise ValueError("arr and out must have the same extended shape")
    if spec.ndim != len(extent):
        raise ValueError(
            f"stencil is {spec.ndim}-D but the domain is {len(extent)}-D"
        )
    if margin < 0:
        raise ValueError("margin cannot be negative")
    if spec.radius + margin > ghost:
        raise ValueError(
            f"stencil radius {spec.radius} plus margin {margin} exceeds"
            f" ghost width {ghost}"
        )
    expected = tuple(e + 2 * ghost for e in reversed(extent))
    if arr.shape != expected:
        raise ValueError(f"expected extended shape {expected}, got {arr.shape}")

    lo = ghost - margin

    def window(off):
        return arr[tuple(
            slice(lo + o, lo + o + e + 2 * margin)
            for o, e in zip(reversed(off), reversed(extent))
        )]

    acc: Optional[np.ndarray] = None
    for coeff, offsets in spec.groups:
        total: Optional[np.ndarray] = None
        for term in group_terms(offsets):
            summand = window(term[0])
            for off in term[1:]:
                summand = summand + window(off)
            total = summand if total is None else total + summand
        term = coeff * total
        acc = term if acc is None else acc + term
    region = tuple(
        slice(lo, lo + e + 2 * margin) for e in reversed(extent)
    )
    out[region] = acc
