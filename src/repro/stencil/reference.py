"""Reference implementation: global periodic-domain stencil via np.roll.

The oracle for every distributed test: apply the stencil to the *entire*
global domain with periodic boundary conditions, with no decomposition, no
ghost zones and no communication.  ``np.roll`` implements the periodic
shifts exactly, so any exchange + local-compute pipeline must reproduce
this bit-for-bit (same dtype, same canonical accumulation order:
:attr:`StencilSpec.groups`, each coefficient's shifted grids summed
before the one multiply).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.stencil.spec import StencilSpec

__all__ = ["apply_periodic_reference"]


def _shifted(grid: np.ndarray, off) -> np.ndarray:
    """A new array: *grid* read at tap offset *off* (axis order)."""
    return np.roll(
        grid, shift=tuple(-o for o in reversed(off)), axis=tuple(range(grid.ndim))
    )


def apply_periodic_reference(
    grid: np.ndarray, spec: StencilSpec, steps: int = 1
) -> np.ndarray:
    """Apply *spec* to the global periodic *grid* for *steps* timesteps.

    *grid* is in numpy axis order (axis D first, axis 1 last/fastest); tap
    offsets are in axis order (axis 1 first) and are mapped accordingly.
    A positive tap offset reads the neighbor in the positive direction,
    i.e. contributes ``roll(grid, -offset)``.
    """
    if grid.ndim != spec.ndim:
        raise ValueError(f"grid is {grid.ndim}-D, stencil is {spec.ndim}-D")
    if steps < 0:
        raise ValueError("steps cannot be negative")
    cur = grid.astype(np.float64, copy=True)
    for _ in range(steps):
        # In place on the fresh rolled grids (same bits as ``acc + c *
        # (a + b)``): four global-size arrays live at a time.
        acc: Optional[np.ndarray] = None
        for coeff, offsets in spec.groups:
            total = _shifted(cur, offsets[0])
            for off in offsets[1:]:
                total += _shifted(cur, off)
            total *= coeff
            if acc is None:
                acc = total
            else:
                acc += total
        cur = acc
    return cur
