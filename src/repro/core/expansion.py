"""Ghost-cell expansion: communication-avoiding timestepping.

With a ghost zone ``g`` elements wide and a stencil of radius ``r``, one
exchange validates the whole shell; each subsequent step can *redundantly
compute* into the shrinking valid region instead of communicating
(Ding & He, the paper's reference [7]).  The exchange frequency drops by
the cycle period at the cost of redundant computation -- exactly the
trade the paper quantifies when it charges "any redundant computation
necessary for communication avoiding" to ``Comp``.

Two granularities:

* **element** (lexicographic arrays): validity shrinks by ``r`` elements
  per step, giving the full period ``floor(g / r)``.
* **brick** (blocked storage): only whole bricks are computed, so the
  valid depth snaps down to brick multiples and the period is shorter --
  the brick-size/ghost-width trade the D3/D4 ablations explore.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.brick.decomp import BrickDecomp, SlotAssignment
from repro.core.methods import method_info

__all__ = [
    "element_validity_schedule",
    "element_cycle_margins",
    "brick_validity_schedule",
    "brick_cycle_depths",
    "brick_cycle_slots",
    "cycle_period",
    "depths_for_period",
    "margins_for_period",
    "open_faces",
    "resolve_period",
]


def element_validity_schedule(ghost: int, radius: int) -> List[int]:
    """Valid ghost depth (elements) before each cycle step, element
    granularity: ``g, g-r, g-2r, ...`` while at least ``r`` remains."""
    _check(ghost, radius)
    out = []
    valid = ghost
    while valid >= radius:
        out.append(valid)
        valid -= radius
    return out


def element_cycle_margins(ghost: int, radius: int) -> List[int]:
    """How far beyond the owned region step ``s`` may compute
    (elements): ``valid(s) - r``."""
    return [v - radius for v in element_validity_schedule(ghost, radius)]


def brick_validity_schedule(ghost: int, brick_dim: int, radius: int) -> List[int]:
    """Valid ghost depth before each cycle step, brick granularity.

    After a step, only whole computed bricks are trustworthy, so the
    valid depth snaps down: ``valid' = floor((valid - r) / bd) * bd``.
    """
    _check(ghost, radius)
    if brick_dim <= 0:
        raise ValueError("brick_dim must be positive")
    out = []
    valid = ghost
    while valid >= radius:
        out.append(valid)
        valid = (valid - radius) // brick_dim * brick_dim
        if out and valid >= out[-1]:  # pragma: no cover - defensive
            raise AssertionError("validity must strictly decrease")
    return out


def brick_cycle_depths(ghost: int, brick_dim: int, radius: int) -> List[int]:
    """Max ghost *brick depth* computable at each cycle step.

    Depth 0 = owned bricks only; depth d additionally computes ghost
    bricks whose Chebyshev brick distance from the owned box is <= d.
    A depth-d brick's outermost element sits ``d * bd`` deep, and its
    halo needs ``d * bd + r`` of valid shell.
    """
    out = []
    for valid in brick_validity_schedule(ghost, brick_dim, radius):
        out.append(max(0, (valid - radius) // brick_dim))
    return out


def cycle_period(ghost: int, radius: int, brick_dim: int = 0) -> int:
    """Steps per exchange: element granularity if ``brick_dim`` is 0."""
    if brick_dim:
        return len(brick_validity_schedule(ghost, brick_dim, radius))
    return len(element_validity_schedule(ghost, radius))


def resolve_period(problem, method: str, requested) -> int:
    """The exchange period a run of *method* on *problem* uses.

    ``None``/1 exchange every step, ``"auto"`` uses everything the ghost
    width supports -- brick granularity for brick methods, element
    granularity otherwise -- and an explicit period is validated
    against that.
    """
    if method_info(method).uses_bricks:
        available, granularity = problem.ghost // problem.brick_dim[0], "brick"
    else:
        available, granularity = problem.ghost // problem.stencil.radius, "element"
    if requested in (None, 1):
        return 1
    if requested == "auto":
        return available
    period = int(requested)
    if period < 1:
        raise ValueError("exchange_period must be >= 1")
    if period > available:
        raise ValueError(
            f"exchange_period {period} exceeds the {available} step(s) the"
            f" ghost width supports at {granularity} granularity; widen the"
            " ghost zone (ghost-cell expansion)"
        )
    return period


def margins_for_period(period: int, radius: int, ghost: int) -> List[int]:
    """Element margins per cycle step for a chosen *period*.

    Step ``s`` must leave ``period - 1 - s`` more steps computable, so it
    computes ``(period - 1 - s) * radius`` elements beyond the owned box.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    if (period - 1) * radius + radius > ghost:
        raise ValueError(
            f"period {period} needs {period * radius} of ghost, have {ghost}"
        )
    return [(period - 1 - s) * radius for s in range(period)]


def open_faces(problem, coords) -> List[Tuple[bool, bool]]:
    """Per axis, whether the rank at *coords* has no neighbour below /
    above it.  Ghosts beyond such a face hold the application's
    boundary condition: no step computes into them, so every exchange
    period gives the answer of period 1."""
    if problem.periodic:
        return [(False, False)] * problem.ndim
    return [(c == 0, c == n - 1) for c, n in zip(coords, problem.rank_dims)]


def depths_for_period(period: int, width: int) -> List[int]:
    """Brick depths per cycle step for a chosen *period* (max = width)."""
    if period < 1:
        raise ValueError("period must be >= 1")
    if period > width:
        raise ValueError(
            f"period {period} exceeds the ghost width of {width} bricks"
        )
    return [period - 1 - s for s in range(period)]


def brick_cycle_slots(
    decomp: BrickDecomp,
    assignment: SlotAssignment,
    radius: int,
    depths: List[int] = None,
    faces: Sequence[Tuple[bool, bool]] = (),
) -> List[np.ndarray]:
    """Per-cycle-step compute slot lists for brick storage.

    Entry ``s`` lists every brick to compute at cycle step ``s``: the
    owned bricks plus all ghost bricks within the step's allowed depth,
    except those beyond an open face (*faces*, per axis, as
    :func:`open_faces`).  ``len(result)`` is the exchange period.
    *depths* defaults to the maximum schedule :func:`brick_cycle_depths`
    allows.
    """
    if depths is None:
        depths = brick_cycle_depths(
            decomp.ghost_elems, decomp.brick_dim[0], radius
        )
    coords = assignment.slot_coords  # (total, ndim), sentinel for padding
    sentinel = np.iinfo(np.int32).min
    valid_slot = coords[:, 0] != sentinel
    # Chebyshev brick depth beyond the owned box, per slot.
    depth = np.zeros(assignment.total_slots, dtype=np.int64)
    for axis in range(decomp.ndim):
        c = coords[:, axis]
        n = decomp.grid[axis]
        depth = np.maximum(depth, np.maximum(-c, c - (n - 1)))
    for axis, (below, above) in enumerate(faces):
        c = coords[:, axis]
        if below:
            valid_slot &= c >= 0
        if above:
            valid_slot &= c < decomp.grid[axis]
    slots_per_step = []
    for d in depths:
        mask = valid_slot & (depth <= d)
        slots_per_step.append(np.nonzero(mask)[0])
    return slots_per_step


def _check(ghost: int, radius: int) -> None:
    if ghost <= 0 or radius <= 0:
        raise ValueError("ghost and radius must be positive")
    if radius > ghost:
        raise ValueError(
            f"stencil radius {radius} exceeds the ghost width {ghost}"
        )
