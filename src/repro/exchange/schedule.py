"""Message specs and the array schemes' schedules.

A :class:`MessageSpec` is one message as the cost models see it: sizes
and segment structure, no storage.  The array schemes' schedules are
pure arithmetic on the subdomain extent and ghost width:
:func:`array_schedule` (Pack, MPI_Types) and :func:`shift_schedule`
(Shift).  Their templates (``exchange/boxes.py``, ``exchange/shift.py``)
call them; the brick schemes' templates (``exchange/layout_ex.py``,
``exchange/memmap_ex.py``) derive their specs
from a decomposition's slot assignment.  Those templates are the only
schedules: the any-scale model prices them too
(:mod:`repro.core.model`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.layout.regions import all_regions
from repro.util.bitset import BitSet
from repro.faults.errors import ExchangeConfigError

__all__ = ["MessageSpec", "array_schedule", "shift_schedule"]


@dataclass(frozen=True)
class MessageSpec:
    """One message of an exchange, as the cost models see it.

    ``payload_bytes`` is useful data; ``wire_bytes`` includes MemMap page
    padding.  ``nsegments``/``run_elems`` describe the memory layout of
    the *source* region (for pack and datatype-engine costs).
    ``nmappings`` counts the stitched-view chunks behind the message
    (MemMap only; 1 otherwise -- a plain pointer).
    """

    neighbor: BitSet
    payload_bytes: int
    wire_bytes: int
    nsegments: int = 1
    run_elems: int = 0
    nmappings: int = 1

    def __post_init__(self) -> None:
        if self.payload_bytes < 0 or self.wire_bytes < self.payload_bytes:
            raise ExchangeConfigError("wire size must be at least the payload size")


def shift_schedule(
    extent: Sequence[int], ghost: int, itemsize: int = 8
) -> List[List[MessageSpec]]:
    """Shift-mode sends, one phase per dimension (``2D`` messages total).

    Phase ``d`` exchanges bands of width ``ghost`` along axis ``d`` whose
    other axes span the *extended* range for already-exchanged axes
    (corner forwarding) and the owned range otherwise.  Phases serialize.
    """
    extent = tuple(int(e) for e in extent)
    ndim = len(extent)
    if ghost <= 0:
        raise ExchangeConfigError("ghost width must be positive")
    ext_shape = tuple(e + 2 * ghost for e in extent)
    phases: List[List[MessageSpec]] = []
    for axis in range(ndim):
        phase: List[MessageSpec] = []
        for sign in (-1, 1):
            sub = []
            for a, e in enumerate(extent):
                if a < axis:
                    sub.append(e + 2 * ghost)
                elif a == axis:
                    sub.append(ghost)
                else:
                    sub.append(e)
            count = math.prod(sub)
            run = 1
            for a in range(ndim):
                run *= sub[a]
                if sub[a] != ext_shape[a]:
                    break
            vec = [0] * ndim
            vec[axis] = sign
            phase.append(
                MessageSpec(
                    BitSet.from_vector(vec),
                    payload_bytes=count * itemsize,
                    wire_bytes=count * itemsize,
                    nsegments=max(1, count // run),
                    run_elems=run,
                )
            )
        phases.append(phase)
    return phases


def array_schedule(
    extent: Sequence[int], ghost: int, itemsize: int = 8
) -> List[MessageSpec]:
    """Pack / MPI_Types sends on a lexicographic array: one box per
    neighbor.

    Segment structure: the contiguous run of a box is the product of
    trailing axes the box spans fully (axis 1 innermost); the surface
    bands never span the extended axis, so runs are short on axis-1-normal
    faces (the "strided" pattern packing suffers from).
    """
    extent = tuple(int(e) for e in extent)
    ndim = len(extent)
    if ghost <= 0:
        raise ExchangeConfigError("ghost width must be positive")
    ext_shape = tuple(e + 2 * ghost for e in extent)  # axis order 1..D
    out: List[MessageSpec] = []
    for neighbor in all_regions(ndim):
        vec = neighbor.to_vector(ndim)
        sub = tuple(ghost if v else e for v, e in zip(vec, extent))
        count = math.prod(sub)
        if count == 0:
            continue
        # contiguous run: trailing full axes in numpy order = leading axes
        # in axis-1-first order.
        run = 1
        for axis in range(ndim):
            run *= sub[axis]
            if sub[axis] != ext_shape[axis]:
                break
        nbytes = count * itemsize
        out.append(
            MessageSpec(
                neighbor,
                payload_bytes=nbytes,
                wire_bytes=nbytes,
                nsegments=max(1, count // run),
                run_elems=run,
            )
        )
    return out
