"""Message specs and the array schemes' schedules.

A :class:`MessageSpec` is one message as the cost models see it: sizes
and segment structure, no storage.  The array schemes' schedules are
pure arithmetic on the subdomain extent and ghost width:
:func:`array_schedule` (Pack, MPI_Types), which their template
(``exchange/boxes.py``) calls; the brick schemes' templates (``exchange/layout_ex.py``,
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

__all__ = ["MessageSpec", "array_schedule"]


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
