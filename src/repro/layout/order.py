"""Region orders (layouts) shipped with the library.

The paper's library exposes the optimized layouts as constants
(``surface2d`` in Figure 3, ``surface3d`` referenced in Section 3.3); we do
the same.  ``SURFACE2D`` is the perimeter ring order, proven optimal
(9 messages) by exhaustive search (:func:`repro.layout.search.
exhaustive_best_order`).  ``SURFACE3D`` attains the Eq. 1 bound of 42
messages; it was produced by the packaged annealing search
(``anneal_order(3, seed=0, target=42)``) and is re-verified by the test
suite.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.layout.messages import messages_for_order
from repro.layout.regions import all_regions
from repro.util.bitset import BitSet

__all__ = [
    "SURFACE1D",
    "SURFACE2D",
    "SURFACE3D",
    "check_order",
    "lexicographic_order",
    "basic_order",
    "grouped_order",
    "surface_order",
    "validate_order",
]


def _from_vectors(vectors) -> List[BitSet]:
    return [BitSet.from_vector(v) for v in vectors]


#: Optimal 1-D layout: two regions, two messages (trivially optimal).
SURFACE1D: List[BitSet] = _from_vectors([(-1,), (1,)])

#: Optimal 2-D layout: walk the perimeter -- corner, edge, corner, ... --
#: so that each edge-neighbor's three regions are consecutive.  9 messages
#: for 8 neighbors (Eq. 1).  Equivalent (up to rotation/reflection) to the
#: paper's Figure 3 ``surface2d``.
SURFACE2D: List[BitSet] = _from_vectors(
    [
        (-1, -1),
        (0, -1),
        (1, -1),
        (1, 0),
        (1, 1),
        (0, 1),
        (-1, 1),
        (-1, 0),
    ]
)

#: Optimal 3-D layout: 42 messages for 26 neighbors (Eq. 1), the constant
#: the paper calls ``surface3d``.  Found by ``anneal_order(3, seed=0,
#: restarts=20, iters=8000, target=42)``.
SURFACE3D: List[BitSet] = _from_vectors(
    [
        (0, 0, -1),
        (0, -1, -1),
        (1, -1, -1),
        (1, 0, -1),
        (1, 1, -1),
        (0, 1, -1),
        (-1, 1, -1),
        (-1, 0, -1),
        (-1, -1, -1),
        (-1, -1, 0),
        (-1, -1, 1),
        (-1, 0, 1),
        (-1, 0, 0),
        (-1, 1, 0),
        (-1, 1, 1),
        (0, 1, 1),
        (0, 1, 0),
        (1, 1, 0),
        (1, 1, 1),
        (1, 0, 1),
        (1, -1, 1),
        (1, -1, 0),
        (1, 0, 0),
        (0, 0, 1),
        (0, -1, 1),
        (0, -1, 0),
    ]
)

_OPTIMAL = {1: SURFACE1D, 2: SURFACE2D, 3: SURFACE3D}


def lexicographic_order(ndim: int) -> List[BitSet]:
    """Regions in direction-vector lexicographic order (axis 1 fastest).

    For 2-D this reproduces the Figure 2(L) numbering (regions 1-8), which
    needs 12 messages -- better than Basic's 16 but short of the optimum.
    """
    return all_regions(ndim)


def basic_order(ndim: int) -> List[BitSet]:
    """Any region order works for the Basic scheme (each region is its own
    message, so relative order is irrelevant); we use lexicographic."""
    return all_regions(ndim)


def grouped_order(ndim: int) -> List[BitSet]:
    """A cheap deterministic heuristic: sort regions by the number of
    constrained axes, then lexicographically.  Groups faces first, then
    edges, then corners; used as an ablation point between lexicographic
    and optimal orders."""
    return sorted(all_regions(ndim), key=lambda r: (len(r), r.to_vector(ndim)))


def surface_order(ndim: int) -> List[BitSet]:
    """The best packaged order for *ndim* (optimal for D <= 3)."""
    try:
        return list(_OPTIMAL[ndim])
    except KeyError:
        raise ValueError(
            f"no packaged optimal order for D={ndim}; run"
            " repro.layout.search.anneal_order"
        ) from None


def validate_order(order: Sequence[BitSet], ndim: int) -> int:
    """Check *order* is a permutation of all regions; return its message
    count.  Raises ``ValueError`` on malformed layouts."""
    return messages_for_order(check_order(order, ndim), ndim)


def check_order(order: Sequence[BitSet], ndim: int) -> List[BitSet]:
    """*order* as a list, after checking it is a permutation of all
    regions.  Raises ``ValueError`` on malformed layouts."""
    expected = set(all_regions(ndim))
    got = list(order)
    if len(got) != len(expected) or set(got) != expected:
        raise ValueError(
            f"layout must be a permutation of the {len(expected)} regions"
            f" of a {ndim}-D subdomain"
        )
    return got
