"""Direction-set notation for surface/ghost regions and neighbors.

The paper (Section 3.1) identifies every surface region, ghost region and
neighbor of a ``D``-dimensional subdomain by a set of *signed axes*: axis
``i`` (1-based) appears as ``+i`` for the positive direction (up/right/front)
or ``-i`` for the negative direction.  For example the north-east neighbor of
a 2-D subdomain is ``N({A1+, A2+})`` which we write ``BitSet([1, 2])``, and
the left-edge surface region is ``r({A1-})`` = ``BitSet([-1])``.

A :class:`BitSet` is an immutable, hashable set of non-zero integers with at
most one entry per axis.  It converts to and from *direction vectors*
(``D``-tuples over ``{-1, 0, +1}``), which is the representation the
decomposition code uses internally.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

__all__ = ["BitSet"]


class BitSet:
    """Immutable set of signed axis directions, e.g. ``{A1-, A2+}``.

    Parameters
    ----------
    elements:
        Iterable of non-zero integers.  ``+i`` selects the positive direction
        of axis ``i`` (1-based), ``-i`` the negative direction.  Supplying
        both ``+i`` and ``-i`` is an error: a region lies on one side of an
        axis only.
    """

    __slots__ = ("_elems",)

    def __init__(self, elements: Iterable[int] = ()):
        elems = frozenset(int(e) for e in elements)
        if 0 in elems:
            raise ValueError("BitSet elements must be non-zero signed axes")
        axes = [abs(e) for e in elems]
        if len(axes) != len(set(axes)):
            raise ValueError(
                f"BitSet may contain at most one direction per axis: {sorted(elems)}"
            )
        self._elems = elems

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_vector(cls, vec: Sequence[int]) -> "BitSet":
        """Build from a direction vector over ``{-1, 0, +1}``.

        ``vec[i] == +1`` contributes ``+(i+1)``; ``-1`` contributes
        ``-(i+1)``; ``0`` contributes nothing.
        """
        elems = []
        for i, v in enumerate(vec):
            if v not in (-1, 0, 1):
                raise ValueError(f"direction vector entries must be -1/0/+1, got {v}")
            if v:
                elems.append(v * (i + 1))
        return cls(elems)

    def to_vector(self, ndim: int) -> Tuple[int, ...]:
        """Direction vector of length *ndim* over ``{-1, 0, +1}``."""
        vec = [0] * ndim
        for e in self._elems:
            if abs(e) > ndim:
                raise ValueError(f"{self} does not fit in {ndim} dimensions")
            vec[abs(e) - 1] = 1 if e > 0 else -1
        return tuple(vec)

    # ------------------------------------------------------------------
    # Set behaviour
    # ------------------------------------------------------------------
    def __contains__(self, item: int) -> bool:
        return int(item) in self._elems

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._elems, key=abs))

    def __len__(self) -> int:
        return len(self._elems)

    def __bool__(self) -> bool:
        return bool(self._elems)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BitSet):
            return self._elems == other._elems
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._elems)

    def issubset(self, other: "BitSet") -> bool:
        """True if every signed axis of *self* also appears in *other*.

        Region ``r(S)`` is sent to neighbor ``N(T)`` exactly when
        ``T.issubset(S)`` and ``T`` is non-empty (paper, Section 2).
        """
        return self._elems <= other._elems

    def issuperset(self, other: "BitSet") -> bool:
        return self._elems >= other._elems

    def union(self, other: "BitSet") -> "BitSet":
        return BitSet(self._elems | other._elems)

    def intersection(self, other: "BitSet") -> "BitSet":
        return BitSet(self._elems & other._elems)

    # ------------------------------------------------------------------
    # Domain helpers
    # ------------------------------------------------------------------
    def axes(self) -> Tuple[int, ...]:
        """The (1-based, unsigned) axes this set constrains, sorted."""
        return tuple(sorted(abs(e) for e in self._elems))

    def direction(self, axis: int) -> int:
        """-1, 0 or +1: the direction of *axis* (1-based) in this set."""
        if axis in self._elems:
            return 1
        if -axis in self._elems:
            return -1
        return 0

    def opposite(self) -> "BitSet":
        """Mirror every direction: the neighbor's view of this set."""
        return BitSet(-e for e in self._elems)

    def covers_neighbor(self, neighbor: "BitSet") -> bool:
        """True if surface region ``r(self)`` is sent to ``N(neighbor)``."""
        return bool(neighbor) and neighbor.issubset(self)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        inner = ", ".join(str(e) for e in self)
        return f"BitSet({{{inner}}})" if self._elems else "BitSet({})"

    def notation(self) -> str:
        """Paper-style notation, e.g. ``{A1-, A2+}``."""
        parts = [f"A{abs(e)}{'+' if e > 0 else '-'}" for e in self]
        return "{" + ", ".join(parts) + "}"
