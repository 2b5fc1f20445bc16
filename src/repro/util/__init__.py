"""Shared utilities: direction-set notation, index math, timing, statistics.

These helpers are deliberately dependency-light; every other subpackage in
:mod:`repro` builds on them.
"""

from repro.util.bitset import BitSet
from repro.util.indexing import (
    ceil_div,
    lexicographic_coords,
    unravel_index,
)
from repro.util.stats import MinAvgMax, summarize
from repro.util.timing import TimeBreakdown

__all__ = [
    "BitSet",
    "MinAvgMax",
    "TimeBreakdown",
    "ceil_div",
    "lexicographic_coords",
    "summarize",
    "unravel_index",
]
