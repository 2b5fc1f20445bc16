"""The per-timestep time breakdown.

Two notions of time coexist in this reproduction (see DESIGN.md Section 6):

* *measured* wall-clock seconds, which the run loop charges around the
  real in-process kernel step, and
* *modelled* virtual seconds, accumulated by the hardware cost models.

Both use the same :class:`TimeBreakdown` so the benchmark harness can
print either interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["TimeBreakdown", "PHASES"]

#: Canonical phase names, matching the paper artifact's metrics.
PHASES = ("calc", "pack", "call", "wait", "move")


@dataclass
class TimeBreakdown:
    """Per-timestep time split into the artifact's phases (seconds).

    ``calc``: stencil computation (plus any communication-avoiding redundant
    compute).  ``pack``: copying data into/out of message buffers -- the
    on-node movement the paper eliminates.  ``call``: posting MPI operations.
    ``wait``: completing them.  ``move``: explicit CPU<->GPU shuttling
    (zero on CPU-only runs and for CUDA-aware / Unified-Memory paths).
    """

    calc: float = 0.0
    pack: float = 0.0
    call: float = 0.0
    wait: float = 0.0
    move: float = 0.0

    @property
    def comm(self) -> float:
        """Total communication time: everything except computation."""
        return self.pack + self.call + self.wait + self.move

    @property
    def total(self) -> float:
        return self.calc + self.comm

    def add(self, other: "TimeBreakdown") -> "TimeBreakdown":
        return TimeBreakdown(
            self.calc + other.calc,
            self.pack + other.pack,
            self.call + other.call,
            self.wait + other.wait,
            self.move + other.move,
        )

    def scaled(self, factor: float) -> "TimeBreakdown":
        return TimeBreakdown(
            self.calc * factor,
            self.pack * factor,
            self.call * factor,
            self.wait * factor,
            self.move * factor,
        )

    def as_dict(self) -> Dict[str, float]:
        return {p: getattr(self, p) for p in PHASES}

    def charge(self, phase: str, seconds: float) -> None:
        """Accumulate *seconds* into *phase* (must be one of PHASES)."""
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}; expected one of {PHASES}")
        if seconds < 0:
            raise ValueError(f"cannot charge negative time {seconds}")
        setattr(self, phase, getattr(self, phase) + seconds)
