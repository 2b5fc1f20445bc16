"""Run metrics in the paper artifact's format.

The artifact reports, per run: ``calc``, ``pack``, ``call``, ``wait``
(seconds per timestep, ``[minimum, average, maximum]`` across ranks) and
``perf`` (overall stencil throughput from the average per-iteration time).
:class:`RunMetrics` reproduces exactly that, plus the ``move`` phase for
GPU staging and communication/computation totals used by the figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.util.stats import MinAvgMax, summarize
from repro.util.timing import PHASES, TimeBreakdown

__all__ = ["RankMetrics", "RunMetrics"]


@dataclass
class RankMetrics:
    """One rank's accumulated phase times over a run.

    ``totals`` holds *modelled* virtual seconds (the single source of
    truth for figures); ``measured``, when present, holds wall-clock
    seconds the run plan clocked around the real kernel path -- how
    kernel speed is observed without perturbing the model.
    """

    rank: int
    timesteps: int
    totals: TimeBreakdown
    measured: Optional[TimeBreakdown] = None

    def per_timestep(self) -> TimeBreakdown:
        if self.timesteps <= 0:
            raise ValueError("no timesteps recorded")
        return self.totals.scaled(1.0 / self.timesteps)


@dataclass
class RunMetrics:
    """Aggregated metrics of one multi-rank run."""

    method: str
    points_per_rank: int
    nranks: int
    timesteps: int
    ranks: List[RankMetrics]

    def phase(self, name: str) -> MinAvgMax:
        """Across-rank summary of one per-timestep phase time."""
        return summarize(
            getattr(r.per_timestep(), name) for r in self.ranks
        )

    @property
    def calc(self) -> MinAvgMax:
        return self.phase("calc")

    @property
    def pack(self) -> MinAvgMax:
        return self.phase("pack")

    @property
    def call(self) -> MinAvgMax:
        return self.phase("call")

    @property
    def wait(self) -> MinAvgMax:
        return self.phase("wait")

    @property
    def move(self) -> MinAvgMax:
        return self.phase("move")

    @property
    def measured_calc(self) -> Optional[MinAvgMax]:
        """Across-rank wall-clock kernel time per timestep, when the
        executed driver recorded it (None for model-only runs)."""
        if not self.ranks or any(r.measured is None for r in self.ranks):
            return None
        return summarize(
            r.measured.calc / r.timesteps for r in self.ranks
        )

    @property
    def comm_time(self) -> float:
        """Average per-timestep communication time (pack+call+wait+move)."""
        return summarize(r.per_timestep().comm for r in self.ranks).avg

    @property
    def timestep_time(self) -> float:
        """Average per-timestep total; ranks run bulk-synchronously, so
        the slowest rank gates the step."""
        return max(r.per_timestep().total for r in self.ranks)

    @property
    def gstencils_per_s(self) -> float:
        """Throughput in 1e9 stencil applications per second."""
        total_points = self.points_per_rank * self.nranks
        return total_points / self.timestep_time / 1e9

    def report(self) -> str:
        """Artifact-style text report."""
        lines = [
            f"method={self.method} ranks={self.nranks}"
            f" timesteps={self.timesteps}"
        ]
        for p in PHASES:
            lines.append(f"  {p:<5} {self.phase(p):.3e}")
        lines.append(f"  perf  {self.gstencils_per_s:.4g} GStencil/s")
        return "\n".join(lines)
