"""Run metrics in the paper artifact's format, and the per-rank ledger.

The artifact reports, per run: ``calc``, ``pack``, ``call``, ``wait``
(seconds per timestep, ``[minimum, average, maximum]`` across ranks) and
``perf`` (overall stencil throughput from the average per-iteration time).
:class:`RunMetrics` reproduces exactly that, plus the ``move`` phase for
GPU staging and communication/computation totals used by the figures.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.util.stats import MinAvgMax, summarize
from repro.util.timing import PHASES, TimeBreakdown

__all__ = ["RankMetrics", "RunMetrics"]


@dataclass
class RankMetrics:
    """One rank's ledger: everything an executed run counted and priced.

    ``totals`` holds *modelled* virtual seconds (the single source of
    truth for figures); ``measured``, when present, holds wall-clock
    seconds the run plan clocked around the real kernel path.  The run
    loop (:meth:`repro.core.runplan.RankRunPlan.run`) is the only
    writer: per step the calc, per fired exchange the counts and price
    of the :class:`~repro.exchange.base.ExchangeResult` the engine that
    fired was bound with.  ``timesteps`` / ``exchanges`` are what the
    ledger covers -- after an elastic reshape, the world that finished
    -- and every per-step / per-exchange figure divides by them.
    """

    rank: int
    timesteps: int = 0
    totals: TimeBreakdown = field(default_factory=TimeBreakdown)
    measured: Optional[TimeBreakdown] = None
    exchanges: int = 0
    messages: int = 0
    wire_bytes: int = 0
    payload_bytes: int = 0
    mappings: int = 0  # live MemMap view mappings at the end of the run

    def per_timestep(self) -> TimeBreakdown:
        if self.timesteps <= 0:
            raise ValueError("no timesteps recorded")
        return self.totals.scaled(1.0 / self.timesteps)

    @property
    def messages_per_exchange(self) -> int:
        return self.messages // max(1, self.exchanges)

    @property
    def wire_bytes_per_exchange(self) -> int:
        return self.wire_bytes // max(1, self.exchanges)

    @property
    def padding_fraction(self) -> float:
        if not self.payload_bytes:
            return 0.0
        return (self.wire_bytes - self.payload_bytes) / self.payload_bytes

    def record(self) -> dict:
        """What a checkpoint saves (JSON round-trips floats exactly, so
        a resumed run accumulates the same bits)."""
        return asdict(self)

    def restore(self, record: dict) -> None:
        """Re-install a :meth:`record`; an empty one restarts the ledger
        (a re-bricked snapshot: the old world's traffic means nothing
        under the new decomposition)."""
        for name, value in record.items():
            if name in ("totals", "measured"):
                value = TimeBreakdown(**value)
            setattr(self, name, value)


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
