"""halobench's fixed tables: workloads, methods, metrics, bounds.

Everything another module needs to know about *what* is measured lives
here, so that metric names are spelled once: ``run.py`` prints them,
``worker.py`` fills them in, ``compare.py`` reads their bounds and
``manifest()`` is the content of the repository's ``BENCHMARK.json``.

Importing this module does not import :mod:`repro`; only
:meth:`Workload.problem` does, inside the worker subprocess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: The paper's Fig. 8-12 set.  ``basic`` is ``LayoutExchanger`` with
#: ``merge_runs=False`` and stays with the Fig. 4 count tests.
METHODS: Tuple[str, ...] = ("layout", "memmap", "yask", "mpi_types")

#: Seconds of sampling per run (the driver passes it back as --seconds).
RUN_SECONDS = 35

#: First quartile of ``worker.host_probe`` on the sandbox the committed
#: results were taken on, in a quiet minute: there, scaled times read like
#: plain wall-clock.
PROBE_REF_MS = 4.0


@dataclass(frozen=True)
class Workload:
    """One set of inputs: 2x2x2 ranks, 8^3 bricks, ghost 8, periodic."""

    name: str
    why: str
    stencil: str  # attribute of repro.stencil.spec
    global_extent: int
    steps: Tuple[int, int]  # (T_short, T_long)
    rounds: int  # sampling stops here, or earlier when --seconds are used up
    guarded: bool = False  # verify_wire + checkpoints every 8 steps
    # Shares by which <method>.step_ms / .short_run_ms may worsen here.
    step_bound: float = 0.10
    short_run_bound: float = 0.12

    def problem(self):
        from repro.core.problem import StencilProblem
        from repro.stencil import spec

        return StencilProblem(
            (self.global_extent,) * 3,
            (2, 2, 2),
            getattr(spec, self.stencil),
            brick_dim=(8, 8, 8),
            ghost=8,
        )

    def run_kwargs(self, checkpoint_dir: Optional[str]) -> dict:
        if not self.guarded:
            return {}
        return {
            "verify_wire": True,
            "checkpoint_dir": checkpoint_dir,
            "checkpoint_period": 8,
        }


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "strong16",
        "7pt on 16^3 subdomains, the strong-scaling limit: fabric and"
        " exchange do the work, kernel ~5%, so message count shows",
        "SEVEN_POINT",
        32,
        (4, 68),
        15,
    ),
    Workload(
        "bulk48",
        "7pt on 48^3 subdomains: the stencil kernel and per-run setup"
        " dominate, the fabric does little; a fabric change should not move it",
        "SEVEN_POINT",
        96,
        (2, 34),
        11,
        step_bound=0.15,
        short_run_bound=0.15,
    ),
    Workload(
        "cube16",
        "125pt on 16^3 subdomains: compute-bound taps on the small geometry;"
        " the only check that reads edge and corner ghosts (all 26 neighbours)",
        "CUBE125",
        32,
        (4, 36),
        9,
    ),
    Workload(
        "guarded16",
        "strong16 with verify_wire and checkpoints every 8 steps: enveloped"
        " per-message protocol and the instrumented loop, plus ckpt writes",
        "SEVEN_POINT",
        32,
        (4, 36),
        11,
        guarded=True,
        step_bound=0.24,
        short_run_bound=0.24,
    ),
)


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(
        f"unknown workload {name!r}; choose from {[w.name for w in WORKLOADS]}"
    )


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None  # end-to-end only
    exact: bool = False  # a count: --compare requires equality


def end_to_end_metrics() -> List[Metric]:
    """The ten end-to-end metrics, same names on every workload."""
    # BENCHMARK.json holds one bound per metric, so the run times carry the
    # widest per-workload bound there; --compare applies each workload's own.
    step = max(w.step_bound for w in WORKLOADS)
    short_run = max(w.short_run_bound for w in WORKLOADS)
    out = [Metric(f"{m}.step_ms", "ms", "lower", step) for m in METHODS]
    out += [Metric(f"{m}.short_run_ms", "ms", "lower", short_run) for m in METHODS]
    out.append(Metric("setup_s", "s", "lower", 0.25))
    out.append(Metric("peak_rss_mb", "MB", "lower", 0.10))
    return out


def bound_for(metric: Metric, wl: Workload) -> float:
    """The bound --compare applies to *metric* on workload *wl*."""
    if metric.name.endswith(".step_ms"):
        return wl.step_bound
    if metric.name.endswith(".short_run_ms"):
        return wl.short_run_bound
    return metric.bound


#: Per-step rows: thread-CPU self time summed over ranks, per timestep.
STEP_LAYERS: Tuple[str, ...] = (
    "stencil.execute",
    "exchange.fire",
    "simmpi.post",
    "simmpi.recv",
    "ckpt.save",
    "core.loop",
)

#: Per-run rows: thread-CPU self time summed over ranks, per run.
RUN_LAYERS: Tuple[str, ...] = (
    "core.initial_global",
    "brick.decomp",
    "brick.convert",
    "exchange.construct",
    "vmem.map",
    "stencil.compile",
    "core.rank_setup",
)

#: Per-run rows measured as wall-clock on the main thread.
RUN_WALL_LAYERS: Tuple[str, ...] = ("core.main", "simmpi.launch")

_COUNTS: Tuple[Tuple[str, str], ...] = (
    ("exchange.messages_per_rank", "count"),
    ("exchange.wire_bytes_per_rank", "bytes"),
    ("exchange.padding_fraction", "ratio"),
    ("vmem.mappings", "count"),
    ("simmpi.sends_per_step", "count"),
)

_MODEL: Tuple[str, ...] = ("calc", "pack", "call", "wait")


def per_layer_metrics() -> List[Metric]:
    """Per-method layer rows, then the global ones."""
    out: List[Metric] = []
    for m in METHODS:
        out += [Metric(f"{m}.{x}.cpu_ms", "ms", "lower") for x in STEP_LAYERS]
        out.append(Metric(f"{m}.simmpi.wait_ms", "ms", "lower"))
        out += [Metric(f"{m}.{x}.cpu_ms", "ms", "lower") for x in RUN_LAYERS]
        out += [Metric(f"{m}.{x}.ms", "ms", "lower") for x in RUN_WALL_LAYERS]
        out.append(Metric(f"{m}.run_setup_ms", "ms", "lower"))
        out += [Metric(f"{m}.{x}", u, "lower", exact=True) for x, u in _COUNTS]
        out.append(Metric(f"{m}.stencil.gbytes_per_s", "GB/s", "higher"))
        out += [
            Metric(f"{m}.model.{p}_ms", "ms", "lower", exact=True) for p in _MODEL
        ]
        out.append(Metric(f"{m}.budget.step_cover", "ratio", "higher"))
        out.append(Metric(f"{m}.budget.setup_cover", "ratio", "higher"))
    out += [
        Metric("trace.cpu_coverage", "ratio", "higher"),
        Metric("trace.overhead_ratio", "ratio", "lower"),
        Metric("host.copy_gbs", "GB/s", "higher"),
        Metric("host.probe_ms", "ms", "lower"),
        Metric("reference.step_ms", "ms", "lower"),
        Metric("host.switch_interval_ms", "ms", "lower"),
    ]
    return out


def manifest() -> Dict[str, object]:
    """What the repository's BENCHMARK.json must contain."""
    return {
        "command": ["python3", "benchmarks/halobench/run.py"],
        "paths": ["benchmarks/halobench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in end_to_end_metrics()
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in per_layer_metrics()
        ],
    }
