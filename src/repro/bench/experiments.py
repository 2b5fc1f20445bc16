"""One function per paper artifact (DESIGN.md Section 4).

Every function evaluates the modelled cost of each scheme through the
*same* machinery the executed driver uses (``repro.core.model``), at the
paper's exact experimental configurations: 8-node K1/V1 sweeps over
subdomain sizes 512^3 .. 16^3, strong scaling to 1024 nodes, page-size
sweeps, and the padding/bandwidth table -- plus the design ablations
D1 (region order), D3 (ghost expansion, modelled and executed) and D4
(brick size).  Results come back as plain dicts:
:mod:`repro.bench.render` turns each into the committed
``benchmarks/results/<id>.txt`` and ``tests/test_paper_claims.py``
asserts the paper's claim on the same dict.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import dims_create
from repro.core.model import exchange_breakdown, exchange_result, model_timestep
from repro.hardware.profiles import (
    MachineProfile,
    summit_v100,
    theta_knl,
)
from repro.layout.analysis import table1 as _table1
from repro.layout.messages import messages_for_order
from repro.layout.order import SURFACE3D, grouped_order, lexicographic_order
from repro.layout.search import anneal_order
from repro.stencil.spec import CUBE125, SEVEN_POINT, StencilSpec

__all__ = [
    "K1_SIZES",
    "SCALING_NODES",
    "fig1_breakdown",
    "fig4_layout_vs_basic",
    "table1_messages",
    "k1_scaling",
    "k1_comm_time",
    "k1_compute_time",
    "k2_strong_scaling",
    "v1_scaling",
    "v1_comm_time",
    "v1_compute_time",
    "table2_padding",
    "v2_strong_scaling",
    "fig18_pagesize",
    "table3_costs",
    "d1_layout_order",
    "d3_ghost_expansion",
    "d3_expansion_executed",
    "d4_brick_size",
]

#: Subdomain dimensions of the 8-node sweeps (K1, V1, Figs. 1/4/18).
K1_SIZES: Tuple[int, ...] = (512, 256, 128, 64, 32, 16)

#: Node counts of the strong-scaling experiments (K2, V2): 2^3 .. 2^10.
SCALING_NODES: Tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512, 1024)


def _step(profile, method, n, stencil=SEVEN_POINT, **kw):
    return model_timestep(profile, method, (n, n, n), stencil, **kw)


def _gstencil(points: int, seconds: float) -> float:
    return points / seconds / 1e9


# ---------------------------------------------------------------------------
# Figure 1 -- time breakdown, YASK vs proposed (MemMap), 8 KNL nodes
# ---------------------------------------------------------------------------

def fig1_breakdown(profile: Optional[MachineProfile] = None) -> Dict:
    """Per-timestep time split (% of the YASK total) per subdomain size."""
    profile = profile or theta_knl()
    out = {
        "sizes": list(K1_SIZES),
        "yask": {"compute": [], "mpi": [], "packing": []},
        "proposed": {"compute": [], "mpi": [], "packing": []},
    }
    for n in K1_SIZES:
        yask = _step(profile, "yask", n)
        prop = _step(profile, "memmap", n)
        total = yask.total  # both bars normalised to the YASK total
        out["yask"]["compute"].append(100 * yask.calc / total)
        out["yask"]["mpi"].append(100 * (yask.call + yask.wait) / total)
        out["yask"]["packing"].append(100 * yask.pack / total)
        out["proposed"]["compute"].append(100 * prop.calc / total)
        out["proposed"]["mpi"].append(100 * (prop.call + prop.wait) / total)
        out["proposed"]["packing"].append(100 * prop.pack / total)
    return out


# ---------------------------------------------------------------------------
# Figure 4 -- communication time: YASK vs Basic vs Layout
# ---------------------------------------------------------------------------

def fig4_layout_vs_basic(profile: Optional[MachineProfile] = None) -> Dict:
    profile = profile or theta_knl()
    out = {
        "sizes": list(K1_SIZES),
        "comm_ms": {"yask": [], "basic": [], "layout": []},
        "messages": {
            "basic": 98,
            "layout": messages_for_order(SURFACE3D, 3),
        },
    }
    for n in K1_SIZES:
        for method in ("yask", "basic", "layout"):
            out["comm_ms"][method].append(
                exchange_breakdown(profile, method, (n, n, n)).comm * 1e3
            )
    return out


# ---------------------------------------------------------------------------
# Table 1 -- message counts vs dimension
# ---------------------------------------------------------------------------

def table1_messages(max_dim: int = 5) -> Dict[str, List[int]]:
    return _table1(max_dim)


# ---------------------------------------------------------------------------
# K1 (Figures 8, 9, 10) -- 8 KNL nodes, subdomain sweep
# ---------------------------------------------------------------------------

K1_METHODS = ("memmap", "layout", "yask", "yask_ol", "mpi_types")


def k1_scaling(
    profile: Optional[MachineProfile] = None,
    stencil: StencilSpec = SEVEN_POINT,
) -> Dict:
    """Fig. 8: throughput (GStencil/s, 8 ranks) per method and size."""
    profile = profile or theta_knl()
    out = {"sizes": list(K1_SIZES), "gstencils": {m: [] for m in K1_METHODS}}
    for n in K1_SIZES:
        for method in K1_METHODS:
            bd = _step(profile, method, n, stencil)
            out["gstencils"][method].append(_gstencil(8 * n**3, bd.total))
    return out


def k1_comm_time(profile: Optional[MachineProfile] = None) -> Dict:
    """Fig. 9: per-timestep communication time (ms) plus Network floor
    and MemMap's compute time for reference."""
    profile = profile or theta_knl()
    methods = ("mpi_types", "yask", "layout", "memmap", "network")
    out = {"sizes": list(K1_SIZES), "comm_ms": {m: [] for m in methods}}
    out["comp_ms"] = []
    for n in K1_SIZES:
        for method in methods:
            out["comm_ms"][method].append(
                exchange_breakdown(profile, method, (n, n, n)).comm * 1e3
            )
        out["comp_ms"].append(_step(profile, "memmap", n).calc * 1e3)
    return out


def k1_compute_time(profile: Optional[MachineProfile] = None) -> Dict:
    """Fig. 10: compute time per method; brick-based methods are
    identical regardless of layout (including the No-Layout ordering)."""
    profile = profile or theta_knl()
    methods = ("mpi_types", "yask", "layout", "memmap", "no_layout")
    out = {"sizes": list(K1_SIZES), "comp_ms": {m: [] for m in methods}}
    for n in K1_SIZES:
        for method in methods:
            # No-Layout is fine-grained blocking with lexicographic brick
            # order -- same compute model as any other brick order.
            real = "layout" if method == "no_layout" else method
            out["comp_ms"][method].append(_step(profile, real, n).calc * 1e3)
    return out


# ---------------------------------------------------------------------------
# K2 (Figures 11, 12) -- strong scaling of 1024^3 on 8..1024 KNL nodes
# ---------------------------------------------------------------------------

def _strong_scaling(
    profile: MachineProfile,
    global_extent: Tuple[int, int, int],
    nodes: Sequence[int],
    ranks_per_node: int,
    methods: Sequence[str],
    stencils: Sequence[StencilSpec],
) -> Dict:
    points = math.prod(global_extent)
    out = {
        "nodes": list(nodes),
        "gstencils": {},
        "comm_ms": {},
        "comp_ms": {},
        "subdomains": [],
    }
    for m in methods:
        for s in stencils:
            key = f"{m}:{s.name}"
            out["gstencils"][key] = []
            out["comm_ms"][key] = []
            out["comp_ms"][key] = []
    for nn in nodes:
        nranks = nn * ranks_per_node
        dims = dims_create(nranks, 3)
        sub = tuple(e // d for e, d in zip(global_extent, dims))
        out["subdomains"].append(sub)
        for m in methods:
            for s in stencils:
                key = f"{m}:{s.name}"
                bd = model_timestep(profile, m, sub, s)
                out["gstencils"][key].append(_gstencil(points, bd.total))
                out["comm_ms"][key].append(bd.comm * 1e3)
                out["comp_ms"][key].append(bd.calc * 1e3)
    return out


def k2_strong_scaling(profile: Optional[MachineProfile] = None) -> Dict:
    profile = profile or theta_knl()
    return _strong_scaling(
        profile,
        (1024, 1024, 1024),
        SCALING_NODES,
        ranks_per_node=1,
        methods=("memmap", "yask"),
        stencils=(SEVEN_POINT, CUBE125),
    )


# ---------------------------------------------------------------------------
# V1 (Figures 13, 14, 15) -- 8 Summit nodes, 1 V100 per rank
# ---------------------------------------------------------------------------

V1_METHODS = ("layout_ca", "layout_um", "memmap_um", "mpi_types_um")


def v1_scaling(
    profile: Optional[MachineProfile] = None,
    stencil: StencilSpec = SEVEN_POINT,
) -> Dict:
    profile = profile or summit_v100()
    out = {"sizes": list(K1_SIZES), "gstencils": {m: [] for m in V1_METHODS}}
    for n in K1_SIZES:
        for method in V1_METHODS:
            bd = _step(profile, method, n, stencil)
            out["gstencils"][method].append(_gstencil(8 * n**3, bd.total))
    return out


def v1_comm_time(profile: Optional[MachineProfile] = None) -> Dict:
    profile = profile or summit_v100()
    methods = V1_METHODS + ("network_ca",)
    out = {"sizes": list(K1_SIZES), "comm_ms": {m: [] for m in methods}}
    out["comp_ms"] = []
    for n in K1_SIZES:
        for method in methods:
            out["comm_ms"][method].append(
                exchange_breakdown(profile, method, (n, n, n)).comm * 1e3
            )
        out["comp_ms"].append(_step(profile, "memmap_um", n).calc * 1e3)
    return out


def v1_compute_time(profile: Optional[MachineProfile] = None) -> Dict:
    """Fig. 15: UM page-alignment effects on compute time."""
    profile = profile or summit_v100()
    out = {"sizes": list(K1_SIZES), "comp_ms": {m: [] for m in V1_METHODS}}
    for n in K1_SIZES:
        for method in V1_METHODS:
            out["comp_ms"][method].append(_step(profile, method, n).calc * 1e3)
    return out


# ---------------------------------------------------------------------------
# Table 2 -- padding overhead and achieved bandwidth (V1)
# ---------------------------------------------------------------------------

def table2_padding(profile: Optional[MachineProfile] = None) -> Dict:
    profile = profile or summit_v100()
    page = profile.page_size
    out = {
        "sizes": list(K1_SIZES),
        "padding_pct": {"layout": [], "memmap": []},
        "bandwidth_gbs": {"layout_ca": [], "layout_um": [], "memmap_um": []},
    }
    for n in K1_SIZES:
        # Padding: Layout transmits exactly the payload; MemMap pads each
        # region to page multiples.
        mm = exchange_result(profile, "memmap", (n, n, n), page_size=page)
        payload, wire = mm.payload_bytes_sent, mm.wire_bytes_sent
        out["padding_pct"]["layout"].append(0.0)
        out["padding_pct"]["memmap"].append(100.0 * (wire - payload) / payload)
        # Achieved bandwidth: wire bytes / (call + wait).
        for method in ("layout_ca", "layout_um", "memmap_um"):
            bd = exchange_breakdown(profile, method, (n, n, n))
            sent = wire if method.startswith("memmap") else payload
            out["bandwidth_gbs"][method].append(sent / (bd.call + bd.wait) / 1e9)
    return out


# ---------------------------------------------------------------------------
# V2 (Figures 16, 17) -- strong scaling of 2048^3 on 8..1024 Summit nodes
# ---------------------------------------------------------------------------

def v2_strong_scaling(profile: Optional[MachineProfile] = None) -> Dict:
    profile = profile or summit_v100()
    return _strong_scaling(
        profile,
        (2048, 2048, 2048),
        SCALING_NODES,
        ranks_per_node=6,
        methods=("layout_ca", "memmap_um", "mpi_types_um"),
        stencils=(SEVEN_POINT, CUBE125),
    )


# ---------------------------------------------------------------------------
# Figure 18 -- page-size impact on MemMap (estimated on the K1 setup)
# ---------------------------------------------------------------------------

def fig18_pagesize(profile: Optional[MachineProfile] = None) -> Dict:
    profile = profile or theta_knl()
    pages = (4 * 1024, 16 * 1024, 64 * 1024)
    out = {
        "sizes": list(K1_SIZES),
        "comm_ms": {f"memmap_{p // 1024}KiB": [] for p in pages},
    }
    out["comm_ms"]["yask"] = []
    out["comm_ms"]["mpi_types"] = []
    for n in K1_SIZES:
        for p in pages:
            out["comm_ms"][f"memmap_{p // 1024}KiB"].append(
                exchange_breakdown(profile, "memmap", (n, n, n), page_size=p).comm
                * 1e3
            )
        out["comm_ms"]["yask"].append(
            exchange_breakdown(profile, "yask", (n, n, n)).comm * 1e3
        )
        out["comm_ms"]["mpi_types"].append(
            exchange_breakdown(profile, "mpi_types", (n, n, n)).comm * 1e3
        )
    return out


# ---------------------------------------------------------------------------
# Table 3 -- qualitative cost comparison, derived from measured quantities
# ---------------------------------------------------------------------------

def table3_costs(profile: Optional[MachineProfile] = None) -> Dict:
    """Reproduce Table 3 from the model rather than by assertion: each
    cell is derived from the corresponding measured/modelled quantity at
    the 64^3 working point."""
    profile = profile or theta_knl()
    n = 64
    yask = exchange_breakdown(profile, "yask", (n, n, n))
    layout = exchange_breakdown(profile, "layout", (n, n, n))
    mm = exchange_result(profile, "memmap", (n, n, n), page_size=65536)
    memmap = mm.breakdown

    def level(x: float, lo: float, hi: float) -> str:
        if x <= lo:
            return "-"
        return "Low" if x <= hi else "High"

    payload = mm.payload_bytes_sent
    pad = mm.wire_bytes_sent - payload
    extra_msgs_layout = 42 - 26
    return {
        "rows": ["Strided Packing", "Extra Msgs", "Manual CPU-GPU", "Large Page"],
        "Array": ["High", "-", "High", "-"],
        "Layout": [
            level(layout.pack, 0.0, 1e-5),
            "Low*" if extra_msgs_layout else "-",
            "-",
            "-",
        ],
        "MemMap": [
            level(memmap.pack, 0.0, 1e-5),
            "-",
            "-",
            "Low**" if pad / payload < 3 else "High",
        ],
        "notes": {
            "*": f"{extra_msgs_layout} extra messages (42 vs 26) -- Section 3.3",
            "**": f"padding {100 * pad / payload:.1f}% of payload at 64^3 with"
                  " 64 KiB pages -- Section 7.3",
        },
    }


# ---------------------------------------------------------------------------
# Ablations beyond the paper's figures (DESIGN.md Section 5)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _annealed_3d() -> tuple:
    """The seeded 3-D annealing search (~0.6 s; deterministic, so once)."""
    return tuple(anneal_order(3, seed=1, restarts=4, iters=2000, target=42)[0])


def d1_layout_order(profile: Optional[MachineProfile] = None) -> Dict:
    """D1: message count and 16^3 comm time of four 3-D region orders."""
    profile = profile or theta_knl()
    orders = {
        "lexicographic": lexicographic_order(3),
        "grouped": grouped_order(3),
        "annealed": list(_annealed_3d()),
        "surface3d": SURFACE3D,
    }
    return {
        "order": list(orders),
        "messages": [messages_for_order(o, 3) for o in orders.values()],
        "comm_ms": [
            exchange_breakdown(profile, "layout", (16, 16, 16), layout=o).comm
            * 1e3
            for o in orders.values()
        ],
    }


def d3_ghost_expansion(profile: Optional[MachineProfile] = None) -> Dict:
    """D3 (Ding & He): a g-wide ghost zone exchanged every g/8 steps
    trades volume for frequency.  Per-step cost = exchange(g) amortized
    plus redundant compute, bounded by the full shell each step; the
    32^3 subdomain is startup-bound, where expansion pays."""
    profile = profile or theta_knl()
    n = 32
    out = {
        "ghost": [], "exch_ms": [], "per_step_ms": [],
        "per_step+redundant_ms": [],
    }
    for bricks_wide in (w for w in (1, 2, 4) if n // 8 >= 2 * w):
        g = 8 * bricks_wide
        comm = exchange_breakdown(profile, "memmap", (n, n, n), ghost=g).comm
        per_step = comm / bricks_wide
        shell = (n + 2 * g) ** 3 - n**3
        redundant = profile.brick_compute.stencil_time(
            shell * (bricks_wide - 1) // (2 * bricks_wide), 8, 16
        )
        out["ghost"].append(g)
        out["exch_ms"].append(comm * 1e3)
        out["per_step_ms"].append(per_step * 1e3)
        out["per_step+redundant_ms"].append((per_step + redundant) * 1e3)
    return out


def d3_expansion_executed(profile: Optional[MachineProfile] = None) -> Dict:
    """D3, executed: 8-rank YASK runs on 16^3 subdomains at exchange
    periods 1..8, with each run's modelled per-step comm and calc and
    whether it is bit-exact against the serial reference."""
    from repro.core.driver import run_executed
    from repro.core.problem import StencilProblem
    from repro.stencil.reference import apply_periodic_reference

    profile = profile or theta_knl()
    problem = StencilProblem((32, 32, 32), (2, 2, 2), SEVEN_POINT, (8, 8, 8), 8)
    steps = 8
    ref = apply_periodic_reference(problem.initial_global(0), SEVEN_POINT, steps)
    out = {
        "period": [], "sends/rank": [], "comm_ms/step": [],
        "calc_ms/step": [], "total": [], "exact": [],
    }
    for period in (1, 2, 4, 8):
        run = run_executed(
            problem, "yask", profile, timesteps=steps, exchange_period=period
        )
        m = run.metrics
        out["period"].append(period)
        out["sends/rank"].append(run.fabric.stats[0].sends)
        out["comm_ms/step"].append(m.comm_time * 1e3)
        out["calc_ms/step"].append(m.calc.avg * 1e3)
        out["total"].append((m.comm_time + m.calc.avg) * 1e3)
        out["exact"].append(bool((run.global_result == ref).all()))
    return out


def d4_brick_size(profile: Optional[MachineProfile] = None) -> Dict:
    """D4: brick edge 4/8/16 on 64^3 with 64 KiB pages -- page padding
    against message granularity."""
    profile = profile or theta_knl()
    n, page = 64, 65536
    out = {"brick": [], "ghost": [], "padding_%": [], "comm_ms": []}
    for b in (4, 8, 16):
        g = max(b, 8)
        mm = exchange_result(
            profile, "memmap", (n, n, n), brick_dim=(b,) * 3, ghost=g,
            page_size=page,
        )
        pay, wire = mm.payload_bytes_sent, mm.wire_bytes_sent
        comm = mm.breakdown.comm
        out["brick"].append(b)
        out["ghost"].append(g)
        out["padding_%"].append(100 * (wire - pay) / pay)
        out["comm_ms"].append(comm * 1e3)
    return out
