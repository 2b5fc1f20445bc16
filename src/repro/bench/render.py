"""Rendered (text) versions of every paper artifact.

The single registry behind ``repro figures`` and
``examples/paper_figures.py``: each entry returns one artifact as an
aligned text table, and ``benchmarks/results/<id>.txt`` is exactly that
text (``tests/test_paper_claims.py`` checks both, and asserts the
paper's claims on the same ``repro.bench.experiments`` data).
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Sequence

from repro.bench import experiments as E
from repro.bench.harness import format_series, format_table

__all__ = ["ARTIFACTS", "render"]


def _columns(
    title: str, d: Mapping[str, Sequence], columns: Optional[Sequence[str]] = None
) -> str:
    """A ``{column: values}`` dict as a table (headers default to its keys)."""
    return format_table(title, columns or list(d), list(zip(*d.values())))


def _fig1() -> str:
    d = E.fig1_breakdown()
    rows = [
        [n, d["yask"]["compute"][i], d["yask"]["mpi"][i],
         d["yask"]["packing"][i], d["proposed"]["compute"][i],
         d["proposed"]["mpi"][i]]
        for i, n in enumerate(d["sizes"])
    ]
    return format_table(
        "FIG1  Time breakdown per timestep, % of YASK total (8 KNL nodes)",
        ["N", "yask:comp", "yask:mpi", "yask:pack", "prop:comp", "prop:mpi"],
        rows, spec=".1f",
    )


def _fig4() -> str:
    d = E.fig4_layout_vs_basic()
    return format_series(
        "FIG4  Communication time per timestep (ms), 8 KNL nodes",
        "N", d["sizes"], d["comm_ms"],
    )


def _tab1() -> str:
    return _columns(
        "TAB1  Messages per exchange vs dimensionality", E.table1_messages(),
        ["D", "Neighbors (Eq.2)", "Layout (Eq.1)", "Basic (Eq.3)"],
    )


def _fig8() -> str:
    d = E.k1_scaling()
    return format_series(
        "FIG8  (K1) 7-pt throughput, GStencil/s on 8 KNL nodes", "N", d["sizes"],
        d["gstencils"],
    )


def _fig9() -> str:
    d = E.k1_comm_time()
    series = dict(d["comm_ms"], **{"comp(memmap)": d["comp_ms"]})
    return format_series(
        "FIG9  (K1) Communication time per timestep (ms), 8 KNL nodes", "N", d["sizes"],
        series,
    )


def _fig10() -> str:
    d = E.k1_compute_time()
    return format_series(
        "FIG10  (K1) Compute time per timestep (ms), 8 KNL nodes", "N", d["sizes"],
        d["comp_ms"],
    )


def _fig11() -> str:
    d = E.k2_strong_scaling()
    return format_series(
        "FIG11  (K2) Strong scaling, 1024^3 domain, GStencil/s", "nodes", d["nodes"],
        d["gstencils"],
    )


def _fig12() -> str:
    d = E.k2_strong_scaling()
    return format_series(
        "FIG12  (K2) 7-pt per-timestep comm vs comp (ms)", "nodes",
        d["nodes"],
        {
            "yask:comm": d["comm_ms"]["yask:7pt"],
            "yask:comp": d["comp_ms"]["yask:7pt"],
            "memmap:comm": d["comm_ms"]["memmap:7pt"],
            "memmap:comp": d["comp_ms"]["memmap:7pt"],
        },
    )


def _fig13() -> str:
    d = E.v1_scaling()
    return format_series(
        "FIG13  (V1) 7-pt throughput, GStencil/s on 8 V100s", "N", d["sizes"],
        d["gstencils"],
    )


def _fig14() -> str:
    d = E.v1_comm_time()
    series = dict(d["comm_ms"], **{"comp(memmap_um)": d["comp_ms"]})
    return format_series(
        "FIG14  (V1) Communication time per timestep (ms), 8 V100s", "N", d["sizes"],
        series,
    )


def _fig15() -> str:
    d = E.v1_compute_time()
    return format_series(
        "FIG15  (V1) Compute time per timestep (ms), 8 V100s", "N", d["sizes"],
        d["comp_ms"],
    )


def _tab2() -> str:
    d = E.table2_padding()
    rows = [
        [n, d["padding_pct"]["layout"][i], d["padding_pct"]["memmap"][i],
         d["bandwidth_gbs"]["layout_ca"][i], d["bandwidth_gbs"]["layout_um"][i],
         d["bandwidth_gbs"]["memmap_um"][i]]
        for i, n in enumerate(d["sizes"])
    ]
    return format_table(
        "TAB2  (V1) Padding overhead (%) and achieved bandwidth (GB/s)",
        ["N", "pad% layout", "pad% memmap", "bw CA", "bw L_UM", "bw MM_UM"],
        rows, spec=".1f",
    )


def _fig16() -> str:
    d = E.v2_strong_scaling()
    return format_series(
        "FIG16  (V2) Strong scaling, 2048^3, 6 ranks/node, GStencil/s",
        "nodes", d["nodes"], d["gstencils"],
    )


def _fig17() -> str:
    d = E.v2_strong_scaling()
    return format_series(
        "FIG17  (V2) 7-pt per-timestep comm vs comp (ms)", "nodes",
        d["nodes"],
        {
            "types:comm": d["comm_ms"]["mpi_types_um:7pt"],
            "types:comp": d["comp_ms"]["mpi_types_um:7pt"],
            "memmap:comm": d["comm_ms"]["memmap_um:7pt"],
            "memmap:comp": d["comp_ms"]["memmap_um:7pt"],
            "layout_ca:comm": d["comm_ms"]["layout_ca:7pt"],
            "layout_ca:comp": d["comp_ms"]["layout_ca:7pt"],
        },
    )


def _fig18() -> str:
    d = E.fig18_pagesize()
    return format_series(
        "FIG18  Page-size effect on MemMap comm time (ms), 8 KNL nodes", "N",
        d["sizes"], d["comm_ms"],
    )


def _tab3() -> str:
    d = E.table3_costs()
    rows = [
        [name, d["Array"][i], d["Layout"][i], d["MemMap"][i]]
        for i, name in enumerate(d["rows"])
    ]
    body = format_table(
        "TAB3  Cost comparison: array practice vs Layout vs MemMap",
        ["Cost Type", "Array", "Layout", "MemMap"],
        rows,
    )
    notes = "\n".join(f"{k} {v}" for k, v in d["notes"].items())
    return body + notes + "\n"


def _d1() -> str:
    return _columns(
        "D1  Region-order quality (16^3 subdomain, Theta)", E.d1_layout_order()
    )


def _d3() -> str:
    return _columns(
        "D3  Ghost-cell expansion on 32^3 (Theta, MemMap)",
        E.d3_ghost_expansion(),
    ) + "\n" + _columns(
        "D3 (executed)  Exchange period on 16^3 subdomains (YASK, Theta)",
        E.d3_expansion_executed(),
    )


def _d4() -> str:
    return _columns(
        "D4  Brick size on 64^3 (Theta, MemMap, 64 KiB pages)",
        E.d4_brick_size(),
    )


ARTIFACTS: Dict[str, Callable[[], str]] = {
    "fig1": _fig1, "fig4": _fig4, "tab1": _tab1,
    "fig8": _fig8, "fig9": _fig9, "fig10": _fig10,
    "fig11": _fig11, "fig12": _fig12,
    "fig13": _fig13, "fig14": _fig14, "fig15": _fig15,
    "tab2": _tab2, "fig16": _fig16, "fig17": _fig17,
    "fig18": _fig18, "tab3": _tab3,
    "d1": _d1, "d3": _d3, "d4": _d4,
}


def render(name: str) -> str:
    """Render one artifact by name (see :data:`ARTIFACTS`)."""
    try:
        fn = ARTIFACTS[name]
    except KeyError:
        raise ValueError(
            f"unknown artifact {name!r}; available: {' '.join(ARTIFACTS)}"
        ) from None
    return fn()
