"""The paper's claims, one table, and the committed tables they are read from.

Each row of :data:`CLAIMS` names a paper artifact, the paper's number for
it (as EXPERIMENTS.md quotes it), the claim on one modelled quantity, and
the ``repro.bench.experiments`` call the quantity is read from -- the
same data ``python -m repro figures <id>`` renders into
``benchmarks/results/<id>.txt``, which :func:`test_results_file` pins.
So what is asserted is what is committed.

A claim is a Python comparison on ``x``.  A quantity that is a list is a
sweep (over subdomain sizes, node counts or methods) and the claim must
hold at every point; anything else is one value.  Where the model
reaches the paper's number within a factor of 2, the band is that
factor; elsewhere it is the tightest band the model's earlier homes
asserted (EXPERIMENTS.md "One claims table" lists each).
"""

import functools
from pathlib import Path
from typing import Any, Callable, NamedTuple

import pytest

from repro.bench import experiments
from repro.bench.render import ARTIFACTS, render

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"

#: Committed beside the artifacts, written by its own (slow) module,
#: ``benchmarks/test_layout_search_quality.py``.
SEARCH_TABLE = "layout_search_4d"


class Claim(NamedTuple):
    artifact: str  #: the ``repro figures`` id
    paper: str  #: the paper's number, as EXPERIMENTS.md quotes it
    claim: str  #: a comparison on ``x``: an ordering or a band
    call: str  #: the ``repro.bench.experiments`` function read
    read: Callable[[Any], Any]  #: the quantity ``x``, from that call's data
    name: str  #: what ``x`` is (the test id)


@functools.lru_cache(maxsize=None)
def data(call: str):
    return getattr(experiments, call)()


def over(a, b):
    """``a / b`` at every point of a sweep."""
    return [x / y for x, y in zip(a, b)]


def steps(a):
    """Each point of a sweep over the one before it."""
    return over(a[1:], a[:-1])


def comm(*methods):
    return lambda d: over(*(d["comm_ms"][m] for m in methods))


def comp(*methods):
    return lambda d: over(*(d["comp_ms"][m] for m in methods))


def gst(*methods):
    return lambda d: over(*(d["gstencils"][m] for m in methods))


# Table 2's paper values, N = 512 .. 16.
PAPER_PADDING_PCT = [2.4, 9.3, 35.0, 176.9, 652.0, 883.9]
PAPER_BW_MEMMAP_UM = [17.1, 17.6, 15.4, 16.9, 17.3, 17.7]

C = Claim
CLAIMS = [
    # -- TAB1: messages vs dimensionality (exact) ------------------------
    C("tab1", "Neighbors 2, 8, 26, 80, 242", "x == (2, 8, 26, 80, 242)",
      "table1_messages", lambda d: tuple(d["Number of neighbors (Eq. 2)"]),
      "neighbors-eq2"),
    C("tab1", "Layout 2, 9, 42, 209, 1042", "x == (2, 9, 42, 209, 1042)",
      "table1_messages", lambda d: tuple(d["Layout (Eq. 1)"]), "layout-eq1"),
    C("tab1", "Basic 2, 16, 98, 544, 2882", "x == (2, 16, 98, 544, 2882)",
      "table1_messages", lambda d: tuple(d["Basic (Eq. 3)"]), "basic-eq3"),
    # -- FIG1: time breakdown, % of the YASK total -----------------------
    C("fig1", "packing is the majority for all but the largest N",
      "50 < x < 100", "fig1_breakdown", lambda d: d["yask"]["packing"][1:],
      "yask-packing-pct-below-512"),
    C("fig1", "packing's share grows as boxes shrink", "1 < x",
      "fig1_breakdown", lambda d: d["yask"]["packing"][-1] / d["yask"]["packing"][0],
      "yask-packing-16-over-512"),
    C("fig1", "communication exceeds computation even at 256^3", "1 < x",
      "fig1_breakdown",
      lambda d: over([m + p for m, p in zip(d["yask"]["mpi"], d["yask"]["packing"])],
                     d["yask"]["compute"]),
      "yask-comm-over-comp"),
    C("fig1", "the proposed scheme avoids packing entirely", "x == 0",
      "fig1_breakdown", lambda d: d["proposed"]["packing"], "proposed-packing-pct"),
    C("fig1", "the proposed bars are far below YASK's at small N", "x < 30",
      "fig1_breakdown",
      lambda d: d["proposed"]["compute"][-1] + d["proposed"]["mpi"][-1],
      "proposed-total-pct-16"),
    # -- FIG4: YASK vs Basic (98 msgs) vs Layout (42) --------------------
    C("fig4", "Basic 98 messages, Layout 42", "x == (98, 42)",
      "fig4_layout_vs_basic",
      lambda d: (d["messages"]["basic"], d["messages"]["layout"]), "messages"),
    C("fig4", "Layout up to 2.3x faster than Basic", "1.3 < x < 4.0",
      "fig4_layout_vs_basic", lambda d: max(comm("basic", "layout")(d)),
      "basic-over-layout-max"),
    C("fig4", "Layout never slower than Basic", "1 < x", "fig4_layout_vs_basic",
      comm("basic", "layout"), "basic-over-layout"),
    C("fig4", "Layout up to 2.3x faster than Basic", "1.3 < x < 4.0",
      "fig4_layout_vs_basic", lambda d: comm("basic", "layout")(d)[-1],
      "basic-over-layout-16"),
    C("fig4", "the gap is widest on small boxes", "1 < x", "fig4_layout_vs_basic",
      lambda d: comm("basic", "layout")(d)[-1] / comm("basic", "layout")(d)[0],
      "basic-over-layout-16-over-512"),
    C("fig4", "both beat YASK at small N (5.3x at N=16)", "1 < x",
      "fig4_layout_vs_basic",
      lambda d: [comm("yask", m)(d)[-1] for m in ("layout", "basic")],
      "yask-over-pack-free-16"),
    # -- FIG8: K1 throughput, GStencil/s ---------------------------------
    C("fig8", "MemMap attains the best performance", "1 < x", "k1_scaling",
      gst("memmap", "yask"), "memmap-over-yask"),
    C("fig8", "Layout is competitive with MemMap", "0.7 < x < 1", "k1_scaling",
      gst("layout", "memmap"), "layout-over-memmap"),
    C("fig8", "MPI_Types is far behind everything", "1 < x", "k1_scaling",
      gst("yask", "mpi_types"), "yask-over-mpi-types"),
    C("fig8", "overlap helps YASK, but little: packing stays", "1 < x < 1.25",
      "k1_scaling", gst("yask_ol", "yask"), "yask-ol-over-yask"),
    C("fig8", "overlap gains least at small N", "0.95 < x", "k1_scaling",
      lambda d: gst("yask_ol", "yask")(d)[0] / gst("yask_ol", "yask")(d)[-1],
      "yask-ol-gain-512-over-16"),
    C("fig8", "throughput falls with the subdomain for every method", "1 < x",
      "k1_scaling", lambda d: [s[0] / s[-1] for s in d["gstencils"].values()],
      "512-over-16"),
    # -- FIG9: K1 communication time -------------------------------------
    C("fig9", "MemMap almost achieves the Network floor", "1 <= x <= 1.25",
      "k1_comm_time", comm("memmap", "network"), "memmap-over-network"),
    C("fig9", "MemMap's 26 messages beat Layout's 42", "1 <= x",
      "k1_comm_time", comm("layout", "memmap"), "layout-over-memmap"),
    C("fig9", "Layout below YASK", "1 < x", "k1_comm_time",
      comm("yask", "layout"), "yask-over-layout"),
    C("fig9", "YASK below MPI_Types", "1 < x", "k1_comm_time",
      comm("mpi_types", "yask"), "mpi-types-over-yask"),
    C("fig9", "MemMap up to 14.4x faster than YASK", "7.2 < x < 28.8",
      "k1_comm_time", lambda d: max(comm("yask", "memmap")(d)),
      "yask-over-memmap-max"),
    C("fig9", "the speedup grows as boxes shrink", "1 < x", "k1_comm_time",
      lambda d: steps(comm("yask", "memmap")(d)), "yask-over-memmap-steps"),
    C("fig9", "MemMap up to 460x faster than MPI_Types", "230 < x < 920",
      "k1_comm_time", lambda d: max(comm("mpi_types", "memmap")(d)),
      "mpi-types-over-memmap-max"),
    C("fig9", "startup-bound below 64^3 (surface ratio 4)", "1 < x < 2.5",
      "k1_comm_time",
      lambda d: d["comm_ms"]["memmap"][-2] / d["comm_ms"]["memmap"][-1],
      "memmap-32-over-16"),
    C("fig9", "startup-bound below 64^3 (surface ratio 16)", "1 < x < 8",
      "k1_comm_time",
      lambda d: d["comm_ms"]["memmap"][-3] / d["comm_ms"]["memmap"][-1],
      "memmap-64-over-16"),
    C("fig9", "communication exceeds computation at small N", "1 < x",
      "k1_comm_time", lambda d: d["comm_ms"]["memmap"][-1] / d["comp_ms"][-1],
      "memmap-comm-over-comp-16"),
    # -- FIG10: K1 compute time ------------------------------------------
    C("fig10", "no difference across brick orderings", "x == 1",
      "k1_compute_time",
      lambda d: len({tuple(d["comp_ms"][m])
                     for m in ("layout", "memmap", "no_layout")}),
      "distinct-brick-series"),
    C("fig10", "YASK slightly faster on large boxes", "x < 1", "k1_compute_time",
      lambda d: comp("yask", "layout")(d)[0], "yask-over-layout-512"),
    C("fig10", "YASK slower on small boxes", "1 < x", "k1_compute_time",
      lambda d: comp("yask", "layout")(d)[-1], "yask-over-layout-16"),
    # -- FIG11: K2 strong scaling, 1024^3 --------------------------------
    C("fig11", "MemMap scales monotonically", "1 < x", "k2_strong_scaling",
      lambda d: steps(d["gstencils"]["memmap:7pt"]), "memmap-7pt-steps"),
    C("fig11", "MemMap 7-pt 2166 GStencil/s at 1024 nodes", "1083 < x < 4332",
      "k2_strong_scaling", lambda d: d["gstencils"]["memmap:7pt"][-1],
      "memmap-7pt-1024"),
    C("fig11", "MemMap 125-pt 934 GStencil/s at 1024 nodes", "467 < x < 1868",
      "k2_strong_scaling", lambda d: d["gstencils"]["memmap:125pt"][-1],
      "memmap-125pt-1024"),
    C("fig11", "9.3x over YASK at 1024 nodes (7-pt)", "4.65 < x < 18.6",
      "k2_strong_scaling", lambda d: gst("memmap:7pt", "yask:7pt")(d)[-1],
      "memmap-over-yask-7pt-1024"),
    C("fig11", "13.4x over YASK at 1024 nodes (125-pt)", "3 < x < 40",
      "k2_strong_scaling", lambda d: gst("memmap:125pt", "yask:125pt")(d)[-1],
      "memmap-over-yask-125pt-1024"),
    C("fig11", "the speedup grows with node count", "1 < x", "k2_strong_scaling",
      lambda d: gst("memmap:7pt", "yask:7pt")(d)[-1]
      / gst("memmap:7pt", "yask:7pt")(d)[0],
      "speedup-1024-over-8"),
    # -- FIG12: K2 comm vs comp (MemMap, 7-pt) ---------------------------
    C("fig12", "computation scales with volume (8x, 8 -> 64 nodes)", "6 < x < 10",
      "k2_strong_scaling",
      lambda d: d["comp_ms"]["memmap:7pt"][0] / d["comp_ms"]["memmap:7pt"][3],
      "comp-8-over-64"),
    C("fig12", "communication scales with surface, slower than volume", "x < 1",
      "k2_strong_scaling",
      lambda d: (d["comm_ms"]["memmap:7pt"][0] / d["comm_ms"]["memmap:7pt"][3])
      / (d["comp_ms"]["memmap:7pt"][0] / d["comp_ms"]["memmap:7pt"][3]),
      "comm-shrink-over-comp-shrink"),
    C("fig12", "comm/comp grows with node count", "1 < x", "k2_strong_scaling",
      lambda d: steps(over(d["comm_ms"]["memmap:7pt"], d["comp_ms"]["memmap:7pt"])),
      "comm-over-comp-steps"),
    C("fig12", "compute comparable at 8 nodes", "x < 3", "k2_strong_scaling",
      lambda d: d["comm_ms"]["memmap:7pt"][0] / d["comp_ms"]["memmap:7pt"][0],
      "comm-over-comp-8"),
    C("fig12", "communication dominates at 1024 nodes", "3 < x",
      "k2_strong_scaling",
      lambda d: d["comm_ms"]["memmap:7pt"][-1] / d["comp_ms"]["memmap:7pt"][-1],
      "comm-over-comp-1024"),
    # -- FIG13: V1 throughput, 8 V100s -----------------------------------
    C("fig13", "Layout_CA is the best overall", "1 < x", "v1_scaling",
      lambda d: gst("layout_ca", "layout_um")(d) + gst("layout_ca", "memmap_um")(d),
      "layout-ca-over-um"),
    C("fig13", "Layout and MemMap far better than MPI_Types", "1 < x",
      "v1_scaling",
      lambda d: [r for m in ("layout_ca", "layout_um", "memmap_um")
                 for r in gst(m, "mpi_types_um")(d)],
      "pack-free-over-mpi-types-um"),
    C("fig13", "V100 HBM far above the KNL figure at 512^3", "100 < x",
      "v1_scaling", lambda d: d["gstencils"]["layout_ca"][0], "layout-ca-512"),
    # -- FIG14: V1 communication time ------------------------------------
    C("fig14", "Layout_CA close to the Network_CA floor", "1 <= x < 1.6",
      "v1_comm_time", comm("layout_ca", "network_ca"), "layout-ca-over-network-ca"),
    C("fig14", "Layout_CA has the best communication", "1 < x", "v1_comm_time",
      lambda d: comm("layout_um", "layout_ca")(d) + comm("memmap_um", "layout_ca")(d),
      "um-over-layout-ca"),
    C("fig14", "MPI_Types_UM ~an order of magnitude worse", "10 <= x < 100",
      "v1_comm_time",
      lambda d: [r for m in ("layout_ca", "layout_um", "memmap_um")
                 for r in comm("mpi_types_um", m)(d)],
      "mpi-types-um-over-pack-free"),
    # -- FIG15: V1 compute time ------------------------------------------
    C("fig15", "Layout_CA computes best: no UM faults", "1 < x",
      "v1_compute_time", comp("memmap_um", "layout_ca"), "memmap-um-over-layout-ca"),
    C("fig15", "unaligned Layout_UM computes slower than MemMap_UM", "1 < x",
      "v1_compute_time", comp("layout_um", "memmap_um"), "layout-um-over-memmap-um"),
    # -- TAB2: padding and achieved bandwidth (64 KiB pages) -------------
    C("tab2", "Layout pads nothing", "x == 0", "table2_padding",
      lambda d: d["padding_pct"]["layout"], "layout-padding-pct"),
    C("tab2", "MemMap padding 2.4 .. 883.9 %", "0.5 < x < 2", "table2_padding",
      lambda d: over(d["padding_pct"]["memmap"], PAPER_PADDING_PCT),
      "memmap-padding-over-paper"),
    C("tab2", "MemMap padding grows as boxes shrink", "1 < x", "table2_padding",
      lambda d: steps(d["padding_pct"]["memmap"]), "memmap-padding-steps"),
    C("tab2", "MemMap_UM 17.1 .. 17.7 GB/s", "0.5 < x < 2", "table2_padding",
      lambda d: over(d["bandwidth_gbs"]["memmap_um"], PAPER_BW_MEMMAP_UM),
      "memmap-um-bw-over-paper"),
    C("tab2", "MemMap_UM near-flat: 17.7 / 17.1 = 1.04", "0.52 < x < 2.07",
      "table2_padding",
      lambda d: d["bandwidth_gbs"]["memmap_um"][-1]
      / d["bandwidth_gbs"]["memmap_um"][0],
      "memmap-um-bw-16-over-512"),
    C("tab2", "Layout bandwidths collapse: CA 4.7 / 16.0, UM 3.2 / 17.7", "x < 0.3",
      "table2_padding",
      lambda d: [d["bandwidth_gbs"][m][-1] / d["bandwidth_gbs"][m][0]
                 for m in ("layout_ca", "layout_um")],
      "layout-bw-16-over-512"),
    # -- FIG16: V2 strong scaling, 2048^3 --------------------------------
    C("fig16", "Layout_CA 18.3 TStencil/s at 1024 nodes", "9150 < x < 36600",
      "v2_strong_scaling", lambda d: d["gstencils"]["layout_ca:7pt"][-1],
      "layout-ca-7pt-1024"),
    C("fig16", "125-pt 8.1 TStencil/s at 1024 nodes", "4050 < x < 16200",
      "v2_strong_scaling", lambda d: d["gstencils"]["layout_ca:125pt"][-1],
      "layout-ca-125pt-1024"),
    C("fig16", "125-pt below the 7-pt (18.3 vs 8.1 TStencil/s)", "1 < x",
      "v2_strong_scaling", gst("layout_ca:7pt", "layout_ca:125pt"),
      "layout-ca-7pt-over-125pt"),
    C("fig16", "Layout_CA 5.8x over MPI_Types_UM at 1024 nodes", "2 < x < 30",
      "v2_strong_scaling", lambda d: gst("layout_ca:7pt", "mpi_types_um:7pt")(d)[-1],
      "layout-ca-over-mpi-types-um-1024"),
    C("fig16", "MemMap_UM 4.1x over MPI_Types_UM at 1024 nodes", "1.5 < x < 20",
      "v2_strong_scaling", lambda d: gst("memmap_um:7pt", "mpi_types_um:7pt")(d)[-1],
      "memmap-um-over-mpi-types-um-1024"),
    C("fig16", "Layout_CA leads MemMap_UM", "1 < x", "v2_strong_scaling",
      lambda d: gst("layout_ca:7pt", "memmap_um:7pt")(d)[-1],
      "layout-ca-over-memmap-um-1024"),
    C("fig16", "Layout_CA not yet at the strong-scaling limit", "1 < x",
      "v2_strong_scaling", lambda d: steps(d["gstencils"]["layout_ca:7pt"]),
      "layout-ca-7pt-steps"),
    # -- FIG17: V2 comm vs comp (7-pt) -----------------------------------
    C("fig17", "communication dominates at all scales (MPI_Types_UM)", "1 < x",
      "v2_strong_scaling",
      lambda d: over(d["comm_ms"]["mpi_types_um:7pt"],
                     d["comp_ms"]["mpi_types_um:7pt"]),
      "mpi-types-um-comm-over-comp"),
    C("fig17", "and at large scale for everyone", "1 < x", "v2_strong_scaling",
      lambda d: d["comm_ms"]["layout_ca:7pt"][-1] / d["comp_ms"]["layout_ca:7pt"][-1],
      "layout-ca-comm-over-comp-1024"),
    # -- FIG18: page-size sweep ------------------------------------------
    C("fig18", "larger pages are never faster", "1 < x", "fig18_pagesize",
      lambda d: comm("memmap_16KiB", "memmap_4KiB")(d)
      + comm("memmap_64KiB", "memmap_16KiB")(d),
      "larger-page-over-smaller"),
    C("fig18", "even 64 KiB pages beat YASK and MPI_Types", "1 < x",
      "fig18_pagesize",
      lambda d: comm("yask", "memmap_64KiB")(d) + comm("mpi_types", "memmap_64KiB")(d),
      "baselines-over-memmap-64k"),
    C("fig18", "page size not significant: a 2-4x gap at 16^3", "x < 8",
      "fig18_pagesize", comm("memmap_64KiB", "memmap_4KiB"), "64k-over-4k"),
    C("fig18", "and negligible on large boxes", "x < 1.2", "fig18_pagesize",
      lambda d: comm("memmap_64KiB", "memmap_4KiB")(d)[0], "64k-over-4k-512"),
    # -- TAB3: cost matrix (Strided Packing, Extra Msgs, CPU-GPU, Large Page)
    C("tab3", "Array: High, -, High, -", "x == ('High', '-', 'High', '-')",
      "table3_costs", lambda d: tuple(d["Array"]), "array"),
    C("tab3", "Layout: -, Low*, -, -", "x == ('-', 'Low*', '-', '-')",
      "table3_costs", lambda d: tuple(d["Layout"]), "layout"),
    C("tab3", "MemMap: -, -, -, Low**", "x == ('-', '-', '-', 'Low**')",
      "table3_costs", lambda d: tuple(d["MemMap"]), "memmap"),
    # -- D1: region-order quality ----------------------------------------
    C("d1", "Eq. 1: 42 messages in 3-D", "x == (42, 42)", "d1_layout_order",
      lambda d: tuple(d["messages"][d["order"].index(o)]
                      for o in ("surface3d", "annealed")),
      "surface3d-annealed-messages"),
    C("d1", "Fig. 2: the lexicographic order is not optimal", "42 < x",
      "d1_layout_order", lambda d: d["messages"][d["order"].index("lexicographic")],
      "lexicographic-messages"),
    C("d1", "fewer messages, never slower at 16^3", "1 < x", "d1_layout_order",
      lambda d: d["comm_ms"][d["order"].index("lexicographic")]
      / d["comm_ms"][d["order"].index("surface3d")],
      "lexicographic-over-surface3d"),
    # -- D3: ghost-cell expansion (Ding & He), modelled and executed -----
    C("d3", "wider ghosts amortize startup-bound exchanges", "x < 1.05",
      "d3_ghost_expansion", lambda d: d["per_step_ms"][1] / d["per_step_ms"][0],
      "per-step-g16-over-g8"),
    C("d3", "the trade never explodes", "x < 2", "d3_ghost_expansion",
      lambda d: d["per_step+redundant_ms"][-1] / d["per_step+redundant_ms"][0],
      "with-redundant-widest-over-g8"),
    C("d3", "communication-avoiding runs stay bit-exact", "x is True",
      "d3_expansion_executed", lambda d: d["exact"], "executed-exact"),
    C("d3", "period 8 cuts comm ~8x", "x < 0.25", "d3_expansion_executed",
      lambda d: d["comm_ms/step"][-1] / d["comm_ms/step"][0],
      "executed-comm-p8-over-p1"),
    C("d3", "redundant compute grows", "1 < x", "d3_expansion_executed",
      lambda d: d["calc_ms/step"][-1] / d["calc_ms/step"][0],
      "executed-calc-p8-over-p1"),
    C("d3", "the trade pays at this startup-bound size", "x < 1",
      "d3_expansion_executed", lambda d: d["total"][-1] / d["total"][0],
      "executed-total-p8-over-p1"),
    # -- D4: brick size --------------------------------------------------
    C("d4", "small bricks waste more large-page padding", "1 < x",
      "d4_brick_size", lambda d: d["padding_%"][0] / d["padding_%"][-1],
      "padding-4-over-16"),
]


@pytest.mark.parametrize(
    "claim", CLAIMS, ids=[f"{c.artifact}-{c.name}" for c in CLAIMS]
)
def test_claim(claim):
    x = claim.read(data(claim.call))
    for point in x if isinstance(x, list) else [x]:
        assert eval(claim.claim, {}, {"x": point}), (
            f"{claim.artifact.upper()} ({claim.paper}): {claim.claim} fails"
            f" at x = {point!r}; all of x: {x!r}"
        )


def test_every_artifact_has_a_claim():
    assert {c.artifact for c in CLAIMS} == set(ARTIFACTS)


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_results_file(name):
    """``benchmarks/results/<id>.txt`` is exactly ``repro figures <id>``."""
    assert (RESULTS / f"{name}.txt").read_text() == render(name)


def test_results_are_the_artifacts():
    stems = {p.stem for p in RESULTS.glob("*.txt")}
    assert stems - {SEARCH_TABLE} == set(ARTIFACTS)
