"""Golden schedule and golden price.

``golden_schedule.json`` was recorded at commit 238aa6b, *before* the
exchangers were folded onto one schedule IR: the plan digests from every
rank's message plan, the modelled prices from ``exchange_breakdown``, and
the executed exchangers' results from really running ``exchange()`` on
every rank.  Since then the schedule moved twice -- onto one IR, then
out of the rank threads into the run geometry's direction-keyed
template -- and may have moved no byte of schedule and no bit of
modelled time, so everything here compares exactly (``float.hex``).  A
change that means to alter a schedule or a price re-records the file and
says why.

The ``tables`` key was recorded later, before the slot assignment was
rebuilt from array operations: a digest of each geometry's storage
tables -- ``grid_index``, ``slot_coords``, the ``Section`` list, the
adjacency and the element permutation -- at 16^3, 32^3 and 48^3
subdomains and one 2-D problem, at alignment 1 and at MemMap's 4, 16 and
64 KiB page alignments, under periodic and open boundaries.
``python tests/test_golden_schedule.py`` re-records that key alone.
"""

import hashlib
import inspect
import json
from pathlib import Path

import pytest

from repro.core.geometry import CHECKABLE_METHODS, RunGeometry
from repro.core.methods import ALL_METHODS
from repro.core.model import exchange_breakdown
from repro.core.problem import StencilProblem
from repro.exchange.base import Exchanger
from repro.hardware.profiles import summit_v100, theta_knl
from repro.stencil.spec import SEVEN_POINT, TWENTY_FIVE_POINT_2D

GOLDEN_PATH = Path(__file__).parent / "golden_schedule.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
GEOMETRIES = {
    "32x32x32/2x2x2": ((32, 32, 32), (2, 2, 2)),
    "32x32x48/1x2x3": ((32, 32, 48), (1, 2, 3)),  # anisotropic
}
PROFILES = {"theta_knl": theta_knl, "summit_v100": summit_v100}
EXTENTS = ((16, 16, 16), (32, 32, 48))


def _problem(geometry, boundaries):
    extent, ranks = GEOMETRIES[geometry]
    return StencilProblem(
        extent, ranks, SEVEN_POINT, periodic=(boundaries == "periodic")
    )


def _hexes(breakdown):
    phases = ("pack", "call", "wait", "move")
    return [float(getattr(breakdown, p)).hex() for p in phases]


def _canonical(messages):
    return [(m.phase, m.peer, m.tag, m.nbytes, m.ranges) for m in messages]


@pytest.mark.parametrize("boundaries", ["periodic", "open"])
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("method", CHECKABLE_METHODS)
def test_plan_digest(method, geometry, boundaries):
    plans = RunGeometry(_problem(geometry, boundaries), method).plans
    canon = [
        (p.rank, p.nphases, _canonical(p.sends), _canonical(p.recvs))
        for p in plans
    ]
    digest = hashlib.sha256(repr(canon).encode()).hexdigest()
    assert digest == GOLDEN["plans"][f"{method}|{geometry}|{boundaries}"]
    # A plan is data: there is no unbound exchanger to fire.  Deriving
    # one took no communicator, fabric or buffer, and the only way to an
    # exchange is to bind a plan to a buffer.
    assert not isinstance(plans[0], Exchanger)
    assert not hasattr(plans[0], "exchange")
    buffer = inspect.signature(Exchanger.__init__).parameters["buffer"]
    assert buffer.default is inspect.Parameter.empty


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("method", ALL_METHODS)
def test_modelled_price(method, profile):
    for extent in EXTENTS:
        key = f"{method}|{profile}|{'x'.join(map(str, extent))}"
        try:
            price = exchange_breakdown(PROFILES[profile](), method, extent)
            got = " ".join(_hexes(price))
        except ValueError:  # GPU transport on a profile without a GPU
            got = "ValueError"
        assert got == GOLDEN["model"][key], key


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize(
    "geometry,boundaries",
    [("32x32x32/2x2x2", "periodic"), ("32x32x48/1x2x3", "open")],
)
@pytest.mark.parametrize(
    "method",
    ["layout", "basic", "memmap", "yask", "mpi_types", "shift", "brickpack"],
)
def test_exchanger_result(method, geometry, boundaries, profile):
    """``ExchangeResult`` of every rank: the recording executed the
    exchange; the result is a function of the plan, priced once per
    distinct plan by the run geometry."""
    results = RunGeometry(
        _problem(geometry, boundaries), method, PROFILES[profile](), 4096
    ).results
    rows = []
    for r in results:
        counters = (
            r.messages_sent, r.messages_received,
            r.payload_bytes_sent, r.wire_bytes_sent,
        )
        rows.append(" ".join(_hexes(r.breakdown) + [str(c) for c in counters]))
    golden = GOLDEN["results"][f"{method}|{profile}|{geometry}|{boundaries}"]
    assert rows[0] == golden["rank0"]
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == golden["all_ranks"]


#: Storage-table geometries: global extent and rank grid (2 ranks per
#: axis, so the subdomain is half the global extent).
TABLE_EXTENTS = {
    "16x16x16": ((32, 32, 32), (2, 2, 2)),
    "32x32x32": ((64, 64, 64), (2, 2, 2)),
    "48x48x48": ((96, 96, 96), (2, 2, 2)),
    "32x48": ((64, 96), (2, 2)),  # 2-D, anisotropic
}
#: ``layout`` is alignment 1; ``memmap@P`` aligns sections to P-byte pages.
TABLE_ALIGNMENTS = {"layout": None, "memmap@4096": 4096,
                    "memmap@16384": 16384, "memmap@65536": 65536}


def _table_geometry(extent, alignment, boundaries) -> RunGeometry:
    global_extent, ranks = TABLE_EXTENTS[extent]
    ndim = len(ranks)
    problem = StencilProblem(
        global_extent, ranks,
        SEVEN_POINT if ndim == 3 else TWENTY_FIVE_POINT_2D,
        brick_dim=(8,) * ndim, periodic=(boundaries == "periodic"),
    )
    page = TABLE_ALIGNMENTS[alignment]
    return RunGeometry(problem, "layout" if page is None else "memmap",
                       page_size=page)


def _array_digest(arr) -> str:
    head = f"{arr.dtype.str}{arr.shape}".encode()
    return hashlib.sha256(head + arr.tobytes()).hexdigest()


def _table_digests(geometry: RunGeometry) -> dict:
    asn = geometry.assignment

    def bits(s):
        return None if s is None else sorted(s)

    sections = [
        (s.kind, s.start, s.nbricks, s.box_lo, s.box_extent, bits(s.region),
         bits(s.neighbor), s.padded_nbricks)
        for s in asn.sections
    ]
    return {
        "slots": f"{asn.alignment} {asn.total_slots}",
        "grid_index": _array_digest(asn.grid_index),
        "slot_coords": _array_digest(asn.slot_coords),
        "sections": hashlib.sha256(repr(sections).encode()).hexdigest(),
        "adjacency": _array_digest(geometry.brick_info.adjacency),
        "permutation": _array_digest(geometry.permutation),
    }


def _table_cases():
    return [
        f"{extent}|{alignment}|{boundaries}"
        for extent in TABLE_EXTENTS
        for alignment in TABLE_ALIGNMENTS
        for boundaries in ("periodic", "open")
    ]


@pytest.mark.parametrize("case", _table_cases())
def test_storage_tables(case):
    """The slot assignment, adjacency and permutation of every geometry
    are the tables recorded before the assignment was rebuilt."""
    geometry = _table_geometry(*case.split("|"))
    assert _table_digests(geometry) == GOLDEN["tables"][case]


if __name__ == "__main__":
    doc = json.loads(GOLDEN_PATH.read_text())
    doc["tables"] = {
        case: _table_digests(_table_geometry(*case.split("|")))
        for case in _table_cases()
    }
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
