"""One composition property: every method under any combination of
features is bit-identical to the serial reference and reports what its
bound plans priced.  ``ROWS`` is a deterministic pairwise covering set of
2 x 2 x 2 runs (every valid pair of axis values in at least one row),
seeded with the configurations of three or more features pairwise
coverage alone does not promise.  The oracles come from the
configuration and the run geometry, never from a second run: bits,
every rank's ledger, the restarts, epochs, reshapes and demotions the
schedule predicts, healed retries, one loop entry per rank per launch,
what each checkpoint epoch holds, the trace's step spans.
"""

import functools
import itertools
import math
from collections import namedtuple
from contextlib import nullcontext

import numpy as np
import pytest

from repro import obs
from repro.ckpt import CheckpointStore
from repro.core import driver, expansion
from repro.core.geometry import RunGeometry
from repro.core.methods import method_info
from repro.core.model import compute_time
from repro.core.problem import StencilProblem
from repro.core.runplan import RankRunPlan
from repro.faults import FaultPlan
from repro.stencil import cbackend
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import CUBE125, SEVEN_POINT
from repro.util.indexing import unravel_index
from repro.util.timing import TimeBreakdown

AXES = {
    "method": ("layout", "basic", "memmap", "yask", "yask_ol", "mpi_types", "shift"),
    "stencil": ("7pt", "125pt"),
    "period": (1, 2, 3),  # exchange period
    "bounds": ("periodic", "open"),
    "ckpt": (0, 1, 3),  # checkpoint period, 0: no store
    "resume": ("none", "exchange", "mid"),  # the epoch a crash resumes from
    "wire": ("plain", "verified", "faults"),
    "degrade": (False, True),  # one MemMap degradation event
    "elastic": (False, True),  # one permanent death, reshaped around
    "trace": (False, True),
}
Case = namedtuple("Case", AXES)

STEPS = 4
STENCILS = {"7pt": SEVEN_POINT, "125pt": CUBE125}
BRICK = {1: 8, 2: 4, 3: 2}  # per exchange period: the cycle fits a ghost of 8
CRASH_RANK, DEATH_RANK, DEGRADE_RANK = 1, 3, 0
ELASTIC_EXTENT, ELASTIC_DIMS = (32, 32, 48), (1, 2, 3)
WIRE_FAULTS = dict(drop=0.01, corrupt=0.01, duplicate=0.01)
_PLAIN = Case("layout", "7pt", 1, "periodic", 0, "none", "plain", False, False, False)

#: Refused before any rank starts: name -> (rule, words of the
#: ``ValueError``, an example row), each with the reason.  The host
#: and problem refusals no row can express are ``HOST_REFUSED``.
REFUSED = {
    # A reshape re-bricks a checkpoint epoch.
    "elastic-without-store": (lambda c: c.elastic and not c.ckpt, "elastic",
                              _PLAIN._replace(elastic=True)),
    # Re-bricking rebuilds ghost shells by periodic wrap.
    "elastic-open-boundaries": (lambda c: c.elastic and c.bounds == "open", "periodic",
                                _PLAIN._replace(elastic=True, ckpt=1, bounds="open")),
    # Only MemMap has a degradation ladder.
    "degrade-not-memmap": (lambda c: c.degrade and c.method != "memmap", "memmap",
                           _PLAIN._replace(degrade=True)),
}


def _degrade_step(case):
    """The exchange step whose vote demotes MemMap to basic Layout."""
    return case.period if case.degrade else None


def _resume_epoch(case):
    """The first snapshot step at the requested cycle position (after the
    demotion, if any), or None.  Every rank of a 2 x 2 x 2 world saved it
    before posting an exchange a crash at ``epoch + 1`` needed."""
    if case.resume == "none" or not case.ckpt:
        return None
    for epoch in range(case.ckpt, 4 * case.ckpt * case.period, case.ckpt):
        mid = epoch % case.period != 0
        if epoch > (_degrade_step(case) or 0) and mid == (case.resume == "mid"):
            return epoch
    return None


def _plan(case):
    """``(steps, crash step, death step, resumed epoch)`` of a row."""
    resumed = _resume_epoch(case)
    crash = None if resumed is None else resumed + 1
    death, epoch = None, -1 if resumed is None else resumed
    if case.elastic:
        # One step past an exchange at or after the crash, which the dying
        # rank cannot pass before the crashed launch has failed.  The
        # reshape re-bricks the newest epoch every old rank saved.
        death = 4 if crash is None else -(-crash // case.period) * case.period + 1
        epoch = (death - 1) // case.ckpt * case.ckpt
    last = max(s or 0 for s in (crash, death, _degrade_step(case)))
    return max(STEPS, last + 1), crash, death, epoch


SEEDS = tuple(
    _PLAIN._replace(method=m, period=p, bounds=b, ckpt=k, resume=r, degrade=d,
                    elastic=e)
    for m, p, b, k, r, d, e in (
        # Demoted at the second exchange, crashed and resumed -- or
        # reshaped -- after the demotion: the rung must stay demoted.
        ("memmap", 2, "periodic", 1, "exchange", True, False),
        ("memmap", 2, "periodic", 1, "mid", True, False),
        ("memmap", 1, "open", 1, "exchange", True, False),
        ("memmap", 1, "periodic", 1, "none", True, True),
        # Open boundaries: the ghosts no neighbour sends into stay live.
        ("layout", 2, "open", 1, "mid", False, False),
        ("yask", 2, "open", 1, "exchange", False, False),
        # Every third step checkpointed, resumed at either cycle position.
        ("layout", 2, "periodic", 3, "exchange", False, False),
        ("yask", 2, "periodic", 3, "mid", False, False),
    )
)


def _cost(case):
    """Rough run time in plain launches (measured): relaunches, reshapes
    and 125-pt kernels built for the reshaped worlds' shapes."""
    cube = case.stencil == "125pt"
    return (1 + 2 * (case.resume != "none") + 4 * case.elastic * (1 + cube)
            + (case.wire == "faults"))


@functools.lru_cache(maxsize=None)
def _valid_rows():
    """Rows that run: the resume epoch exists and nothing refuses them."""
    rows = map(Case._make, itertools.product(*AXES.values()))
    return [c for c in rows if (c.resume == "none" or _resume_epoch(c) is not None)
            and not any(rule(c) for rule, *_ in REFUSED.values())]


def _pairs(case):
    return itertools.combinations(enumerate(case), 2)


def _pairwise_rows():
    """The seeds, then greedily the valid row whose uncovered pairs
    outnumber half its cost the most (the first in axis order)."""
    valid, index = _valid_rows(), {}
    ids = np.array([[index.setdefault(p, len(index)) for p in _pairs(c)]
                    for c in valid])
    covered = np.zeros(len(index), dtype=bool)
    for seed in SEEDS:
        covered[[index[p] for p in _pairs(seed)]] = True
    half_cost = np.array([_cost(case) for case in valid]) / 2
    rows = list(SEEDS)
    while not covered.all():
        new = (~covered[ids]).sum(axis=1)
        best = int(np.argmax(np.where(new > 0, new - half_cost, -np.inf)))
        rows.append(valid[best])
        covered[ids[best]] = True
    return tuple(rows)


def _row_id(case):
    parts = [case.method, case.stencil, f"x{case.period}", case.bounds]
    parts += [f"ck{case.ckpt}"] * bool(case.ckpt)
    parts += [f"resume_{case.resume}"] * (case.resume != "none")
    flags = [a for a in ("degrade", "elastic", "trace") if getattr(case, a)]
    return "-".join(parts + [case.wire] + flags)


ROWS = _pairwise_rows()


def test_rows_cover_every_valid_pair():
    wanted = {p for case in _valid_rows() for p in _pairs(case)}
    assert wanted <= {p for case in ROWS for p in _pairs(case)}
    assert set(SEEDS) <= set(ROWS) <= set(_valid_rows())
    assert len(set(map(_row_id, ROWS))) == len(ROWS)


def _problem(case, dims=(2, 2, 2)):
    return StencilProblem(
        ELASTIC_EXTENT if case.elastic else (32, 32, 32), dims,
        STENCILS[case.stencil], (BRICK[case.period],) * 3, 8,
        periodic=case.bounds == "periodic",
    )


@functools.lru_cache(maxsize=None)
def _answer(stencil, elastic, open_period, steps):
    """The serial periodic reference, a step past the cached one before;
    given *open_period*, the plain ``layout`` run of that open problem."""
    bounds = "open" if open_period else "periodic"
    problem = _problem(_PLAIN._replace(
        stencil=stencil, elastic=elastic, period=open_period or 1, bounds=bounds))
    if open_period:
        return driver.run_executed(problem, "layout", timesteps=steps).global_result
    if not steps:
        return problem.initial_global(0)
    return apply_periodic_reference(
        _answer(stencil, elastic, 0, steps - 1), problem.stencil, 1
    )


def _calc_table(geometry, period, rank):
    """Modelled kernel seconds per cycle position of *rank*: no sweep
    grows past an open face."""
    problem, spec = geometry.problem, geometry.problem.stencil
    info = method_info(geometry.method)
    faces = expansion.open_faces(problem, unravel_index(rank, problem.rank_dims))
    if info.uses_bricks:
        decomp = geometry.decomp
        depths = expansion.depths_for_period(period, decomp.width)
        slots = expansion.brick_cycle_slots(
            decomp, geometry.assignment, spec.radius, depths, faces
        )
        points = [len(s) * decomp.brick_volume for s in slots]
    else:
        points = [
            math.prod(e + (not lo) * m + (not hi) * m
                      for e, (lo, hi) in zip(geometry.extent, faces))
            for m in expansion.margins_for_period(period, spec.radius, problem.ghost)
        ]
    return [compute_time(geometry.profile, info, n, spec) for n in points]


def _assert_ledgers(run, geometry, case, start, steps, engine_at):
    """Every rank's ledger is, with ``==``, the price of the engine in
    force at each exchange step of ``[start, steps)``, charged as the
    run loop charges it, plus the calc table."""
    hides_wait = method_info(case.method).overlaps
    for rank, ledger in enumerate(run.metrics.ranks):
        calc = _calc_table(geometry, case.period, rank)
        want, messages, wire, exchanges = TimeBreakdown(), 0, 0, 0
        for t in range(start, steps):
            cost = calc[t % case.period]
            if t % case.period == 0:
                fired = geometry.schedule(engine_at(t))[1][rank]
                price = fired.breakdown
                cost += fired.first_touch
                want.wait += max(0.0, price.wait - cost) if hides_wait else price.wait
                want.pack += price.pack
                want.call += price.call
                want.move += price.move
                messages += fired.messages_sent
                wire += fired.wire_bytes_sent
                exchanges += 1
            want.calc += cost
        assert ledger.totals.as_dict() == want.as_dict(), rank
        assert (ledger.timesteps, ledger.exchanges) == (steps - start, exchanges)
        assert (ledger.messages, ledger.wire_bytes) == (messages, wire)


def _assert_holds_what_restore_reads(store, nranks, case):
    """No received ghost section at an exchange-step epoch (on open
    boundaries only the ghosts no neighbour sends into); one ghost set,
    the margin the next sweep reads, at every mid-cycle epoch; an array
    rank's one ``array`` run."""
    epochs = store.consistent_epochs(nranks)
    assert epochs
    for rank in range(nranks):
        held = {e: [s[0] for run in store.manifest(rank, e)["runs"]
                    for s in run["sections"]] for e in epochs}
        if not method_info(case.method).uses_bricks:
            assert all(names == ["array"] for names in held.values())
            continue
        ghosts = {e: frozenset(n for n in names if n.startswith("ghost:"))
                  for e, names in held.items()}
        mid = {g for e, g in ghosts.items() if e % case.period}
        assert all(mid) and len(mid) <= 1
        for g in (g for e, g in ghosts.items() if not e % case.period):
            if case.bounds == "periodic":
                assert not g
            else:
                assert g and all(g < m for m in mid)


def _kwargs(case, steps, crash, death, tmp_path):
    kwargs = dict(timesteps=steps, seed=0, exchange_period=case.period,
                  fabric_timeout=20.0, elastic=case.elastic)
    faults = dict(WIRE_FAULTS) if case.wire == "faults" else {}
    if crash is not None:
        faults["crashes"] = ((CRASH_RANK, crash),)
    if death is not None:
        faults["deaths"] = ((DEATH_RANK, death),)
    if case.degrade:
        faults["degrade"] = ((DEGRADE_RANK, _degrade_step(case)),)
    if faults:
        kwargs["fault_plan"] = FaultPlan(seed=7, **faults)
    if case.ckpt:
        kwargs.update(checkpoint_dir=tmp_path, checkpoint_period=case.ckpt)
    return dict(kwargs, verify_wire=case.wire == "verified")


@pytest.mark.parametrize("case", ROWS, ids=_row_id)
def test_composes(case, tmp_path, monkeypatch):
    if case.method == "memmap" and not driver.realmap_available():
        pytest.skip("no memfd_create / mmap(MAP_FIXED): MemMap is refused")
    steps, crash, death, epoch = _plan(case)
    problem = _problem(case)
    open_period = case.period * (case.bounds == "open")
    want = _answer(case.stencil, case.elastic, open_period, steps).view(np.uint64)
    entries, real_run = [], RankRunPlan.run
    monkeypatch.setattr(
        RankRunPlan, "run", lambda rp, *a: entries.append(rp.rank) or real_run(rp, *a)
    )
    with obs.observed() if case.trace else nullcontext() as tracer:
        run = driver.run_executed(
            problem, case.method, **_kwargs(case, steps, crash, death, tmp_path)
        )
        spans = [ev.name for ev in tracer.events()] if case.trace else []

    np.testing.assert_array_equal(run.global_result.view(np.uint64), want)
    assert run.kernel_backend.split()[0] == "cffi"
    restarts, reshapes = int(crash is not None), int(death is not None)
    final = _problem(case, ELASTIC_DIMS) if reshapes else problem
    assert (run.restarts, run.resumed_epoch, run.reshapes, run.dead_ranks) == (
        restarts, epoch, reshapes, (DEATH_RANK,) * reshapes)
    assert (run.final_rank_dims, run.exchange_period) == (final.rank_dims, case.period)
    base, demoted = method_info(case.method).base, _degrade_step(case)

    def engine_at(t):
        return "basic" if demoted is not None and t >= demoted else base

    geometry = RunGeometry(final, case.method)
    assert run.final_method == geometry.schedule(engine_at(steps))[0][0].method
    assert run.demotions == final.nranks * case.degrade
    events = (run.faults or {}).get("events", {})
    assert events.get("retry", 0) == events.get("healed", 0)
    if case.wire == "faults":
        assert sum(events.get(f"injected_{k}", 0) for k in WIRE_FAULTS) > 0
    if case.wire == "faults" and not (restarts or reshapes):
        # (A failed launch's fabric goes with the duplicates it held.)
        assert events.get("duplicate_discarded") == events.get("injected_duplicate")
    assert run.fabric.pending_messages == 0
    launches = [problem.nranks] * (1 + restarts) + [final.nranks] * reshapes
    assert sorted(entries) == sorted(r for n in launches for r in range(n))
    # A reshaped world's ledger starts at the epoch it restored.
    start = epoch if reshapes else 0
    _assert_ledgers(run, geometry, case, start, steps, engine_at)
    if case.ckpt:
        store = CheckpointStore(tmp_path)
        _assert_holds_what_restore_reads(store, problem.nranks, case)
    if case.trace and not (restarts or reshapes):
        assert spans.count("driver.step") == problem.nranks * steps
        exchanges = len(range(0, steps, case.period))
        assert spans.count("driver.exchange") == problem.nranks * exchanges


@pytest.mark.parametrize("name", REFUSED)
def test_refused_up_front(name, tmp_path, monkeypatch):
    rule, words, case = REFUSED[name]
    assert [n for n, (r, *_) in REFUSED.items() if r(case)] == [name]
    launched = []
    monkeypatch.setattr(driver, "run_spmd", lambda *a, **k: launched.append(a))
    requests = [_kwargs(case, STEPS, None, None, tmp_path)]
    if case.degrade:
        requests.append(dict(degrade=True))  # the flag alone, without a plan
    for kwargs in requests:
        with pytest.raises(ValueError, match=words):
            driver.run_executed(_problem(case), case.method, **kwargs)
    assert not launched


#: Refused before any rank starts, whatever the row: name -> (what the
#: host lacks, as a patch of ``cbackend``, or the problem's dtype; words
#: of the ``ValueError``).  The kernels and movers are compiled C over
#: float64 memory, and there is no other tier to step on.
HOST_REFUSED = {
    "no-compiler": (("_compiler", lambda: None), None, "C compiler"),
    "no-cffi": (("cffi", None), None, "cffi"),
    "float32": (None, np.float32, "float32"),
}


@pytest.mark.parametrize("name", HOST_REFUSED)
def test_host_refused_up_front(name, monkeypatch):
    patch, dtype, words = HOST_REFUSED[name]
    if patch is not None:
        monkeypatch.setattr(cbackend, *patch)
    problem = _problem(_PLAIN)
    if dtype is not None:
        problem.dtype = np.dtype(dtype)
    launched = []
    monkeypatch.setattr(driver, "run_spmd", lambda *a, **k: launched.append(a))
    for method in ("layout", "memmap", "yask"):
        with pytest.raises(ValueError, match=words):
            driver.run_executed(problem, method, timesteps=STEPS)
    assert not launched


def test_memmap_refused_without_memfd(monkeypatch):
    """A host without memfd refuses MemMap before any rank starts, ladder
    or not (``REFUSED`` rules are functions of the row, this one of the
    host); Layout still runs there, bit-exact."""
    monkeypatch.setattr(driver, "realmap_available", lambda: False)
    launched, real_spmd = [], driver.run_spmd
    monkeypatch.setattr(
        driver, "run_spmd", lambda *a, **k: launched.append(a) or real_spmd(*a, **k)
    )
    problem = _problem(_PLAIN)
    for kwargs in ({}, dict(degrade=True)):
        with pytest.raises(ValueError, match="memfd_create"):
            driver.run_executed(problem, "memmap", **kwargs)
    assert not launched
    run = driver.run_executed(problem, "layout", timesteps=STEPS)
    np.testing.assert_array_equal(
        run.global_result.view(np.uint64),
        _answer(_PLAIN.stencil, False, 0, STEPS).view(np.uint64),
    )
