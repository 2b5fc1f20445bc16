"""One geometry per run.

The launching thread builds what every rank shares -- decomposition,
slot assignment, adjacency, conversion table, schedule, initial condition --
once per launched world, and each engine's rank-invariant bind tables
once per world when a rank first binds it; ``repro check``, the
healability test, the ladder, re-bricking and the ranks all read that
one frozen object.
"""

import dataclasses
import sys

import numpy as np
import pytest

import repro.brick.convert as convert
import repro.check
import repro.core.driver as driver
import repro.core.geometry as geometry_mod
import repro.elastic.recovery as recovery
from repro.brick.decomp import BrickDecomp
from repro.brick.storage import BrickStorage
from repro.core.driver import run_executed
from repro.core.geometry import RunGeometry
from repro.core.problem import StencilProblem
from repro.exchange import make_exchanger
from repro.exchange.base import Exchanger
from repro.faults import FaultPlan
from repro.faults.errors import ExchangeConfigError
from repro.simmpi.comm import SimComm
from repro.simmpi.fabric import SimFabric
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import CUBE125, SEVEN_POINT

BRICK_METHODS = ("layout", "memmap")
ARRAY_METHODS = ("yask", "mpi_types")


def _problem(extent=(32, 32, 32), ranks=(2, 2, 2), stencil=SEVEN_POINT):
    return StencilProblem(extent, ranks, stencil)


def _elastic_kwargs(tmp_path):
    """The 8 -> 6 run of the issue: ends on (1, 2, 3)."""
    return dict(
        timesteps=8, checkpoint_dir=tmp_path, checkpoint_period=2,
        elastic=True, fault_plan=FaultPlan(seed=1, deaths=((3, 5),)),
    )


ELASTIC_PROBLEM = dict(extent=(32, 32, 48))


# ----------------------------------------------------------------------
# (a) one construction per launched world
# ----------------------------------------------------------------------
@pytest.fixture
def built(monkeypatch):
    """Counts of every rank-invariant construction, by name.  The trial
    decompositions ``elastic/placement.py`` validates candidate rank
    grids with (they build no assignment) are counted apart."""
    names = ("decomp", "assignment", "brick_info", "conversion", "initial",
             "template")
    counts = dict.fromkeys(names + tuple("trial_" + n for n in names), 0)
    counts["tables"] = {}  # per engine base: bind-table derivations
    placing = []

    def counted(name, fn, miss=lambda *a, **k: True):
        def wrapper(*args, **kwargs):
            if miss(*args, **kwargs):
                counts["trial_" + name if placing else name] += 1
            return fn(*args, **kwargs)

        return wrapper

    tabulate = RunGeometry._tabulate

    def tabulating(self, base, plans):
        counts["tables"][base] = counts["tables"].get(base, 0) + 1
        return tabulate(self, base, plans)

    def choosing(fn):
        def wrapper(*args, **kwargs):
            placing.append(True)
            try:
                return fn(*args, **kwargs)
            finally:
                placing.pop()

        return wrapper

    def conversion_miss(decomp, assignment, fld=0, owned=True):
        # The owned bricks' table a geometry builds; re-bricking's
        # grid-wide tables are the elastic snapshot's, not a world's.
        cache = vars(decomp).get("_conversion_cache", {})
        return owned and (assignment.alignment, fld, owned) not in cache

    monkeypatch.setattr(
        BrickDecomp, "__init__", counted("decomp", BrickDecomp.__init__)
    )
    monkeypatch.setattr(
        BrickDecomp, "assignment",
        counted(
            "assignment", BrickDecomp.assignment,
            lambda self, alignment=1: alignment not in self._assignments,
        ),
    )
    monkeypatch.setattr(
        BrickDecomp, "brick_info", counted("brick_info", BrickDecomp.brick_info)
    )
    conversion = counted(
        "conversion", convert.conversion_table, conversion_miss
    )
    monkeypatch.setattr(convert, "conversion_table", conversion)
    monkeypatch.setattr(geometry_mod, "conversion_table", conversion)
    monkeypatch.setattr(
        StencilProblem, "initial_global",
        counted("initial", StencilProblem.initial_global),
    )
    monkeypatch.setattr(
        geometry_mod, "schedule_template",
        counted("template", geometry_mod.schedule_template),
    )
    monkeypatch.setattr(
        recovery, "choose_rank_dims", choosing(recovery.choose_rank_dims)
    )
    monkeypatch.setattr(RunGeometry, "_tabulate", tabulating)
    return counts


def _expected(method, worlds=1, initial=None, engines=None):
    bricks = worlds if method in BRICK_METHODS else 0
    return {
        "decomp": bricks, "assignment": bricks, "brick_info": bricks,
        "conversion": bricks, "template": worlds * len(engines or (method,)),
        "initial": worlds if initial is None else initial,
        "tables": {base: worlds for base in engines or (method,)},
    }


def _without_trials(counts):
    return {k: v for k, v in counts.items() if not k.startswith("trial_")}


class TestOneConstructionPerWorld:
    @pytest.mark.parametrize("method", BRICK_METHODS + ARRAY_METHODS)
    def test_plain_run(self, built, method):
        run_executed(_problem(), method, timesteps=2)
        assert _without_trials(built) == _expected(method)

    @pytest.mark.parametrize("method", ["layout", "memmap", "yask"])
    def test_checked_run_builds_nothing_twice(self, built, method):
        run_executed(_problem(), method, timesteps=2, check="strict")
        assert _without_trials(built) == _expected(method)

    @pytest.mark.parametrize("method", ["layout", "yask"])
    def test_wire_fault_run(self, built, method):
        # Injection and healing build nothing twice either.
        plan = FaultPlan(seed=3, drop=0.01, corrupt=0.01)
        run = run_executed(
            _problem(), method, timesteps=2, fault_plan=plan,
        )
        assert run.faults is not None
        assert _without_trials(built) == _expected(method)

    def test_crash_restart_relaunches_the_same_world(self, built, tmp_path):
        run = run_executed(
            _problem(), "layout", timesteps=4, checkpoint_dir=tmp_path,
            checkpoint_period=1,
            fault_plan=FaultPlan(seed=1, crashes=((1, 2),)),
        )
        assert run.restarts == 1
        assert _without_trials(built) == _expected("layout")

    @pytest.mark.parametrize("method", ["layout", "yask"])
    def test_elastic_run_builds_each_world_once(self, built, tmp_path, method):
        problem = _problem(**ELASTIC_PROBLEM)
        run = run_executed(
            problem, method, check="strict", **_elastic_kwargs(tmp_path)
        )
        assert run.reshapes == 1 and run.final_rank_dims == (1, 2, 3)
        assert run.resumed_epoch >= 0
        # Two worlds, two of each; the resumed one needs no initial
        # condition.  Placement's candidate validation is not a world.
        assert _without_trials(built) == _expected(method, worlds=2, initial=1)
        assert built["trial_decomp"] > 0
        assert built["trial_assignment"] == built["trial_brick_info"] == 0
        np.testing.assert_array_equal(
            run.global_result,
            apply_periodic_reference(problem.initial_global(0), SEVEN_POINT, 8),
        )

    def test_degradation_ladder_tabulates_each_rung_once(self, built):
        # One demotion: each rung's schedule and bind tables are built
        # once, by the first rank that binds it, for all eight.
        run = run_executed(
            _problem(), "memmap", timesteps=4,
            fault_plan=FaultPlan(seed=2, degrade=((1, 1),)),
        )
        assert run.final_method == "basic"
        assert _without_trials(built) == _expected(
            "memmap", engines=("memmap", "basic")
        )

    def test_resumed_run_builds_no_initial_condition(self, built, tmp_path):
        kwargs = dict(checkpoint_dir=tmp_path, checkpoint_period=1)
        run_executed(_problem(), "layout", timesteps=2, **kwargs)
        built["initial"] = 0
        run = run_executed(
            _problem(), "layout", timesteps=4, resume=True, **kwargs
        )
        assert run.resumed_epoch >= 0
        assert built["initial"] == 0


# ----------------------------------------------------------------------
# (b) identity: what is checked is what is bound
# ----------------------------------------------------------------------
@pytest.fixture
def observed(monkeypatch):
    """What the verifier received, and what each rank then used."""
    seen = {"verified": [], "schedules": [], "launched": [], "bound": [],
            "infos": []}

    check_geometry = repro.check.check_geometry

    def checking(geometry, *args, **kwargs):
        seen["verified"].append(geometry)
        return check_geometry(geometry, *args, **kwargs)

    verify_schedule = repro.check.api.verify_schedule

    def verifying(plans, *args, **kwargs):
        seen["schedules"].append(plans)
        return verify_schedule(plans, *args, **kwargs)

    rank_fn = driver._rank_fn

    def launching(comm, geometry, *args):
        seen["launched"].append(geometry)  # list.append is atomic
        return rank_fn(comm, geometry, *args)

    make_channel = Exchanger.make_channel

    def binding(self):
        seen["bound"].append(self.plan)
        return make_channel(self)

    compile_brick_plan = driver.compile_brick_plan

    def compiling(spec, info, *args, **kwargs):
        seen["infos"].append(info)
        return compile_brick_plan(spec, info, *args, **kwargs)

    monkeypatch.setattr(repro.check, "check_geometry", checking)
    monkeypatch.setattr(repro.check.api, "verify_schedule", verifying)
    monkeypatch.setattr(driver, "_rank_fn", launching)
    monkeypatch.setattr(Exchanger, "make_channel", binding)
    monkeypatch.setattr(driver, "compile_brick_plan", compiling)
    return seen


class TestCheckedObjectIsBoundObject:
    @pytest.mark.parametrize("method", ["layout", "memmap", "yask"])
    def test_bound_plan_is_verified_plan(self, observed, method):
        run_executed(_problem(), method, timesteps=2, check="strict")
        (geometry,) = observed["verified"]
        (plans,) = observed["schedules"]
        assert len(observed["bound"]) == 2 * 8  # two buffers per rank
        for plan in observed["bound"]:
            assert plan is plans[plan.rank] is geometry.plans[plan.rank]
        assert all(g is geometry for g in observed["launched"])
        if method != "yask":
            adjacency = geometry.brick_info.adjacency
            assert len(observed["infos"]) == 8
            assert all(i.adjacency is adjacency for i in observed["infos"])

    def test_every_world_is_verified_before_it_launches(
        self, observed, tmp_path
    ):
        """``check=`` used to verify the caller's problem once, so the
        decomposition an elastic run finished on was never checked."""
        run = run_executed(
            _problem(**ELASTIC_PROBLEM), "layout", check="strict",
            **_elastic_kwargs(tmp_path)
        )
        assert run.final_rank_dims == (1, 2, 3)
        old, new = observed["verified"]  # once per distinct world
        assert old.problem.rank_dims == (2, 2, 2)
        assert new.problem.rank_dims == (1, 2, 3)
        launched = observed["launched"]
        assert [g is old for g in launched[:8]] == [True] * 8
        assert [g is new for g in launched[8:]] == [True] * 6
        # ... and the resumed ranks bound the new world's verified plans.
        for plan in observed["bound"][-12:]:
            assert plan is new.plans[plan.rank]

    def test_restart_in_place_reuses_the_verified_geometry(
        self, observed, tmp_path
    ):
        run = run_executed(
            _problem(), "layout", timesteps=4, checkpoint_dir=tmp_path,
            checkpoint_period=1, check="strict",
            fault_plan=FaultPlan(seed=1, crashes=((1, 2),)),
        )
        assert run.restarts == 1
        (geometry,) = observed["verified"]
        assert len(observed["launched"]) == 16
        assert all(g is geometry for g in observed["launched"])


# ----------------------------------------------------------------------
# Shared means read-only; scratch is never shared
# ----------------------------------------------------------------------
class TestFrozenGeometry:
    @pytest.mark.parametrize("method", ["layout", "memmap", "yask", "mpi_types"])
    def test_every_exposed_array_is_read_only(self, method):
        geometry = RunGeometry(_problem(), method)
        arrays = [geometry.initial(0)]
        if geometry.decomp is not None:
            arrays += [
                geometry.brick_info.adjacency,
                geometry.assignment.grid_index,
                geometry.assignment.slot_coords,
                *geometry.conversion,
            ]
        # The bind table: shared by every rank -- a tuple, and the box
        # table's arrays read-only.
        tables = geometry.tables(geometry.base)
        assert geometry.tables(geometry.base) is tables  # built once
        assert all(t is tables[0] for t in tables)  # one partner set
        table = tables[0]
        assert isinstance(table, tuple)
        arrays += [v for v in table if isinstance(v, np.ndarray)]
        assert not any(isinstance(v, list) for v in table)
        if geometry.decomp is None:
            assert len(arrays) == 3  # the box tables' send and recv
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr.reshape(-1)[0] = 0
        assert geometry.initial(0) is arrays[0]  # built once

    def test_ladder_rungs_come_from_the_geometry(self):
        geometry = RunGeometry(_problem(), "memmap")
        assert geometry.schedule("memmap")[0] is geometry.plans
        basic, _ = geometry.schedule("basic")
        assert geometry.schedule("basic")[0] is basic  # derived once
        assert {p.method for p in basic} == {"basic"}
        assert len(geometry.plans[0].sends) == 26 < len(basic[0].sends)

    def test_distinct_plans_are_priced_once(self):
        periodic = RunGeometry(_problem(), "layout")
        assert len({id(r) for r in periodic.results}) == 1
        # Open 1x2x3: corner, edge and face ranks differ; equal partner
        # sets share one result object.
        opened = RunGeometry(
            StencilProblem((32, 32, 48), (1, 2, 3), SEVEN_POINT, periodic=False),
            "layout",
        )
        partners = [
            frozenset(m.spec.neighbor for m in p.sends) for p in opened.plans
        ]
        assert len({id(r) for r in opened.results}) == len(set(partners))


@pytest.mark.parametrize("stencil", [SEVEN_POINT, CUBE125], ids=["7pt", "125pt"])
def test_shared_geometry_is_not_a_data_race(stencil):
    """20 back-to-back 8-rank runs per method: with one BrickInfo shared
    by the rank threads, a plan cached on it (or a conversion scratch on
    the decomp) made a handful of runs per hundred differ from the
    reference -- the C kernel writes its halo tile with the GIL
    released.  Each rank now compiles its own plan."""
    problem = _problem(stencil=stencil)
    reference = apply_periodic_reference(problem.initial_global(0), stencil, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # provoke interleavings the default hides
    try:
        for method in BRICK_METHODS:
            for _ in range(20):
                run = run_executed(problem, method, timesteps=2)
                np.testing.assert_array_equal(run.global_result, reference)
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# Binding from the geometry's tables refuses what binding always refused
# ----------------------------------------------------------------------
def _bound_geometry(method):
    """The geometry whose engine *method* binds, and that engine's base:
    ``basic`` is the MemMap ladder's rung, bound over MemMap's padded
    storage."""
    if method == "basic":
        return RunGeometry(_problem(), "memmap"), method
    return RunGeometry(_problem(), method), method


def _storage(geometry, nslots=None, dtype=np.float64, nfields=1):
    decomp = geometry.decomp
    nslots = geometry.assignment.total_slots if nslots is None else nslots
    elems = decomp.brick_volume * nfields
    if geometry.base == "memmap":
        return BrickStorage.mmap_alloc(nslots, elems, dtype, geometry.page_size)
    return BrickStorage.allocate(nslots, elems, dtype)


def _bad_buffer(geometry, case):
    """A buffer of *geometry* spoiled as *case* says."""
    if geometry.decomp is None:
        shape = geometry.extended_shape
        if case == "shape":
            return np.zeros(shape[:-1] + (shape[-1] + 1,))
        if case == "dtype":
            return np.zeros(shape, np.float32)
        if case == "read_only":
            arr = np.zeros(shape)
            arr.flags.writeable = False
            return arr
        if case == "non_contiguous":
            return np.zeros(shape[:-1] + (2 * shape[-1],))[..., ::2]
        # Eight bytes an element, but not the float64 elements planned.
        return np.zeros(shape, np.int64)
    if case == "shape":
        return _storage(geometry, nslots=geometry.assignment.total_slots - 1)
    if case == "dtype":
        return _storage(geometry, dtype=np.float32)
    if case == "bytes":
        return _storage(geometry, nfields=2)  # bricks of twice the bytes
    storage = _storage(geometry)
    if case == "read_only":
        storage.data.flags.writeable = False
    else:  # every other element of storage twice the size
        wide = np.zeros((storage.nslots, 2 * storage.brick_elems))
        storage.data = wide[:, ::2]
    return storage


class TestBindRefusals:
    """Binding one buffer over the geometry's shared tables refuses, with
    ExchangeConfigError and before the fabric sees anything, every
    buffer the plan does not describe."""

    @pytest.mark.parametrize(
        "case", ["shape", "dtype", "read_only", "non_contiguous", "bytes"]
    )
    @pytest.mark.parametrize(
        "method",
        ["layout", "memmap", "basic", "yask", "mpi_types"],
    )
    def test_refused(self, method, case):
        geometry, base = _bound_geometry(method)
        fabric = SimFabric(8)
        cart = SimComm(fabric, 0).Create_cart((2, 2, 2))
        with pytest.raises(ExchangeConfigError):
            geometry.bind(base, cart, _bad_buffer(geometry, case))
        assert not fabric._splits  # nothing negotiated

    @pytest.mark.parametrize("method", ["layout", "memmap", "yask"])
    def test_plan_bytes_must_match_the_bound_buffers(self, method):
        """The last refusal before the fabric: the buffers a binding
        hands back carry exactly the bytes the plan says."""
        geometry, base = _bound_geometry(method)
        cart = SimComm(SimFabric(8), 0).Create_cart((2, 2, 2))
        buffer = (
            np.zeros(geometry.extended_shape)
            if geometry.decomp is None else _storage(geometry)
        )
        assert geometry.bind(base, cart, buffer).plan is geometry.plans[0]
        plan = geometry.plans[0]
        shorter = dataclasses.replace(plan, sends=plan.sends[:-1])
        with pytest.raises(ExchangeConfigError, match="does not describe"):
            make_exchanger(
                base, cart, shorter, buffer, geometry.extent, geometry.ghost,
                geometry.profile, geometry.results[0], geometry.tables(base)[0],
            )
