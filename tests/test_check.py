"""Static verifier: clean geometries pass, mutations are caught, and the
runtime negotiation raises the same typed errors the checker predicts."""

import numpy as np
import pytest

from repro.check import (
    CHECKABLE_METHODS,
    CheckFailedError,
    CheckReport,
    MUTATIONS,
    run_checks,
    run_selftest,
)
from repro.check.api import check_geometry
from repro.check.cback import verify_cbackend
from repro.check.report import Finding
from repro.core.driver import run_executed
from repro.core.geometry import RunGeometry
from repro.core.problem import StencilProblem
from repro.faults.errors import SplitMismatchError
from repro.hardware.profiles import generic_host
from repro.simmpi.fabric import SimFabric
from repro.simmpi.launcher import RankFailedError, run_spmd
from repro.stencil import cbackend
from repro.stencil.plan import compile_brick_plan
from repro.stencil.spec import SEVEN_POINT
from tests.conftest import wire_copy


def problem(extent=(32, 32, 32), ranks=(2, 2, 2), **kw):
    return StencilProblem(extent, ranks, SEVEN_POINT, (8, 8, 8), 8, **kw)


# ----------------------------------------------------------------------
# Clean geometries check clean
# ----------------------------------------------------------------------
class TestCleanGeometries:
    @pytest.mark.parametrize("method", CHECKABLE_METHODS)
    def test_multirank_clean(self, method):
        rep = run_checks(
            problem(), method, passes=("schedule", "memory"),
        )
        assert rep.ok, rep.render()
        assert rep.passes_run == ["schedule", "memory"]

    @pytest.mark.parametrize("method", CHECKABLE_METHODS)
    def test_single_rank_clean(self, method):
        rep = run_checks(
            problem((16, 16, 16), (1, 1, 1)), method,
            passes=("schedule", "memory"),
        )
        assert rep.ok, rep.render()

    @pytest.mark.parametrize("method", ("yask", "memmap", "basic"))
    def test_open_boundaries_clean(self, method):
        rep = run_checks(
            problem(periodic=False), method,
            passes=("schedule", "memory"),
        )
        assert rep.ok, rep.render()

    def test_anisotropic_ranks_clean(self):
        rep = run_checks(
            problem((32, 32, 48), (1, 2, 3)), "memmap",
            passes=("schedule", "memory"),
        )
        assert rep.ok, rep.render()

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown pass"):
            run_checks(problem(), "memmap", passes=("bogus",))

    def test_model_only_method_rejected(self):
        from repro.faults.errors import ExchangeConfigError

        with pytest.raises(ExchangeConfigError, match="checkable"):
            run_checks(problem(), "network")


# ----------------------------------------------------------------------
# Elastic decompositions
# ----------------------------------------------------------------------
class TestElastic:
    def test_dead_rank_edges_flagged(self):
        rep = run_checks(
            problem(), "memmap", dead_ranks=(6, 7),
            passes=("schedule",),
        )
        assert not rep.ok
        assert rep.has("dead-rank-edge")
        assert all(
            6 in f.ranks or 7 in f.ranks
            for f in rep.errors() if f.code == "dead-rank-edge"
        )

    def test_rebricked_world_clean(self):
        # 8 -> 6 ranks: the shrunken decomposition avoids the lost node
        # and checks clean again.
        rep = run_checks(
            problem((32, 32, 48), (1, 2, 3)), "memmap",
            passes=("schedule", "memory"),
        )
        assert rep.ok, rep.render()


# ----------------------------------------------------------------------
# Mutation harness
# ----------------------------------------------------------------------
class TestSelftest:
    def test_all_mutations_detected_default(self):
        results = run_selftest()
        assert all(results.values()), results
        assert set(results) == set(MUTATIONS)

    @pytest.mark.parametrize("method", ("layout", "yask"))
    def test_all_mutations_detected_per_method(self, method):
        results = run_selftest(methods=(method,))
        assert all(results.values()), results


class TestCheckedAdjacencyIsWhatRuns:
    """The brick kernel addresses neighbours through ``info.adjacency``
    rows alone, so the one array ``repro check`` validates is the one a
    step reads."""

    def test_forged_entry_is_found_and_is_what_the_plan_holds(self):
        geometry = RunGeometry(problem(), "layout")
        asn, info = geometry.assignment, geometry.brick_info
        slots = geometry.decomp.compute_slots(asn)
        assert check_geometry(geometry, passes=("memory",)).ok
        info.adjacency.setflags(write=True)
        info.adjacency[slots[3], 14] = asn.total_slots
        report = check_geometry(geometry, passes=("memory",))
        assert report.codes() == ["oob-adjacency"], report.render()
        plan = compile_brick_plan(SEVEN_POINT, info, slots)
        assert plan.kernel_backend == cbackend.c_tier()
        assert plan._adjacency[3, 14] == asn.total_slots
        held = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
        assert not [a for a in held if a.dtype.kind == "i" and a.ndim > 2]


# ----------------------------------------------------------------------
# Report plumbing
# ----------------------------------------------------------------------
class TestReport:
    def test_render_and_literal(self):
        rep = CheckReport()
        rep.passes_run.append("schedule")
        rep.error(
            "schedule", "orphan-send", "boom", ranks=(0, 1), tag=7,
            hint="fix it",
        )
        rep.warning("schedule", "advice", "meh")
        assert not rep.ok
        text = rep.render()
        assert "orphan-send" in text and "FAILED" in text
        lit = rep.to_literal()
        assert lit["ok"] is False
        assert lit["findings"][0]["code"] == "orphan-send"
        assert lit["findings"][0]["ranks"] == [0, 1]

    def test_check_failed_error_carries_report(self):
        rep = CheckReport()
        rep.error("schedule", "byte-mismatch", "x")
        err = CheckFailedError(rep)
        assert err.report is rep
        assert "byte-mismatch" in str(err)

    def test_bad_severity_rejected(self):
        rep = CheckReport()
        with pytest.raises(ValueError):
            rep.add(Finding("fatal", "schedule", "x", "y"))


# ----------------------------------------------------------------------
# Driver pre-flight
# ----------------------------------------------------------------------
class TestDriverPreflight:
    def test_strict_check_passes_and_runs(self):
        run = run_executed(
            problem((16, 16, 32), (1, 1, 2)), "memmap",
            generic_host(), timesteps=1, check="strict",
        )
        assert run.method == "memmap"

    def test_bad_check_value_rejected(self):
        with pytest.raises(ValueError, match="check="):
            run_executed(
                problem((16, 16, 32), (1, 1, 2)), "memmap",
                generic_host(), timesteps=1, check="bogus",
            )


# ----------------------------------------------------------------------
# Runtime negotiation raises the checker-consistent typed error
# ----------------------------------------------------------------------
class TestNegotiation:
    def test_reregistration_drops_stale_peer(self):
        # Ladder demotion rebuilds a channel with different byte counts
        # on the same tags; a same-side re-registration must not trip on
        # the peer's stale entry.
        fabric = SimFabric(2)
        fabric.bind_request(0, [(1, 9, np.zeros(64))], [], wire_copy)
        fabric.bind_request(1, [], [(0, 9, np.zeros(64))], wire_copy)
        fabric.bind_request(0, [(1, 9, np.zeros(96))], [], wire_copy)  # demoted engine
        fabric.bind_request(1, [], [(0, 9, np.zeros(96))], wire_copy)  # peer follows

    def test_channel_negotiation_mismatch_in_spmd(self):
        from repro.exchange.boxes import box_template
        from repro.exchange.pack import PackExchanger

        g = 8

        def fn(comm):
            cart = comm.Create_cart((1, 1, 2))
            # Endpoint disagreement -- the checker's byte-mismatch
            # finding, at runtime: the ranks' faces are not the same size.
            ext = (16, 16, 8) if cart.rank == 0 else (16, 8, 8)
            arr = np.zeros(tuple(e + 2 * g for e in reversed(ext)))
            plan = box_template("pack", "pack", ext, g, 8).for_rank(
                cart.rank, cart.dims
            )
            ex = PackExchanger(cart, plan, arr, ext, g, generic_host())
            ex.make_channel()

        with pytest.raises(RankFailedError) as exc:
            run_spmd(2, fn)
        assert isinstance(exc.value.__cause__, SplitMismatchError)


# ----------------------------------------------------------------------
# C backend pass + sanitize/bounds modes
# ----------------------------------------------------------------------
def probe_codes(rep):
    """*rep*'s codes but the ``kernel-flags`` note every probed pass
    ends with."""
    return [c for c in rep.codes() if c != "kernel-flags"]


class TestCBackend:
    def test_pass_clean_here(self):
        rep = CheckReport()
        verify_cbackend(rep)
        assert rep.ok, rep.render()

    def test_bad_sanitize_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC_SANITIZE", "address,bogus")
        rep = CheckReport()
        verify_cbackend(rep)
        assert rep.has("sanitize-env")

    def test_bad_bounds_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC_BOUNDS", "2")
        rep = CheckReport()
        verify_cbackend(rep)
        assert rep.has("bounds-env")

    def test_sanitize_flags_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC_SANITIZE", "undefined")
        flags = cbackend.sanitize_flags()
        assert "-fsanitize=undefined" in flags and "-g" in flags
        monkeypatch.setenv("REPRO_CC_SANITIZE", "")
        assert cbackend.sanitize_flags() == ()

    def test_guarded_kernel_bit_identical_and_raises(self):
        taps = SEVEN_POINT.taps
        np_bd, r, be = (8, 8, 8), 1, 512
        plain_src = cbackend.batch_step_source(taps, np_bd, r, 0, be)
        guard_src = cbackend.batch_step_source(
            taps, np_bd, r, 0, be, guard=True
        )
        assert "int64_t repro_step" in guard_src
        plain = cbackend._build(plain_src)
        guarded = cbackend._build(guard_src, guard=True)
        rng = np.random.default_rng(0)
        nb = 2
        src = rng.random((nb, be))
        # Two bricks, each other's +x / -x neighbour, nothing else around.
        adj = np.full((nb, 27), -1, dtype=np.int64)
        adj[:, 13] = (0, 1)
        adj[:, 12] = adj[:, 14] = (1, 0)
        slots = np.arange(nb, dtype=np.int64)
        tile = np.empty(10 ** 3)
        d1 = np.zeros_like(src)
        d2 = np.zeros_like(src)
        plain(src, d1, adj, slots, tile)
        guarded(src, d2, adj, slots, tile)
        assert np.array_equal(d1, d2)
        good = d1.copy()
        # Poison one staged adjacency entry: the guard counts it and
        # stages the direction as absent, where the plain kernel would
        # have read outside the storage.
        absent = adj.copy()
        absent[0, 14] = -1
        plain(src, d1, absent, slots, tile)
        for poison in (nb, -2):
            bad = adj.copy()
            bad[0, 14] = poison
            d2[:] = 7.0
            with pytest.raises(
                cbackend.KernelBoundsError, match="1 out-of-range"
            ):
                guarded(src, d2, bad, slots, tile)
            assert np.array_equal(d1, d2)
        # A destination slot whose brick does not fit is skipped whole.
        d2[:] = 7.0
        with pytest.raises(cbackend.KernelBoundsError, match="1 out-of-range"):
            guarded(src, d2, adj, np.array([0, nb], dtype=np.int64), tile)
        assert np.array_equal(d2[0], good[0]) and (d2[1] == 7.0).all()

    def test_bounds_env_selects_guard_in_kernel_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC_BOUNDS", "1")
        fn = cbackend.batch_step_kernel(SEVEN_POINT.taps, (8, 8, 8), 1, 0, 512)
        assert "src_elems" in fn.__source__

    def test_brick_probe_notices_a_wrong_neighbour_sub_box(self, monkeypatch):
        """The probe reads real neighbours through adjacency rows: a
        staging table that copies one face from the wrong end of the
        neighbour brick is a mismatch, not a pass."""
        real = cbackend.brick_stage_boxes

        def wrong_face(taps, np_bd, radius):
            rows = list(real(taps, np_bd, radius))
            k = [row[0] for row in rows].index(12)  # the -x face
            column, tile_off, brick_off, extent = rows[k]
            assert brick_off != 0  # it reads the neighbour's far end
            rows[k] = (column, tile_off, 0, extent)
            return rows

        monkeypatch.setattr(cbackend, "brick_stage_boxes", wrong_face)
        rep = CheckReport()
        verify_cbackend(rep)
        assert probe_codes(rep) == ["probe-mismatch"], rep.render()

    def test_array_probe_is_its_own_finding(self, monkeypatch):
        """The brick and the array kernel are probed separately: break
        only the array build and only its finding appears, carrying the
        compiler's own words."""
        real = cbackend.array_step_source
        monkeypatch.setattr(
            cbackend, "array_step_source",
            lambda *a, **k: real(*a, **k) + "this is not C\n",
        )
        rep = CheckReport()
        verify_cbackend(rep)
        assert probe_codes(rep) == ["array-probe-compile"], rep.render()
        assert "error" in rep.findings[0].message  # cc's diagnostic

    def test_probe_catches_a_tap_order_unit(self, monkeypatch):
        """Units that accumulate in tap order -- one multiply per tap,
        not one per coefficient -- miss the canonical grouped bits on
        the probe's alternating coefficients: both kernel probes say so."""
        monkeypatch.setattr(
            cbackend, "tap_groups",
            lambda taps: tuple((coeff, (off,)) for off, coeff in taps),
        )
        rep = CheckReport()
        verify_cbackend(rep)
        assert probe_codes(rep) == [
            "probe-mismatch", "array-probe-mismatch"
        ], rep.render()

    def test_probe_catches_a_unit_that_sums_pairs_in_tap_order(self, monkeypatch):
        """Units that sum each group left to right in tap order, x pairs
        not first, miss the canonical bits where the probe's pair is
        split by another tap of its group: both kernel probes say so
        (the brick unit then builds no pair pass)."""
        monkeypatch.setattr(
            cbackend, "group_terms", lambda members: tuple((m,) for m in members)
        )
        rep = CheckReport()
        verify_cbackend(rep)
        assert probe_codes(rep) == [
            "probe-mismatch", "array-probe-mismatch"
        ], rep.render()

    def test_brick_probe_notices_a_wrong_pair_sum(self, monkeypatch):
        """The probe's brick unit runs the pair pass: one whose distance-1
        sum reads the same side twice is a mismatch of that probe alone."""
        real = cbackend.batch_step_source
        right = "h[c2 - 1] + h[c2 + 1]"

        def wrong_pair(*args, **kwargs):
            source = real(*args, **kwargs)
            assert right in source
            return source.replace(right, "h[c2 - 1] + h[c2 - 1]")

        monkeypatch.setattr(cbackend, "batch_step_source", wrong_pair)
        rep = CheckReport()
        verify_cbackend(rep)
        assert probe_codes(rep) == ["probe-mismatch"], rep.render()

    def test_array_probe_mismatch_detected(self, monkeypatch):
        real = cbackend.array_step_source
        monkeypatch.setattr(
            cbackend, "array_step_source",
            lambda *a, **k: real(*a, **k).replace("acc + t", "acc - t"),
        )
        rep = CheckReport()
        verify_cbackend(rep)
        assert probe_codes(rep) == ["array-probe-mismatch"], rep.render()

    def test_mover_probe_names_the_mover_that_differs(self, monkeypatch):
        """The movers ride in the probe kernels' translation units: one
        whose gather reads every row one element early is a finding of
        its own, naming which of the three differs from NumPy slicing."""
        monkeypatch.setattr(cbackend, "_mover_libs", {})  # force a fresh load
        monkeypatch.setattr(
            cbackend, "MOVER_SOURCE",
            cbackend.MOVER_SOURCE.replace(
                "scatter ? buf : arr + base;",
                "scatter ? buf : arr + (base > 0 ? base - 1 : 0);",
            ),
        )
        rep = CheckReport()
        verify_cbackend(rep)
        assert probe_codes(rep) == ["mover-probe"], rep.render()
        assert "gather" in rep.findings[0].message
        assert "scatter" not in rep.findings[0].message

    def test_mover_probe_checks_the_crc_against_zlib(self, monkeypatch):
        """A fold constant off by one bit: the copies still match NumPy
        slicing, the CRC pair no longer matches ``zlib.crc32``."""
        monkeypatch.setattr(cbackend, "_mover_libs", {})  # force a fresh load
        assert "0x01751997d0" in cbackend.MOVER_SOURCE
        monkeypatch.setattr(
            cbackend, "MOVER_SOURCE",
            cbackend.MOVER_SOURCE.replace("0x01751997d0", "0x01751997d1"),
        )
        rep = CheckReport()
        verify_cbackend(rep)
        assert probe_codes(rep) == ["mover-probe"], rep.render()
        message = rep.findings[0].message
        assert "crc_list" in message and "copy_crc_list" in message
        assert "gather" not in message and "scatter" not in message

    def test_mover_probe_checks_the_512_bit_fold_against_zlib(self, monkeypatch):
        """One bit off in the 512-bit fold's x^2080 constant: only runs
        of 256 bytes and more take that fold, and the probe's runs past
        each fold stage catch it in both calls."""
        monkeypatch.setattr(cbackend, "_mover_libs", {})  # force a fresh load
        if cbackend.mover_kernel().crc_fold != 512:
            pytest.skip("this build folds no 512-bit lanes")
        assert "0x011542778a" in cbackend.MOVER_SOURCE
        monkeypatch.setattr(cbackend, "_mover_libs", {})
        monkeypatch.setattr(
            cbackend, "MOVER_SOURCE",
            cbackend.MOVER_SOURCE.replace("0x011542778a", "0x011542778b"),
        )
        rep = CheckReport()
        verify_cbackend(rep)
        assert probe_codes(rep) == ["mover-probe"], rep.render()
        message = rep.findings[0].message
        assert "crc_list" in message and "copy_crc_list" in message
        assert "gather" not in message and "scatter" not in message

    def test_mover_probe_names_a_crc_mover_that_cannot_engage(self, monkeypatch):
        real = cbackend.Movers.__init__

        def no_pclmul(self, ffi, lib, guard):
            real(self, ffi, lib, guard)
            self.crc_refusal = "probe forced false"

        monkeypatch.setattr(cbackend.Movers, "__init__", no_pclmul)
        rep = CheckReport()
        verify_cbackend(rep)
        assert rep.ok, rep.render()  # a verified fabric checksums with zlib
        (finding,) = [f for f in rep.findings if f.code == "mover-probe"]
        assert "probe forced false" in finding.message
        assert "zlib.crc32" in finding.message

    def test_movers_cost_no_compiler_invocation_of_their_own(
        self, monkeypatch, empty_kernel_cache
    ):
        """They ride in the kernels' translation units: a process that
        builds a kernel first -- every run does -- builds nothing for
        the movers; only one that asks for them cold builds stand-alone."""
        monkeypatch.setattr(cbackend, "_mover_libs", {})
        monkeypatch.setattr(cbackend, "_kernels", {})
        loads = []
        real = cbackend._load
        monkeypatch.setattr(
            cbackend, "_load",
            lambda source, name, *rest: loads.append(name)
            or real(source, name, *rest),
        )
        assert cbackend.array_step_kernel(SEVEN_POINT.taps, (6, 6, 6))
        assert cbackend.mover_kernel() is not None
        assert loads == ["repro_array_step"]
        monkeypatch.setattr(cbackend, "_mover_libs", {})
        monkeypatch.setattr(cbackend, "_kernels", {})
        assert cbackend.mover_kernel() is not None
        assert loads == ["repro_array_step", ""]

    def test_array_probe_runs_under_env_flags(self, monkeypatch):
        seen = []
        real = cbackend._build_array
        monkeypatch.setattr(
            cbackend, "_build_array",
            lambda src, guard=False, extra_flags=(): seen.append(
                (guard, tuple(extra_flags))
            ) or real(src, guard, extra_flags),
        )
        monkeypatch.setenv("REPRO_CC_BOUNDS", "1")
        monkeypatch.setenv("REPRO_CC_SANITIZE", "undefined")
        rep = CheckReport()
        verify_cbackend(rep)
        assert rep.ok, rep.render()
        assert seen == [(True, cbackend.sanitize_flags())]

    def test_compile_failure_says_why(self, monkeypatch):
        """A refused build names the compiler's reason, instead of a bare
        'compilation failed' -- and so does every later ask of that
        specialization, from the cache, without a second build."""
        with pytest.raises(cbackend.KernelBuildError, match="error") as exc:
            cbackend._build("int repro_step(void) { return undeclared; }\n")
        assert "undeclared" in str(exc.value)
        builds = []
        monkeypatch.setattr(
            cbackend, "batch_step_source",
            lambda *a, **k: builds.append(a) or "not C at all\n",
        )
        for _ in range(2):
            with pytest.raises(cbackend.KernelBuildError, match="exited"):
                cbackend.batch_step_kernel(SEVEN_POINT.taps, (3, 5, 7), 1, 0, 105)
        assert len(builds) == 1

    @pytest.mark.parametrize("lacks", ["_compiler", "cffi"])
    def test_a_missing_toolchain_is_an_error(self, lacks, monkeypatch):
        """Without ``cffi`` or a compiler no run can start: an error, not
        a note, naming what is missing."""
        monkeypatch.setattr(
            cbackend, lacks, (lambda: None) if lacks == "_compiler" else None
        )
        rep = CheckReport()
        verify_cbackend(rep)
        assert rep.codes() == ["toolchain-missing"] and not rep.ok
        assert ("compiler" if lacks == "_compiler" else "cffi") in (
            rep.findings[0].message
        )
