"""The C tier is built for the host that runs it, and says so when the
compiler refuses: every unit is then rebuilt once with the portable
flags, keeps its bits, and the run and ``repro check`` name the refusal.
"""

import platform

import numpy as np
import pytest

from repro.check.cback import verify_cbackend
from repro.check.report import CheckReport
from repro.core.driver import run_executed
from repro.core.problem import StencilProblem
from repro.stencil import cbackend
from repro.stencil.plan import ArrayStencilPlan, compile_array_plan
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import SEVEN_POINT
from tests.conftest import crc_lengths_match_zlib

REFUSED = ("-O1", "-ftree-vectorize", "-march=no-such-cpu")


@pytest.fixture
def fresh_process(monkeypatch, empty_kernel_cache):
    """A process that has built nothing yet, over an empty kernel cache.
    Returns ``(loads, runs)``, filled as it builds: the kernel name of
    every :func:`cbackend._load` call and the argv of every compiler run
    that builds (its ``-###`` account of its target builds nothing)."""
    monkeypatch.setattr(cbackend, "_flags_refusal", None)
    monkeypatch.setattr(cbackend, "_kernels", {})
    monkeypatch.setattr(cbackend, "_mover_libs", {})
    loads, runs = [], []
    real_load, real_run = cbackend._load, cbackend.subprocess.run

    def load(*args):
        loads.append(args[1])
        return real_load(*args)

    def run(cmd, *args, **kw):
        if "-###" not in cmd:
            runs.append(cmd)
        return real_run(cmd, *args, **kw)

    monkeypatch.setattr(cbackend, "_load", load)
    monkeypatch.setattr(cbackend.subprocess, "run", run)
    return loads, runs


def _problem():
    return StencilProblem((16, 16, 16), (1, 1, 1), SEVEN_POINT, (8, 8, 8), 8)


def test_host_flags_cost_no_extra_invocation(fresh_process):
    loads, runs = fresh_process
    run = run_executed(_problem(), "layout", timesteps=1)
    if cbackend.kernel_flags()[1]:
        pytest.skip(f"this compiler refuses the host flags: {run.kernel_backend}")
    assert run.kernel_backend == "cffi"
    assert loads and len(runs) == len(loads)
    assert all("-march=native" in cmd for cmd in runs)
    assert cbackend.kernel_flags() == (cbackend._HOST_FLAGS, "")


def test_refused_host_flags_rebuild_once_per_process(fresh_process, monkeypatch):
    loads, runs = fresh_process
    monkeypatch.setattr(cbackend, "_HOST_FLAGS", REFUSED)
    steps = 2
    runs_c = {
        method: run_executed(_problem(), method, timesteps=steps)
        for method in ("layout", "yask")
    }
    rep = CheckReport()
    verify_cbackend(rep)
    # One refused build, in the first unit; every unit after it -- two
    # run kernels, two probes -- goes straight to the portable flags.
    assert len(loads) >= 4
    assert len(runs) == len(loads) + 1
    assert sum("-march=no-such-cpu" in cmd for cmd in runs) == 1
    flags, refusal = cbackend.kernel_flags()
    assert flags == cbackend._PORTABLE_FLAGS and "no-such-cpu" in refusal
    for run in runs_c.values():
        assert run.kernel_backend == f"cffi (portable flags: {refusal})"
    # Both plan classes read it, whichever kernel they were handed.
    aplan = compile_array_plan(SEVEN_POINT, (16, 16, 16), 8)
    assert isinstance(aplan, ArrayStencilPlan)
    assert aplan.kernel_backend == f"cffi (portable flags: {refusal})"
    assert rep.ok, rep.render()
    (note,) = [f for f in rep.findings if f.code == "kernel-flags"]
    assert note.severity == "note"
    assert "portable" in note.message and "no-such-cpu" in note.message
    # The portable kernels keep the serial reference's bits.
    ref = _problem().initial_global(0)
    for _ in range(steps):
        ref = apply_periodic_reference(ref, SEVEN_POINT, 1)
    for run in runs_c.values():
        np.testing.assert_array_equal(
            run.global_result.view(np.uint64), ref.view(np.uint64)
        )


def test_the_portable_build_folds_128_bits_as_zlib_does(fresh_process, monkeypatch):
    """The unit rebuilt with the portable flags names no AVX-512, so its
    CRC pair takes the 128-bit fold (where the CPU has carry-less
    multiply at all) -- and agrees with ``zlib.crc32`` at every length
    and offset the host build is held to."""
    monkeypatch.setattr(cbackend, "_HOST_FLAGS", REFUSED)
    movers = cbackend.mover_kernel()
    assert cbackend.kernel_flags()[0] == cbackend._PORTABLE_FLAGS
    if movers.crc_refusal:
        pytest.skip(movers.crc_refusal)
    assert movers.crc_fold == 128
    crc_lengths_match_zlib(movers)


def test_the_portable_build_names_its_128_bit_vectors(fresh_process, monkeypatch):
    """Baseline x86-64 is SSE2: the portable unit reports 128-bit
    vectors, and ``repro check``'s ``kernel-flags`` note says so."""
    if platform.machine() != "x86_64":
        pytest.skip("baseline SIMD is 128 bits wide on x86-64 only")
    monkeypatch.setattr(cbackend, "_HOST_FLAGS", REFUSED)
    rep = CheckReport()
    verify_cbackend(rep)
    assert cbackend.mover_kernel().vector_bits == 128
    (note,) = [f for f in rep.findings if f.code == "kernel-flags"]
    assert "(vector width 128 bits)" in note.message
