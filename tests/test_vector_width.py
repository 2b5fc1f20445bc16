"""The kernels' vector width: the same bits at every width, and the width
the tree says it builds.

Where GCC builds for AVX-512 the kernel text asks for 512-bit vectors
(``cbackend._FULL_WIDTH_OPEN``): an 8^3 brick row is one register.  The
width must not move a bit -- SIMD lanes are neighbouring cells and
``-ffp-contract=off`` fixes every rounding -- so each kernel is built
three ways here (the portable flags, the host flags held below AVX-512,
the host flags) and held to the generic kernels bit for bit; and where
the host build is GCC for AVX-512, the compiler's own report says the
sweeps -- and the 125-point brick kernel's pair pass -- use 64-byte
vectors.
"""

import os
import platform
import re
import subprocess

import numpy as np
import pytest

from repro.brick.storage import BrickStorage
from repro.check.cback import _PROBE_SPEC
from repro.stencil import cbackend
from repro.stencil.brick_kernels import apply_brick_stencil
from repro.stencil.kernels import apply_array_stencil
from tests.test_stencil_groups import SPECS as ORDER_SPECS
from tests.test_stencil_plan import grid_info, random_storage, same_bits

#: every stencil the canonical order is tested on, and the probe's
SPECS = {spec.name: spec for spec in ORDER_SPECS} | {"probe": _PROBE_SPEC}
CUBE125, SEVEN_POINT = SPECS["125pt"], SPECS["7pt"]
#: what holds a host build below AVX-512: its tuning's 256-bit vectors
HELD = ("-mno-avx512f",)


def _host_macros():
    """The predefined macros of the host build (empty where the compiler
    refuses the host flags)."""
    cc = cbackend._compiler()
    if cc is None:
        return set()
    done = subprocess.run(
        [cc, *cbackend._HOST_FLAGS, "-dM", "-E", "-x", "c", os.devnull],
        capture_output=True, text=True,
    )
    return {line.split()[1] for line in done.stdout.splitlines()}


HOST = _host_macros()
X86 = platform.machine() in ("x86_64", "AMD64")
GCC_AVX512 = {"__GNUC__", "__AVX512F__"} <= HOST and "__clang__" not in HOST


@pytest.fixture(params=["portable", "held-256", "full-512"])
def build(request, monkeypatch):
    """``(extra flags, width the unit must report)`` of one way to build
    the kernels (with ``REPRO_CC_SANITIZE``'s flags, as a run's are), in
    a process state that has loaded no movers, so the first unit built
    carries its own."""
    mode = request.param
    if mode != "portable" and not X86:
        pytest.skip("the host builds are held below AVX-512 on x86-64 only")
    if mode == "full-512" and not GCC_AVX512:
        pytest.skip("this host build is not GCC for AVX-512: no 512-bit kernels")
    refusal = "held below the host flags" if mode == "portable" else ""
    monkeypatch.setattr(cbackend, "_flags_refusal", refusal)
    monkeypatch.setattr(cbackend, "_mover_libs", {})
    width = {
        "portable": 128, "held-256": 256 if "__AVX__" in HOST else 128, "full-512": 512
    }[mode]
    return (*cbackend.sanitize_flags(), *(HELD if mode == "held-256" else ())), width


def _brick_case(ndim, periodic):
    """A 3 x 2 x 2 grid of 8^3 bricks (3 x 2 of 8^2 in 2-D): rows of 8,
    one 512-bit vector."""
    info = grid_info((3, 2, 2)[:ndim], (8,) * ndim, periodic=periodic)
    rng = np.random.default_rng(7)
    return info, random_storage(info, rng), np.arange(info.nslots)


def _array_case(spec, periodic):
    """A 19 x 6 x 5 region (19 x 6 in 2-D; rows of two 512-bit vectors
    and a tail) in its extended array: ghosts wrapped, or zero as an
    open boundary."""
    r = spec.radius
    extent = (19, 6, 5)[: spec.ndim]
    inner = np.random.default_rng(11).random(tuple(reversed(extent)))
    arr = np.pad(inner, r, mode="wrap" if periodic else "constant")
    return extent, r, arr


@pytest.mark.parametrize("name", sorted(SPECS))
def test_every_width_keeps_the_generic_bits(build, name):
    flags, width = build
    spec = SPECS[name]
    r, np_bd = spec.radius, (8,) * spec.ndim
    volume = 8**spec.ndim
    brick = cbackend._build(
        cbackend.batch_step_source(spec.taps, np_bd, r, 0, volume),
        extra_flags=flags,
    )
    array_shape = tuple(n + 2 * r for n in (5, 6, 19)[-spec.ndim :])
    array = cbackend._build_array(
        cbackend.array_step_source(spec.taps, array_shape), extra_flags=flags
    )
    movers = cbackend.Movers(*cbackend._mover_libs[flags], False)
    assert movers.vector_bits == width
    for periodic in (True, False):
        info, src, slots = _brick_case(spec.ndim, periodic)
        got = BrickStorage.allocate(info.nslots, volume)
        ref = BrickStorage.allocate(info.nslots, volume)
        tile = np.empty(cbackend.brick_scratch(spec.taps, np_bd, r).elems)
        brick(src.data, got.data, info.adjacency, slots, tile)
        apply_brick_stencil(spec, src, ref, info, slots)
        same_bits(got.data, ref.data)

        extent, ghost, arr = _array_case(spec, periodic)
        got, ref = np.zeros_like(arr), np.zeros_like(arr)
        box = [(ghost, ghost + n) for n in reversed(extent)]
        array(arr, got, np.array([box], dtype=np.int64))
        apply_array_stencil(arr, ref, spec, extent, ghost)
        same_bits(got, ref)


def _vector_report(source):
    """``{source line: bytes per vector}`` of every loop GCC reports it
    vectorized in *source*, built with the host flags."""
    done = subprocess.run(
        [cbackend._compiler(), *cbackend._HOST_FLAGS, *cbackend._UNIT_FLAGS,
         "-fopt-info-vec-optimized", "-c", "-x", "c", "-", "-o", os.devnull],
        input=source, capture_output=True, text=True, check=True,
    )
    return {
        int(m.group(1)): int(m.group(2))
        for m in re.finditer(
            r"^<stdin>:(\d+):\d+: optimized: loop vectorized using (\d+) byte",
            done.stderr, re.M,
        )
    }


def _loop_line(source, marker):
    """The 1-based line of the ``for`` just ahead of the first line
    holding *marker*."""
    lines = source.splitlines()
    first = next(i for i, text in enumerate(lines) if marker in text)
    return max(i for i in range(first) if "for (" in lines[i]) + 1


def _sweep_line(source):
    """The 1-based line of the tap sweep's loop: the ``for`` just ahead
    of the first tap load."""
    return _loop_line(source, "const double x0 =")


@pytest.mark.skipif(not GCC_AVX512, reason="the host build is not GCC for AVX-512")
@pytest.mark.parametrize(
    "kind,spec",
    [("brick", SEVEN_POINT), ("brick", CUBE125), ("array", CUBE125)],
    ids=["brick-7pt", "brick-125pt", "array-125pt"],
)
def test_the_sweeps_use_the_whole_register(kind, spec):
    """DESIGN says the kernels sweep with the widest vectors the CPU has:
    GCC's report holds the tree to it (its AVX-512 tuning alone would
    build 32-byte vectors)."""
    if kind == "brick":
        source = cbackend.batch_step_source(spec.taps, (8, 8, 8), spec.radius, 0, 512)
    else:
        source = cbackend.array_step_source(spec.taps, (20, 20, 20))
    report = _vector_report(source)
    assert report.get(_sweep_line(source)) == 64, report
    # The 125-point brick kernel's pair pass writes its copies' rows of
    # 8 in one vector each.
    assert ("pair pass" in source) == (kind == "brick" and spec is CUBE125)
    if "pair pass" in source:
        assert report.get(_loop_line(source, "q[")) == 64, report
    # Nothing of the kernel is left at the tuning's width; the brick's
    # stage copies move its rows of 8 in one vector too (a radius-wide
    # column of 2 moves in 16 bytes).
    assert 32 not in report.values(), report
    if kind == "brick":
        assert list(report.values()).count(64) >= 2, report
