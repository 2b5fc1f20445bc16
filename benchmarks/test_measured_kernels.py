"""Measured stencil-kernel wall times: array vs brick storage."""

import numpy as np
import pytest

from repro.brick.convert import extended_shape, extended_to_bricks
from repro.brick.decomp import BrickDecomp
from repro.stencil.brick_kernels import apply_brick_stencil
from repro.stencil.kernels import apply_array_stencil
from repro.stencil.spec import CUBE125, SEVEN_POINT

EXTENT = (64, 64, 64)
G = 8


@pytest.mark.parametrize("spec", [SEVEN_POINT, CUBE125], ids=["7pt", "125pt"])
def test_bench_array_kernel(benchmark, spec):
    shape = tuple(e + 2 * G for e in reversed(EXTENT))
    src = np.random.default_rng(0).random(shape)
    dst = np.zeros_like(src)
    benchmark(apply_array_stencil, src, dst, spec, EXTENT, G)
    assert dst[G + 1, G + 1, G + 1] != 0.0


@pytest.mark.parametrize("spec", [SEVEN_POINT, CUBE125], ids=["7pt", "125pt"])
def test_bench_brick_kernel(benchmark, spec):
    d = BrickDecomp(EXTENT, (8, 8, 8), G)
    src, asn = d.allocate()
    dst, _ = d.allocate()
    ext = np.random.default_rng(0).random(extended_shape(d))
    extended_to_bricks(ext, d, src, asn)
    info = d.brick_info(asn)
    slots = d.compute_slots(asn)
    benchmark(apply_brick_stencil, spec, src, dst, info, slots)
    assert dst.data[slots[0]].any()


def test_bench_conversion_gather(benchmark):
    """Brick storage -> extended array: one mover call over every
    brick of the grid (the converters' and tests' form; a run gathers
    its owned bricks only)."""
    from repro.brick.convert import bricks_to_extended

    d = BrickDecomp(EXTENT, (8, 8, 8), G)
    storage, asn = d.allocate()
    storage.fill(1.5)
    out = benchmark(bricks_to_extended, d, storage, asn)
    assert out.shape == extended_shape(d)
