"""Runtime specialization of stencil kernels (code-generator lite).

The brick library's performance comes partly from a code generator that
emits specialized, fully-unrolled stencil code per (stencil, brick shape)
pair (paper Section 6).  This module is the NumPy analogue, the ``numpy``
kernel tier of the execution plans (:mod:`repro.stencil.cbackend` is the
C tier): it generates the source of a specialized kernel -- taps
unrolled, slices precomputed as constants, coefficient constants folded
in, accumulation done in-place in caller-owned buffers -- compiles it
with :func:`compile`/``exec``, and caches it per specialization key.

The generic kernels in :mod:`repro.stencil.kernels` and
:mod:`repro.stencil.brick_kernels` remain the reference; the test suite
asserts the generated kernels are bit-identical to them.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.stencil.spec import StencilSpec

__all__ = [
    "generate_batch_plan_kernel",
    "generate_array_box_kernel",
    "batch_plan_kernel_source",
    "array_box_kernel_source",
    "checked_box",
]

_kernel_cache: Dict[Tuple, Callable] = {}


def _slice_expr(lo: int, length: int) -> str:
    return f"slice({lo}, {lo + length})"


def _compiled(
    source_of: Callable[..., str], label: str, spec: StencilSpec, *key
) -> Callable:
    """Compile ``source_of(spec, *key)`` once per ``(taps, *key)``."""
    cache_key = (source_of, spec.taps) + key
    fn = _kernel_cache.get(cache_key)
    if fn is None:
        src = source_of(spec, *key)
        namespace: Dict = {"np": np}
        exec(compile(src, f"<{label}-{spec.name}>", "exec"), namespace)
        fn = namespace["kernel"]
        fn.__source__ = src
        _kernel_cache[cache_key] = fn
    return fn


# Same tap order and scalar-times-slice operand order as the generic
# loops, so results stay bit-identical; every intermediate lands in a
# caller-owned buffer (``np.multiply(..., out=)`` / in-place ``np.add``),
# so the per-step tap loop allocates nothing.

def _plan_body(taps, slices_of, acc: str, tmp: str, src: str) -> list:
    lines = []
    first = True
    for off, coeff in taps:
        term_src = f"{src}[{slices_of(off)}]"
        if first:
            lines.append(f"    np.multiply({coeff!r}, {term_src}, out={acc})")
            first = False
        else:
            lines.append(f"    np.multiply({coeff!r}, {term_src}, out={tmp})")
            lines.append(f"    np.add({acc}, {tmp}, out={acc})")
    return lines


def checked_box(
    box: Sequence[Tuple[int, int]], shape: Sequence[int], radius: int
) -> Tuple[Tuple[int, int], ...]:
    """*box* as int pairs, or ``ValueError`` when it is empty or a
    radius-*radius* stencil on it reads outside an array of *shape*."""
    box = tuple((int(lo), int(hi)) for lo, hi in box)
    if len(box) != len(shape):
        raise ValueError("box/extent dimensionality mismatch")
    for (lo, hi), n in zip(box, shape):
        if lo >= hi:
            raise ValueError(f"empty box range ({lo}, {hi})")
        if lo - radius < 0 or hi + radius > n:
            raise ValueError(
                f"box range ({lo}, {hi}) reads outside the extended array"
            )
    return box


def array_box_kernel_source(
    spec: StencilSpec,
    extent: Sequence[int],
    ghost: int,
    box: Sequence[Tuple[int, int]],
) -> str:
    """Source of the in-place extended-array plan kernel over one box.

    *box* is a per-numpy-axis ``(lo, hi)`` range in extended-array
    coordinates.  Signature ``kernel(arr, out, tmp)``: accumulates
    directly into the box of *out* (a strided view), using *tmp*
    (box-shaped scratch) for every tap past the first.  Bit-identical to
    the generic :func:`~repro.stencil.kernels.apply_array_stencil` on the
    same cells
    (same tap and operand order, and cells are independent), so a
    disjoint box cover of a region equals one sweep of the box that is
    the whole region -- what the unsplit array plan compiles -- and the
    interior/surface phase split compiles to exactly such a cover.
    """
    extent = tuple(int(e) for e in extent)
    if spec.ndim != len(extent):
        raise ValueError("stencil/extent dimensionality mismatch")
    box = checked_box(
        box, tuple(e + 2 * ghost for e in reversed(extent)), spec.radius
    )

    def slices_of(off):
        return ", ".join(
            _slice_expr(lo + o, hi - lo)
            for (lo, hi), o in zip(box, reversed(off))
        )

    region = ", ".join(_slice_expr(lo, hi - lo) for lo, hi in box)
    lines = [
        "def kernel(arr, out, tmp):",
        f"    # planned box: {spec.name} on extent {extent}, ghost {ghost},"
        f" box {box}",
        f"    acc = out[{region}]",
    ]
    lines += _plan_body(spec.taps, slices_of, "acc", "tmp", "arr")
    return "\n".join(lines) + "\n"


def generate_array_box_kernel(
    spec: StencilSpec,
    extent: Sequence[int],
    ghost: int,
    box: Sequence[Tuple[int, int]],
) -> Callable[[np.ndarray, np.ndarray, np.ndarray], None]:
    """Compile (and cache) the in-place box plan kernel."""
    box = tuple((int(lo), int(hi)) for lo, hi in box)
    return _compiled(array_box_kernel_source, "stencil-box", spec,
                     tuple(extent), ghost, box)


def batch_plan_kernel_source(spec: StencilSpec, brick_dim: Sequence[int]) -> str:
    """Source of the in-place halo-batch plan kernel.

    Signature ``kernel(halo, acc, tmp)``: *halo* is the gathered batch,
    *acc* receives the ``(nbricks, bd_D, ..., bd_1)`` result, *tmp* is
    same-shaped scratch.  Bit-identical to the generic tap loop of
    :func:`~repro.stencil.brick_kernels.apply_brick_stencil`.
    """
    brick_dim = tuple(int(b) for b in brick_dim)
    if spec.ndim != len(brick_dim):
        raise ValueError("stencil/brick dimensionality mismatch")
    r = spec.radius
    if r > min(brick_dim):
        raise ValueError("stencil radius exceeds the brick dimension")

    def slices_of(off):
        return ", ".join(
            ["slice(None)"]
            + [
                _slice_expr(r + o, b)
                for o, b in zip(reversed(off), reversed(brick_dim))
            ]
        )

    lines = [
        "def kernel(halo, acc, tmp):",
        f"    # planned: {spec.name} on {brick_dim} bricks, radius {r}",
    ]
    lines += _plan_body(spec.taps, slices_of, "acc", "tmp", "halo")
    return "\n".join(lines) + "\n"


def generate_batch_plan_kernel(
    spec: StencilSpec, brick_dim: Sequence[int]
) -> Callable[[np.ndarray, np.ndarray, np.ndarray], None]:
    """Compile (and cache) the in-place halo-batch plan kernel."""
    return _compiled(batch_plan_kernel_source, "brick-stencil-plan", spec,
                     tuple(brick_dim))
