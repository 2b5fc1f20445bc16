"""Runtime specialization of stencil kernels (code-generator lite).

The brick library's performance comes partly from a code generator that
emits specialized, fully-unrolled stencil code per (stencil, brick shape)
pair (paper Section 6).  This module is the Python analogue: it generates
the source of a specialized kernel -- taps unrolled, slices precomputed as
constants, coefficient constants folded in, accumulation done in-place to
avoid temporaries -- compiles it with :func:`compile`/``exec``, and caches
it per specialization key.

The generic kernels in :mod:`repro.stencil.kernels` and
:mod:`repro.stencil.brick_kernels` remain the reference; the test suite
asserts the generated kernels are bit-identical to them, and the
benchmark suite measures the speedup (tap-loop and slice-building
overheads disappear).
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.stencil.spec import StencilSpec

__all__ = [
    "generate_array_kernel",
    "generate_batch_kernel",
    "generate_batch_plan_kernel",
    "generate_array_box_kernel",
    "array_kernel_source",
    "batch_kernel_source",
    "batch_plan_kernel_source",
    "array_box_kernel_source",
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


def array_kernel_source(
    spec: StencilSpec, extent: Sequence[int], ghost: int, margin: int = 0
) -> str:
    """Source text of a specialized extended-array kernel.

    The generated function has signature ``kernel(arr, out)`` and computes
    the owned box grown by *margin*, exactly like
    :func:`repro.stencil.kernels.apply_array_stencil` configured the same
    way -- including the tap order, so results are bit-identical.
    """
    extent = tuple(int(e) for e in extent)
    if spec.ndim != len(extent):
        raise ValueError("stencil/extent dimensionality mismatch")
    if margin < 0 or spec.radius + margin > ghost:
        raise ValueError("margin + radius must fit in the ghost width")
    lo = ghost - margin
    lines = [
        "def kernel(arr, out):",
        f"    # specialized: {spec.name} on extent {extent}, ghost {ghost},"
        f" margin {margin}",
    ]
    first = True
    for off, coeff in spec.taps:
        slices = ", ".join(
            _slice_expr(lo + o, e + 2 * margin)
            for o, e in zip(reversed(off), reversed(extent))
        )
        term = f"{coeff!r} * arr[{slices}]"
        if first:
            lines.append(f"    acc = {term}")
            first = False
        else:
            lines.append(f"    acc += {term}")
    region = ", ".join(
        _slice_expr(lo, e + 2 * margin) for e in reversed(extent)
    )
    lines.append(f"    out[{region}] = acc")
    return "\n".join(lines) + "\n"


def generate_array_kernel(
    spec: StencilSpec, extent: Sequence[int], ghost: int, margin: int = 0
) -> Callable[[np.ndarray, np.ndarray], None]:
    """Compile (and cache) the specialized array kernel."""
    return _compiled(array_kernel_source, "stencil", spec, tuple(extent),
                     ghost, margin)


def batch_kernel_source(spec: StencilSpec, brick_dim: Sequence[int]) -> str:
    """Source of a specialized halo-batch kernel for brick storage.

    Signature ``kernel(halo) -> ndarray``: *halo* is the
    ``(nbricks, bd_D + 2r, ..., bd_1 + 2r)`` batch from
    :func:`repro.stencil.brick_kernels.gather_halo_batch`; the result is
    the ``(nbricks, bd_D, ..., bd_1)`` stencil output.  Bit-identical to
    the generic tap loop (same accumulation order).
    """
    brick_dim = tuple(int(b) for b in brick_dim)
    if spec.ndim != len(brick_dim):
        raise ValueError("stencil/brick dimensionality mismatch")
    r = spec.radius
    if r > min(brick_dim):
        raise ValueError("stencil radius exceeds the brick dimension")
    lines = [
        "def kernel(halo):",
        f"    # specialized: {spec.name} on {brick_dim} bricks, radius {r}",
    ]
    first = True
    for off, coeff in spec.taps:
        slices = ", ".join(
            ["slice(None)"]
            + [
                _slice_expr(r + o, b)
                for o, b in zip(reversed(off), reversed(brick_dim))
            ]
        )
        term = f"{coeff!r} * halo[{slices}]"
        if first:
            lines.append(f"    acc = {term}")
            first = False
        else:
            lines.append(f"    acc += {term}")
    lines.append("    return acc")
    return "\n".join(lines) + "\n"


def generate_batch_kernel(
    spec: StencilSpec, brick_dim: Sequence[int]
) -> Callable[[np.ndarray], np.ndarray]:
    """Compile (and cache) the specialized halo-batch kernel."""
    return _compiled(batch_kernel_source, "brick-stencil", spec,
                     tuple(brick_dim))


# ----------------------------------------------------------------------
# Plan kernels: fully in-place variants used by the execution-plan layer
# (repro.stencil.plan).  Same tap order and scalar-times-slice operand
# order as the generic loops, so results stay bit-identical; the only
# difference is that every intermediate lands in a caller-owned buffer
# (``np.multiply(..., out=)`` / in-place ``np.add``), so the per-step tap
# loop allocates nothing.
# ----------------------------------------------------------------------

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
    :func:`array_kernel_source` / the generic
    :func:`~repro.stencil.kernels.apply_array_stencil` on the same cells
    (same tap and operand order, and cells are independent), so a
    disjoint box cover of a region equals one sweep of the box that is
    the whole region -- what the unsplit array plan compiles -- and the
    interior/surface phase split compiles to exactly such a cover.
    """
    extent = tuple(int(e) for e in extent)
    if spec.ndim != len(extent):
        raise ValueError("stencil/extent dimensionality mismatch")
    box = tuple((int(lo), int(hi)) for lo, hi in box)
    if len(box) != spec.ndim:
        raise ValueError("box/extent dimensionality mismatch")
    r = spec.radius
    for (lo, hi), e in zip(box, reversed(extent)):
        if lo >= hi:
            raise ValueError(f"empty box range ({lo}, {hi})")
        if lo - r < 0 or hi + r > e + 2 * ghost:
            raise ValueError(
                f"box range ({lo}, {hi}) reads outside the extended array"
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
    same-shaped scratch.  Bit-identical to :func:`batch_kernel_source`.
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
