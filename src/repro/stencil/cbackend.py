"""The compiled (C) tier: every stencil step and every exchange copy.

A plan (:mod:`repro.stencil.plan`) steps on one C kernel per
specialization, generated here:

* **bricks** -- per ``(stencil taps, brick shape, radius, field offset,
  brick elems)``: *stage, then sweep*.  Neighbours are addressed per
  brick, the way the paper's brick library does it: through the brick's
  ``3^D`` adjacency row, each direction some tap reaches has its
  sub-box copied into one small contiguous ``(bd + 2r)^D`` halo tile
  (zeros where the neighbour is absent); the unrolled tap loop then
  sweeps the tile unit-stride at compile-time offsets and writes the
  destination brick (:func:`batch_step_source`).  No per-cell index
  table exists;
* **extended arrays** -- per ``(stencil taps, extended shape)``: the
  unrolled tap loop as a unit-stride sweep over a list of boxes whose
  bounds arrive at call time, so a whole-region plan and every
  ghost-expansion margin share one build (:func:`array_step_source`).

Both layouts compute with the same tap loop over contiguous rows; what
the brick kernel pays on top is the staging copy (EXPERIMENTS.md,
"Stage, then sweep", has its measured share).

The exchange moves its data on the same tier.  The first translation
unit a process builds (per set of sanitize flags) ends with one constant
text (:data:`MOVER_SOURCE`): table-driven functions -- a box gather, its
scatter and a ``copy_list`` that pack, unpack and wire-copy one
exchange side per call over tables frozen at bind, and for a verified
fabric a ``crc_list`` that seals a side and a ``copy_crc_list`` that
copies it and checksums what landed, CRC-32 folded by carry-less
multiply, 512 bits at a time where the build targets AVX-512 with
VPCLMULQDQ (:class:`Movers`, resolved by :func:`mover_kernel` at the same
point as the kernels).  Riding in a kernel's translation unit means a
cold run invokes the compiler no more often than it did without them; a
stand-alone build happens only in a process that never loaded a kernel.

Every unit is built for the host that runs it (``-march=native``, loop
remainders scalar; :data:`_HOST_FLAGS`).  A compiler that refuses those
flags gets the unit again with portable ones, once per process, and
every plan says so: its ``kernel_backend`` reads
``"cffi (portable flags: <the compiler's first words>)"``
(:func:`c_tier`, :func:`kernel_flags`).

Bit-exactness with the generic kernels (:mod:`repro.stencil.kernels`,
:mod:`repro.stencil.brick_kernels`) is by construction, whatever the
vector width:

* identical order of every add and multiply: the canonical order of
  :func:`~repro.stencil.spec.tap_groups` (``acc = c0 * (x.. + x..)``
  then ``t = ck * (x.. + x..); acc = acc + t`` per coefficient group,
  each sum left to right); SIMD lanes are neighbouring cells, never
  terms of one cell's sum;
* ``-ffp-contract=off`` so no FMA contraction reorders roundings;
* coefficients embedded as C99 hex float literals (exact bit patterns);
* halo cells of an absent neighbour (adjacency ``-1``) are staged as
  ``0.0`` and contribute ``coeff * 0.0``, exactly like the generic
  gather's zero-filled halo.

There is no other tier: a specialization that cannot be built raises
:class:`KernelBuildError`, carrying the compiler's reason, and
:func:`repro.core.driver.run_executed` refuses a run up front where
:func:`toolchain_missing` names a missing piece.  Compiled kernels are
stateless (all mutable state, the brick kernel's tile scratch included,
stays in caller-owned arrays), so the per-process module cache may hand
the same kernel to every rank thread; calls release the GIL, so rank
threads genuinely overlap inside the kernel.

No build-system dependency: the generated translation unit is compiled
with the system ``cc`` straight into a shared object and loaded through
``cffi``'s ABI mode (``dlopen``), sidestepping setuptools entirely.
"""

from __future__ import annotations

import atexit
import functools
import math
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.brick.info import all_direction_vectors, direction_index
from repro.faults.errors import ExchangeConfigError
from repro.stencil.brick_kernels import _margin_slices
from repro.stencil.spec import tap_groups

__all__ = [
    "KernelBoundsError",
    "KernelBuildError",
    "MOVER_SOURCE",
    "Movers",
    "array_movers",
    "array_step_kernel",
    "array_step_source",
    "backend_choice",
    "batch_step_kernel",
    "batch_step_source",
    "bounds_guard_enabled",
    "brick_stage_boxes",
    "c_tier",
    "kernel_env",
    "kernel_flags",
    "mover_kernel",
    "sanitize_flags",
    "toolchain_missing",
]

try:  # a declared dependency; without it the module still imports, and
    import cffi  # run_executed refuses the run naming what is missing
except ImportError:  # pragma: no cover - environment without cffi
    cffi = None

_lock = threading.Lock()
# specialization key -> loaded kernel, or the reason it could not be built
_kernels: Dict[Tuple, Union[Callable, "KernelBuildError"]] = {}
_build_dirs: list = []

#: sanitizers REPRO_CC_SANITIZE may request, mapped to compile flags
_SANITIZERS = {
    "address": "-fsanitize=address",
    "undefined": "-fsanitize=undefined",
}

#: The kernels are straight-line unrolled tap loops: what they need from
#: the optimizer is register allocation and SIMD on the unit-stride axis
#: -- as wide as the host that runs them has (``-march=native``), with
#: the loops' remainders left scalar (``vect-epilogues-nomask=0``: a
#: second, narrower vector epilogue per loop costs compile time and buys
#: nothing on 8- to 48-element rows).  Measured per kernel (EXPERIMENTS
#: "Kernels for the host"; AVX-512 host, one rank's compute slots):
#: against ``-O1 -ftree-vectorize`` (2-wide SSE2) the 125-point brick
#: and array kernels run 3-4x faster, the 7-point brick kernel 1.7x and
#: the 7-point array kernel ~1.2x; ``cc`` time is about the same but
#: for the 125-point kernels (brick 0.5x, array 1.2x; without the
#: ``--param`` the array one is 2x).  ``-O2`` leaves the array loops
#: unvectorized (7-point 2.2x slower) and ``-O3`` makes the 7-point
#: brick kernel 1.9x slower.  Every flag set gives the same bits:
#: ``-ffp-contract=off`` and the canonical accumulation order fix every
#: rounding, SIMD only runs cells side by side.
_HOST_FLAGS = (
    "-O1", "-ftree-vectorize", "-march=native",
    "--param", "vect-epilogues-nomask=0",
)
#: What a unit is rebuilt with when the compiler refuses the host flags
#: (GCC on POWER spells it ``-mcpu=native``; ``--param`` is GCC's own):
#: baseline SIMD for the target, the same bits.
_PORTABLE_FLAGS = ("-O1", "-ftree-vectorize")
# Whether the compiler took _HOST_FLAGS in this process: None until a
# unit has been built, "" once it did, else the first line of its
# refusal -- after which every unit is built with _PORTABLE_FLAGS.
_flags_refusal: Optional[str] = None
#: lines of the compiler's stderr a KernelBuildError carries
_STDERR_LINES = 3


class KernelBoundsError(RuntimeError):
    """The bounds-guarded C kernel observed out-of-range accesses.

    Only raised when ``REPRO_CC_BOUNDS=1`` selects the guarded kernel
    variant, which checks every adjacency entry it stages through and
    every destination slot (bricks) or every box's read footprint
    (arrays) against the storage extents at runtime and reports the
    violation count instead of touching memory out of bounds.  The
    exchange's movers are guarded the same way: every box against its
    array and its buffer, every ``copy_list`` length against both of
    its views, checked before the first byte moves.
    """


class KernelBuildError(RuntimeError):
    """No compiled kernel: the message says what the toolchain refused."""


def sanitize_flags() -> Tuple[str, ...]:
    """Compile flags requested via ``REPRO_CC_SANITIZE``.

    The variable holds a comma-separated subset of ``address`` and
    ``undefined`` (e.g. ``REPRO_CC_SANITIZE=address,undefined``); any
    sanitizer implies a debug-friendly build (``-g``,
    ``-fno-omit-frame-pointer``).  Note ASan interposition requires the
    host process to preload ``libasan`` (``LD_PRELOAD=$(cc
    -print-file-name=libasan.so)``) because the kernel is ``dlopen``ed;
    UBSan needs no preload.
    """
    raw = os.environ.get("REPRO_CC_SANITIZE", "").strip()
    if not raw:
        return ()
    flags = []
    for token in raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in _SANITIZERS:
            raise ValueError(
                f"REPRO_CC_SANITIZE token {token!r}: expected a comma"
                f" list of {sorted(_SANITIZERS)}"
            )
        flags.append(_SANITIZERS[token])
    if flags:
        flags += ["-g", "-fno-omit-frame-pointer"]
    return tuple(flags)


def bounds_guard_enabled() -> bool:
    """True when ``REPRO_CC_BOUNDS=1`` selects the guarded kernel."""
    raw = os.environ.get("REPRO_CC_BOUNDS", "0").strip()
    if raw not in ("", "0", "1"):
        raise ValueError(
            f"REPRO_CC_BOUNDS={raw!r}: expected 0 or 1"
        )
    return raw == "1"


def backend_choice() -> str:
    """The one tier every plan and mover runs on: ``"cffi"``.  Builds
    nothing and reads no environment (kept as the name run records
    read)."""
    return "cffi"


def kernel_env() -> Tuple[Tuple[str, ...], bool]:
    """``(sanitize flags, bounds guard)``: everything the environment
    contributes to which kernel a specialization gets."""
    return sanitize_flags(), bounds_guard_enabled()


def _compiler() -> Optional[str]:
    return shutil.which("cc") or shutil.which("gcc")


def toolchain_missing() -> str:
    """What this host lacks to build any unit (``""``: nothing)."""
    if cffi is None:
        return "cffi is not installed"
    if _compiler() is None:
        return "no C compiler (cc or gcc) on PATH"
    return ""


def _hexf(x: float) -> str:
    """C99 hex float literal carrying the exact double bit pattern."""
    return float(x).hex()


def _row_major_strides(shape: Sequence[int]) -> List[int]:
    strides = [1] * len(shape)
    for a in range(len(shape) - 2, -1, -1):
        strides[a] = strides[a + 1] * shape[a + 1]
    return strides


def _tap_terms(
    taps: Sequence[Tuple[Tuple[int, ...], float]], strides: Sequence[int]
) -> Tuple[List[int], List[Tuple[float, List[int]]]]:
    """``(unique flat offsets, (coeff, offset slots) per tap group)``.

    Redundancy elimination across taps: every tap is a constant flat
    offset from the cell's own position, and taps landing on the same
    cell share one load (offsets are in first-use order).  Arithmetic
    shared by taps of one coefficient is done once: the groups are
    :func:`~repro.stencil.spec.tap_groups`, the canonical order.
    """
    offsets: List[int] = []
    slot = {}
    for off, _ in taps:
        rel = sum(o * s for o, s in zip(reversed(off), strides))
        if rel not in offsets:
            offsets.append(rel)
        slot[off] = offsets.index(rel)
    groups = [
        (coeff, [slot[off] for off in members])
        for coeff, members in tap_groups(taps)
    ]
    return offsets, groups


def _accumulate(
    groups: Sequence[Tuple[float, List[int]]], indent: str
) -> List[str]:
    """The canonical accumulation over loaded ``x<slot>`` values,
    unrolled: ``acc = c0 * (x.. + x..)`` for the first group, then
    ``t = ck * (x.. + x..); acc = acc + t`` per later one -- each sum
    left to right, as C evaluates ``+`` (a singleton group is a plain
    ``ck * xk``)."""

    def term(coeff: float, slots: List[int]) -> str:
        loads = " + ".join(f"x{k}" for k in slots)
        return f"{_hexf(coeff)} * " + (loads if len(slots) == 1 else f"({loads})")

    lines = [f"{indent}double acc = {term(*groups[0])};"]
    if len(groups) > 1:
        lines.append(f"{indent}double t;")
        for coeff, slots in groups[1:]:
            lines.append(f"{indent}t = {term(coeff, slots)};")
            lines.append(f"{indent}acc = acc + t;")
    return lines


@functools.lru_cache(maxsize=None)
def brick_stage_boxes(
    taps: Tuple[Tuple[Tuple[int, ...], float], ...],
    np_bd: Tuple[int, ...],
    radius: int,
) -> Tuple[Tuple[int, int, int, Tuple[int, ...]], ...]:
    """The sub-boxes a brick's halo tile is staged from, one per
    adjacency direction some tap reaches (7 of 27 for a 3-D star).

    Rows of ``(adjacency column, flat offset in the tile, flat offset in
    the neighbour brick's field, extent per numpy axis)``: the
    :func:`~repro.stencil.brick_kernels._margin_slices` geometry of the
    generic gather, flattened.  Tile cells no row covers are never read
    by a tap and are left as they are.  Every brick kernel stages from
    this one list (every plan compile asks for it, hence the memo).
    """
    ndim = len(np_bd)
    bd = tuple(reversed(np_bd))
    tile_strides = _row_major_strides([b + 2 * radius for b in np_bd])
    brick_strides = _row_major_strides(np_bd)
    rows = []
    for vec in all_direction_vectors(ndim):
        if not any(
            all(v == 0 or v * o > 0 for v, o in zip(vec, off))
            for off, _ in taps
        ):
            continue
        pairs = [
            _margin_slices(vec[axis], bd[axis], radius)
            for axis in range(ndim - 1, -1, -1)  # numpy order: axis D first
        ]
        rows.append((
            direction_index(vec),
            sum(t.start * s for (t, _), s in zip(pairs, tile_strides)),
            sum(n.start * s for (_, n), s in zip(pairs, brick_strides)),
            tuple(t.stop - t.start for t, _ in pairs),
        ))
    return tuple(rows)


def _loop_nest(
    bounds: Sequence, indent: str, prefix: str = "i"
) -> Tuple[List[str], List[str], str]:
    """``(opening lines, loop variables, indent inside)`` of a row-major
    loop nest with the given per-axis upper bounds (C expressions)."""
    lines, names = [], []
    for a, bound in enumerate(bounds):
        v = f"{prefix}{a}"
        lines.append(
            f"{indent}for (int64_t {v} = 0; {v} < {bound}; ++{v}) {{"
        )
        names.append(v)
        indent += "    "
    return lines, names, indent


def _close_nest(depth: int, indent: str) -> List[str]:
    return [f"{indent[: len(indent) - 4 * (a + 1)]}}}" for a in range(depth)]


def _flat(names: Sequence[str], strides: Sequence[int]) -> str:
    return " + ".join(
        v if s == 1 else f"{v} * {s}" for v, s in zip(names, strides)
    )


def batch_step_source(
    taps: Sequence[Tuple[Tuple[int, ...], float]],
    np_bd: Tuple[int, ...],
    radius: int,
    field_offset: int,
    brick_elems: int,
    guard: bool = False,
) -> str:
    """C source of the brick kernel: stage a halo tile, then sweep it.

    Signature: ``repro_step(src, dst, adj, slots, nbricks, tile)`` where
    *src*/*dst* are the flat storage element arrays, *adj* the plan's
    ``(nbricks, 3^D)`` adjacency rows (``-1`` = no such brick), *slots*
    the destination slot per brick and *tile* a caller-owned scratch of
    ``prod(bd + 2r)`` elements.  Per brick:

    * **stage** -- each reached direction's sub-box
      (:func:`brick_stage_boxes`, emitted as one ``static const`` table
      driving a copy loop nest) is copied from the neighbour brick into
      the tile, or zero-filled when the neighbour is absent;
    * **sweep** -- the canonical accumulation, unrolled, runs over the tile
      with compile-time strides, unit-stride innermost, exactly like the
      array kernel, and stores the destination brick.

    With *guard* (``REPRO_CC_BOUNDS=1``) the signature grows
    ``src_elems``/``dst_elems`` and the function returns a violation
    count: an adjacency entry other than ``-1`` outside
    ``[0, src_elems / brick_elems)`` is counted and staged as absent, a
    destination slot whose brick does not fit in ``dst_elems`` is
    counted and skipped, and the Python wrapper turns a nonzero count
    into :class:`KernelBoundsError`.  Guarded and unguarded kernels are
    bit-identical on in-bounds rows.
    """
    np_bd = tuple(int(b) for b in np_bd)
    ndim = len(np_bd)
    tile_np = tuple(b + 2 * radius for b in np_bd)
    tile_strides = _row_major_strides(tile_np)
    brick_strides = _row_major_strides(np_bd)
    tap_offsets, tap_terms = _tap_terms(taps, tile_strides)
    # Staged boxes grouped by their unit-stride extent (the brick's, or
    # the radius): within a group the innermost copy has a compile-time
    # trip count, so it vectorizes with no runtime epilogue.
    groups: Dict[int, list] = {}
    for box in brick_stage_boxes(taps, np_bd, radius):
        groups.setdefault(box[3][-1], []).append(box)
    nboxes = sum(len(rows) for rows in groups.values())
    ret = "int64_t" if guard else "void"
    pad = " " * (len(ret) + 12)
    body = [
        "#include <stdint.h>",
        "",
        "/* per staged direction: adjacency column, tile offset, offset in",
        "   the neighbour's field, extent per axis but the unit-stride one */",
        f"static const int64_t STAGE[{nboxes}][{2 + ndim}] = {{",
    ]
    for rows in groups.values():
        for column, tile_off, brick_off, extent in rows:
            cells = (column, tile_off, brick_off, *extent[:-1])
            body.append("    {" + ", ".join(str(n) for n in cells) + "},")
    body += [
        "};",
        "",
        f"{ret} repro_step(const double *restrict src,"
        " double *restrict dst,",
        f"{pad}const int64_t *restrict adj,"
        " const int64_t *restrict slots,",
        f"{pad}int64_t nbricks, double *restrict tile"
        + (f",\n{pad}int64_t src_elems, int64_t dst_elems)" if guard else ")"),
        "{",
    ]
    if guard:
        body.append("    int64_t violations = 0;")
        body.append(f"    const int64_t nslots = src_elems / {brick_elems};")
    body.append("    for (int64_t b = 0; b < nbricks; ++b) {")
    body.append(f"        const int64_t *row = adj + b * {3 ** ndim};")
    if guard:
        body += [
            "        if (slots[b] < 0"
            f" || (slots[b] + 1) * {brick_elems} > dst_elems) {{",
            "            ++violations;",
            "            continue;",
            "        }",
        ]
    # Stage: one table-driven copy nest per group (unrolling it per
    # direction costs 1.6x the compile time of the whole kernel).
    first = 0
    indent = "            "
    for unit, rows in groups.items():
        body += [
            f"        for (int k = {first}; k < {first + len(rows)}; ++k) {{",
            f"{indent}const int64_t *box = STAGE[k];",
            f"{indent}double *restrict to = tile + box[1];",
        ]
        first += len(rows)
        if guard:
            body += [
                f"{indent}int64_t nb = row[box[0]];",
                f"{indent}if (nb < -1 || nb >= nslots) {{",
                f"{indent}    ++violations;",
                f"{indent}    nb = -1;",
                f"{indent}}}",
            ]
        else:
            body.append(f"{indent}const int64_t nb = row[box[0]];")
        extents = [f"box[{3 + a}]" for a in range(ndim - 1)] + [unit]
        nest, names, inner = _loop_nest(extents, indent + "    ", "c")
        to_cell = f"{inner}to[{_flat(names, tile_strides)}]"
        body.append(f"{indent}if (nb < 0) {{")
        body += nest + [f"{to_cell} = 0.0;"] + _close_nest(ndim, inner)
        body.append(f"{indent}}} else {{")
        body.append(
            f"{indent}    const double *restrict from ="
            f" src + nb * {brick_elems} + {field_offset} + box[2];"
        )
        body += nest + [f"{to_cell} = from[{_flat(names, brick_strides)}];"]
        body += _close_nest(ndim, inner)
        body.append(f"{indent}}}")
        body.append("        }")
    # Sweep: rows of the brick, unit-stride innermost, taps at constant
    # offsets from the cell's own position in the tile.
    body.append(
        f"        double *out = dst + slots[b] * {brick_elems}"
        f" + {field_offset};"
    )
    nest, names, inner = _loop_nest(np_bd[:-1], "        ")
    body += nest
    center = sum(radius * s for s in tile_strides)
    row_t = _flat(names, tile_strides) or "0"
    row_o = _flat(names, brick_strides) or "0"
    body.append(
        f"{inner}const double *restrict x = tile + {center} + ({row_t});"
    )
    body.append(f"{inner}double *restrict o = out + ({row_o});")
    v = f"i{ndim - 1}"
    body.append(
        f"{inner}for (int64_t {v} = 0; {v} < {np_bd[-1]}; ++{v}) {{"
    )
    cell = inner + "    "
    for slot, rel in enumerate(tap_offsets):
        body.append(f"{cell}const double x{slot} = x[{v} + ({rel})];")
    body += _accumulate(tap_terms, cell)
    body.append(f"{cell}o[{v}] = acc;")
    body += _close_nest(ndim, cell)
    body.append("    }")
    if guard:
        body.append("    return violations;")
    body.append("}")
    return "\n".join(body) + "\n"


def array_step_source(
    taps: Sequence[Tuple[Tuple[int, ...], float]],
    shape: Tuple[int, ...],
    guard: bool = False,
) -> str:
    """C source of the extended-array box kernel.

    Signature: ``repro_array_step(src, dst, boxes, nboxes)`` where
    *src*/*dst* are C-contiguous float64 arrays of extended shape
    *shape* (numpy axis order) and *boxes* holds ``nboxes`` boxes of
    per-axis ``(lo, hi)`` int64 pairs.  The shape -- and with it every
    tap's flat offset -- is a compile-time constant; the box bounds are
    call-time data, so one build serves every box of that array.  The
    innermost loop is the unit-stride axis: loads at constant offsets
    from the cell, the canonical accumulation unrolled, one store.

    With *guard* (``REPRO_CC_BOUNDS=1``) the signature grows
    ``src_elems``/``dst_elems`` and the function returns the number of
    boxes it refused: a box whose read footprint (the box grown by the
    taps' reach per axis) leaves the extended array -- or any box at
    all when an array is smaller than *shape* -- is skipped and
    counted, and the Python wrapper raises :class:`KernelBoundsError`.
    Guarded and unguarded kernels are bit-identical on in-bounds boxes.
    """
    shape = tuple(int(n) for n in shape)
    ndim = len(shape)
    strides = _row_major_strides(shape)
    tap_offsets, tap_terms = _tap_terms(taps, strides)
    ret = "int64_t" if guard else "void"
    pad = " " * 22
    body = [
        "#include <stdint.h>",
        "",
        f"{ret} repro_array_step(const double *restrict src,"
        " double *restrict dst,",
        f"{pad}const int64_t *restrict boxes, int64_t nboxes"
        + (f",\n{pad}int64_t src_elems, int64_t dst_elems)" if guard else ")"),
        "{",
    ]
    if guard:
        body.append("    int64_t violations = 0;")
    body.append("    int64_t b;")
    body.append("    for (b = 0; b < nboxes; ++b) {")
    body.append(f"        const int64_t *box = boxes + b * {2 * ndim};")
    if guard:
        # Per-axis reach of the taps below / above the cell.
        below = [max(0, -min(off[ndim - 1 - a] for off, _ in taps))
                 for a in range(ndim)]
        above = [max(0, max(off[ndim - 1 - a] for off, _ in taps))
                 for a in range(ndim)]
        elems = int(math.prod(shape))
        checks = [f"src_elems < {elems}", f"dst_elems < {elems}"]
        for a in range(ndim):
            checks.append(f"box[{2 * a}] < {below[a]}")
            checks.append(f"box[{2 * a + 1}] > {shape[a] - above[a]}")
        body.append("        if (" + " || ".join(checks) + ") {")
        body.append("            ++violations;")
        body.append("            continue;")
        body.append("        }")
    indent = "        "
    loop_vars = [f"i{a}" for a in range(ndim)]
    for a in range(ndim - 1):
        v = loop_vars[a]
        body.append(
            f"{indent}for (int64_t {v} = box[{2 * a}];"
            f" {v} < box[{2 * a + 1}]; ++{v}) {{"
        )
        indent += "    "
    row = " + ".join(
        f"{v} * {s}" for v, s in zip(loop_vars[:-1], strides[:-1])
    ) or "0"
    body.append(f"{indent}const double *restrict x = src + ({row});")
    body.append(f"{indent}double *restrict o = dst + ({row});")
    v = loop_vars[-1]
    body.append(
        f"{indent}for (int64_t {v} = box[{2 * ndim - 2}];"
        f" {v} < box[{2 * ndim - 1}]; ++{v}) {{"
    )
    inner = indent + "    "
    for slot, rel in enumerate(tap_offsets):
        body.append(f"{inner}const double x{slot} = x[{v} + ({rel})];")
    body += _accumulate(tap_terms, inner)
    body.append(f"{inner}o[{v}] = acc;")
    for a in range(ndim):
        body.append(f"{indent}}}")
        indent = indent[:-4]
    body.append("    }")
    if guard:
        body.append("    return violations;")
    body.append("}")
    return "\n".join(body) + "\n"


#: Most axes a box mover walks (its odometer is a fixed stack array).
MOVER_MAX_NDIM = 8


def _crc_table_rows() -> str:
    """The 256-entry byte table of the reflected CRC-32 polynomial, as
    the rows of a C initializer."""
    table = []
    for byte in range(256):
        c = byte
        for _ in range(8):
            c = (c >> 1) ^ (0xEDB88320 if c & 1 else 0)
        table.append(c)
    return "\n".join(
        "    " + ", ".join(f"0x{c:08x}u" for c in table[i : i + 6]) + ","
        for i in range(0, 256, 6)
    )


#: The exchange's data movers: constant text, the tail of the first
#: translation unit :func:`_load` builds with given sanitize flags (any
#: kernel's: the text depends on no specialization; ~40 ms of compiler
#: time for the copies and ~35 for the checksums -- ``<wmmintrin.h>``
#: alone, ``<immintrin.h>`` would be 360 -- which a second unit need not
#: pay again).  ``boxes`` is an
#: ``(nboxes, ndim, 2)`` table of per-axis ``(lo, hi)`` element ranges in
#: a row-major double array of extents ``shape``; box *b* travels through
#: the flat buffer ``bufs[b]``, a ``memcpy`` per innermost row (an inline
#: loop for rows of up to 16 elements: the x-faces' ghost-wide rows, where
#: a libc call per 64 bytes cost a 48^3 unpack 13%).  The
#: capacity tables are the bounds guard: given them (``REPRO_CC_BOUNDS``)
#: a call checks every entry first, and on any violation writes nothing
#: and returns the count.  ``copy_list`` uses ``memmove``: a sender's and
#: a receiver's view come from different binds of (possibly) one arena.
#: ``crc_list`` seals one exchange side (the CRC-32 of every send view)
#: and ``copy_crc_list`` receives one on a verified fabric: the copy,
#: then the CRC-32 of the bytes that *landed*.  The folding needs a CPU
#: with carry-less multiply; ``repro_crc_engaged`` is the probe, asked
#: once per :class:`Movers`: it answers the widest fold the unit was
#: built with -- 512 bits where the build flags name AVX-512 and
#: VPCLMULQDQ (``-march=native`` on such a host: the macros decide at
#: compile time, so there is no run-time dispatch), else 128 -- and a
#: build for anything but x86-64 carries the byte table only and
#: answers 0.
MOVER_SOURCE = "\n#define REPRO_MOVER_MAX_NDIM %d\n" % MOVER_MAX_NDIM + """
#include <stdint.h>
#include <string.h>

/* The bounds checks loop over at most eight axes or one call's list:
   vectorizing them for AVX-512 buys nothing at run time and cost the
   movers' unit ~12 ms of compiler time, all of what -march=native added
   to it (GCC 12; other compilers keep their default). */
#if defined(__GNUC__) && !defined(__clang__)
#define REPRO_SCALAR __attribute__((optimize("no-tree-vectorize")))
#else
#define REPRO_SCALAR
#endif

REPRO_SCALAR
static int64_t repro_box_violations(int64_t arr_elems, const int64_t *shape,
                                    int64_t ndim, const int64_t *boxes,
                                    int64_t nboxes, const int64_t *buf_elems)
{
    int64_t total = 1, bad = 0, a, b;
    if (ndim < 1 || ndim > REPRO_MOVER_MAX_NDIM)
        return nboxes + 1;
    for (a = 0; a < ndim; ++a)
        total *= shape[a];
    if (arr_elems < total)
        return nboxes + 1;
    for (b = 0; b < nboxes; ++b) {
        const int64_t *box = boxes + b * 2 * ndim;
        int64_t volume = 1, ok = 1;
        for (a = 0; a < ndim; ++a) {
            const int64_t lo = box[2 * a], hi = box[2 * a + 1];
            if (lo < 0 || hi < lo || hi > shape[a])
                ok = 0;
            volume *= hi - lo;
        }
        if (!ok || buf_elems[b] < volume)
            ++bad;
    }
    return bad;
}

static int64_t repro_box_move(double *arr, int64_t arr_elems,
                              const int64_t *shape, int64_t ndim,
                              const int64_t *boxes, int64_t nboxes,
                              char *const *bufs, const int64_t *buf_elems,
                              int scatter)
{
    int64_t stride[REPRO_MOVER_MAX_NDIM], at[REPRO_MOVER_MAX_NDIM], a, b, r;
    const int64_t last = ndim - 1;
    if (buf_elems) {
        const int64_t bad = repro_box_violations(
            arr_elems, shape, ndim, boxes, nboxes, buf_elems);
        if (bad)
            return bad;
    }
    stride[last] = 1;
    for (a = last - 1; a >= 0; --a)
        stride[a] = stride[a + 1] * shape[a + 1];
    for (b = 0; b < nboxes; ++b) {
        const int64_t *box = boxes + b * 2 * ndim;
        const int64_t row = box[2 * last + 1] - box[2 * last];
        double *buf = (double *)bufs[b];
        int64_t rows = 1, base = box[2 * last];
        for (a = 0; a < last; ++a) {
            at[a] = box[2 * a];
            rows *= box[2 * a + 1] - box[2 * a];
            base += box[2 * a] * stride[a];
        }
        if (row <= 0 || rows <= 0)
            continue;
        for (r = 0; r < rows; ++r) {
            double *restrict to = scatter ? arr + base : buf;
            const double *restrict from = scatter ? buf : arr + base;
            if (row <= 16) {  /* a face's ghost-wide rows: cheaper than a call */
                int64_t i;
                for (i = 0; i < row; ++i)
                    to[i] = from[i];
            } else
                memcpy(to, from, row * sizeof(double));
            buf += row;
            for (a = last - 1; a >= 0; --a) {
                base += stride[a];
                if (++at[a] < box[2 * a + 1])
                    break;
                base -= (box[2 * a + 1] - box[2 * a]) * stride[a];
                at[a] = box[2 * a];
            }
        }
    }
    return 0;
}

int64_t repro_gather(const double *arr, int64_t arr_elems,
                     const int64_t *shape, int64_t ndim,
                     const int64_t *boxes, int64_t nboxes,
                     char *const *bufs, const int64_t *buf_elems)
{
    return repro_box_move((double *)arr, arr_elems, shape, ndim, boxes,
                          nboxes, bufs, buf_elems, 0);
}

int64_t repro_scatter(double *arr, int64_t arr_elems,
                      const int64_t *shape, int64_t ndim,
                      const int64_t *boxes, int64_t nboxes,
                      char *const *bufs, const int64_t *buf_elems)
{
    return repro_box_move(arr, arr_elems, shape, ndim, boxes, nboxes, bufs,
                          buf_elems, 1);
}

/* Lengths that overrun a view (dst_bytes NULL: nothing is written). */
REPRO_SCALAR
static int64_t repro_list_violations(const int64_t *nbytes, int64_t n,
                                     const int64_t *src_bytes,
                                     const int64_t *dst_bytes)
{
    int64_t i, bad = 0;
    for (i = 0; i < n; ++i)
        if (nbytes[i] < 0 || nbytes[i] > src_bytes[i]
                || (dst_bytes && nbytes[i] > dst_bytes[i]))
            ++bad;
    return bad;
}

int64_t repro_copy_list(char *const *src, char *const *dst,
                        const int64_t *nbytes, int64_t n,
                        const int64_t *src_bytes, const int64_t *dst_bytes)
{
    int64_t i;
    if (src_bytes) {
        const int64_t bad = repro_list_violations(nbytes, n, src_bytes,
                                                  dst_bytes);
        if (bad)
            return bad;
    }
    for (i = 0; i < n; ++i)
        memmove(dst[i], src[i], nbytes[i]);
    return 0;
}

/* CRC-32 (IEEE 802.3, reflected 0xEDB88320; zlib.crc32's function),
   folded by carry-less multiply, then Barrett reduction (Intel, "Fast CRC
   Computation for Generic Polynomials Using PCLMULQDQ").  A build whose
   target has AVX-512 and VPCLMULQDQ (-march=native on such a host) folds
   four 512-bit lanes -- 256 bytes -- per step, 64 bytes per instruction,
   by x^2080 / x^2016 mod P; merges them by the 512-bit distance k1k2,
   64 bytes at a time; and hands the four 128-bit lanes of the result to
   the 128-bit tail.  Any other x86-64 build, and any view under 256
   bytes, folds four 128-bit lanes per 64 bytes.  The tail reduces the
   four lanes by k3k4, folds the last whole 16-byte blocks, and reduces
   to 32 bits; the byte table takes what folding cannot: a view under 64
   bytes, and the under-16-byte tail of any other. */
static const uint32_t REPRO_CRC_TABLE[256] = {
%s
};

static uint32_t repro_crc_bytes(uint32_t state, const unsigned char *p,
                                int64_t n)
{
    while (n-- > 0)
        state = REPRO_CRC_TABLE[(state ^ *p++) & 0xff] ^ (state >> 8);
    return state;
}

#if defined(__x86_64__)
#include <wmmintrin.h>

#define REPRO_CRC_LOAD(p) _mm_loadu_si128((const __m128i *)(p))
#define REPRO_CRC_FOLD(x, k, data) \
    _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), \
                                _mm_clmulepi64_si128(x, k, 0x11)), data)

/* The 512-bit fold through GCC's builtin and vector extensions: the
   <immintrin.h> that spells it as intrinsics would cost the unit ~150 ms
   of compiler time (GCC 12), nearly doubling it. */
#if defined(__AVX512F__) && defined(__VPCLMULQDQ__) && defined(__has_builtin)
#if __has_builtin(__builtin_ia32_vpclmulqdq_v8di) \
    && __has_builtin(__builtin_shufflevector)
#define REPRO_CRC_WIDE 1
typedef long long repro_v8di __attribute__((vector_size(64)));
typedef long long repro_v8di_u
    __attribute__((vector_size(64), aligned(1), may_alias));
#define REPRO_CRC_LOAD512(p) (*(const repro_v8di_u *)(p))
#define REPRO_CRC_FOLD512(x, k, data) \
    (__builtin_ia32_vpclmulqdq_v8di(x, k, 0x00) \
     ^ __builtin_ia32_vpclmulqdq_v8di(x, k, 0x11) ^ (data))
#endif
#endif

/* n >= 64 and a multiple of 16 */
__attribute__((target("pclmul")))
static uint32_t repro_crc_fold(uint32_t state, const unsigned char *p,
                               int64_t n)
{
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_set_epi32(0, ~0, 0, ~0);
    __m128i x1, x2, x3, x4, t;
#if REPRO_CRC_WIDE
    if (n >= 256) {
        const repro_v8di k1k2 = {
            0x0154442bd4, 0x01c6e41596, 0x0154442bd4, 0x01c6e41596,
            0x0154442bd4, 0x01c6e41596, 0x0154442bd4, 0x01c6e41596};
        const repro_v8di k2048 = {
            0x011542778a, 0x01322d1430, 0x011542778a, 0x01322d1430,
            0x011542778a, 0x01322d1430, 0x011542778a, 0x01322d1430};
        const repro_v8di seed = {(long long)state, 0, 0, 0, 0, 0, 0, 0};
        repro_v8di z1 = REPRO_CRC_LOAD512(p) ^ seed;
        repro_v8di z2 = REPRO_CRC_LOAD512(p + 64);
        repro_v8di z3 = REPRO_CRC_LOAD512(p + 128);
        repro_v8di z4 = REPRO_CRC_LOAD512(p + 192);
        for (p += 256, n -= 256; n >= 256; p += 256, n -= 256) {
            z1 = REPRO_CRC_FOLD512(z1, k2048, REPRO_CRC_LOAD512(p));
            z2 = REPRO_CRC_FOLD512(z2, k2048, REPRO_CRC_LOAD512(p + 64));
            z3 = REPRO_CRC_FOLD512(z3, k2048, REPRO_CRC_LOAD512(p + 128));
            z4 = REPRO_CRC_FOLD512(z4, k2048, REPRO_CRC_LOAD512(p + 192));
        }
        z1 = REPRO_CRC_FOLD512(z1, k1k2, z2);
        z1 = REPRO_CRC_FOLD512(z1, k1k2, z3);
        z1 = REPRO_CRC_FOLD512(z1, k1k2, z4);
        for (; n >= 64; p += 64, n -= 64)
            z1 = REPRO_CRC_FOLD512(z1, k1k2, REPRO_CRC_LOAD512(p));
        x1 = __builtin_shufflevector(z1, z1, 0, 1);
        x2 = __builtin_shufflevector(z1, z1, 2, 3);
        x3 = __builtin_shufflevector(z1, z1, 4, 5);
        x4 = __builtin_shufflevector(z1, z1, 6, 7);
    } else
#endif
    {
        const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
        x1 = _mm_xor_si128(REPRO_CRC_LOAD(p), _mm_cvtsi32_si128((int)state));
        x2 = REPRO_CRC_LOAD(p + 16);
        x3 = REPRO_CRC_LOAD(p + 32);
        x4 = REPRO_CRC_LOAD(p + 48);
        for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
            x1 = REPRO_CRC_FOLD(x1, k1k2, REPRO_CRC_LOAD(p));
            x2 = REPRO_CRC_FOLD(x2, k1k2, REPRO_CRC_LOAD(p + 16));
            x3 = REPRO_CRC_FOLD(x3, k1k2, REPRO_CRC_LOAD(p + 32));
            x4 = REPRO_CRC_FOLD(x4, k1k2, REPRO_CRC_LOAD(p + 48));
        }
    }
    x1 = REPRO_CRC_FOLD(x1, k3k4, x2);
    x1 = REPRO_CRC_FOLD(x1, k3k4, x3);
    x1 = REPRO_CRC_FOLD(x1, k3k4, x4);
    for (; n >= 16; p += 16, n -= 16)
        x1 = REPRO_CRC_FOLD(x1, k3k4, REPRO_CRC_LOAD(p));
    /* 128 -> 64 -> 32 bits; SSE2 shifts, so no <smmintrin.h> extract */
    t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
    t = _mm_srli_si128(x1, 4);
    x1 = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00), t);
    t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
    return (uint32_t)_mm_cvtsi128_si32(
        _mm_srli_si128(_mm_xor_si128(x1, t), 4));
}
#endif

/* The widest fold the list functions below take on this CPU, in bits:
   512 (built for AVX-512 + VPCLMULQDQ), 128 (carry-less multiply), or 0
   -- they may not be called (the builtin returns a bit mask, not 1). */
int64_t repro_crc_engaged(void)
{
#if defined(__x86_64__)
    if (!__builtin_cpu_supports("pclmul"))
        return 0;
#if REPRO_CRC_WIDE
    return 512;
#else
    return 128;
#endif
#else
    return 0;
#endif
}

static uint32_t repro_crc32(const unsigned char *p, int64_t n)
{
    uint32_t state = 0xffffffffu;
#if defined(__x86_64__)
    if (n >= 64) {
        const int64_t folded = n & ~(int64_t)15;
        state = repro_crc_fold(state, p, folded);
        p += folded;
        n -= folded;
    }
#endif
    return ~repro_crc_bytes(state, p, n);
}

int64_t repro_crc_list(char *const *src, const int64_t *nbytes, int64_t n,
                       uint32_t *out, const int64_t *src_bytes)
{
    int64_t i;
    if (src_bytes) {
        const int64_t bad = repro_list_violations(nbytes, n, src_bytes, 0);
        if (bad)
            return bad;
    }
    for (i = 0; i < n; ++i)
        out[i] = repro_crc32((const unsigned char *)src[i], nbytes[i]);
    return 0;
}

/* Copy, then checksum what landed: out[i] is the CRC of dst[i]. */
int64_t repro_copy_crc_list(char *const *src, char *const *dst,
                            const int64_t *nbytes, int64_t n, uint32_t *out,
                            const int64_t *src_bytes,
                            const int64_t *dst_bytes)
{
    int64_t i;
    if (src_bytes) {
        const int64_t bad = repro_list_violations(nbytes, n, src_bytes,
                                                  dst_bytes);
        if (bad)
            return bad;
    }
    for (i = 0; i < n; ++i) {
        memmove(dst[i], src[i], nbytes[i]);
        out[i] = repro_crc32((const unsigned char *)dst[i], nbytes[i]);
    }
    return 0;
}
""" % _crc_table_rows()
_MOVER_CDEF = """
int64_t repro_gather(const double *arr, int64_t arr_elems,
                     const int64_t *shape, int64_t ndim,
                     const int64_t *boxes, int64_t nboxes,
                     char *const *bufs, const int64_t *buf_elems);
int64_t repro_scatter(double *arr, int64_t arr_elems,
                      const int64_t *shape, int64_t ndim,
                      const int64_t *boxes, int64_t nboxes,
                      char *const *bufs, const int64_t *buf_elems);
int64_t repro_copy_list(char *const *src, char *const *dst,
                        const int64_t *nbytes, int64_t n,
                        const int64_t *src_bytes, const int64_t *dst_bytes);
int64_t repro_crc_engaged(void);
int64_t repro_crc_list(char *const *src, const int64_t *nbytes, int64_t n,
                       uint32_t *out, const int64_t *src_bytes);
int64_t repro_copy_crc_list(char *const *src, char *const *dst,
                            const int64_t *nbytes, int64_t n, uint32_t *out,
                            const int64_t *src_bytes,
                            const int64_t *dst_bytes);
"""
# sanitize flags -> (ffi, lib) of a loaded translation unit built with
# them: where mover_kernel finds the movers without a build of its own.
_mover_libs: Dict[Tuple, Tuple] = {}

_BATCH_ARGS = (
    "const double *src, double *dst, const int64_t *adj,"
    " const int64_t *slots, int64_t nbricks, double *tile"
)
_ARRAY_ARGS = (
    "const double *src, double *dst, const int64_t *boxes, int64_t nboxes"
)
_GUARD_ARGS = ", int64_t src_elems, int64_t dst_elems"


def kernel_flags() -> Tuple[Tuple[str, ...], str]:
    """``(optimisation flags, refusal)`` of the units this process
    builds: the host flags and ``""``, or -- once the compiler refused
    those -- the portable flags and the first line of its refusal.
    ``((), "")`` while no unit has been built yet."""
    if _flags_refusal is None:
        return (), ""
    if _flags_refusal:
        return _PORTABLE_FLAGS, _flags_refusal
    return _HOST_FLAGS, ""


def c_tier() -> str:
    """What a plan stepping on a compiled kernel reports as its
    ``kernel_backend``: ``"cffi"``, or ``"cffi (portable flags: <the
    compiler's refusal of the host flags>)"``."""
    refusal = kernel_flags()[1]
    return f"cffi (portable flags: {refusal})" if refusal else "cffi"


def _compile(cmd: List[str]) -> Optional[Tuple[KernelBuildError, str]]:
    """Run the compiler: ``None`` when it built, else the error to raise
    and the first line of its diagnostic (a compiler that did not run at
    all raises the error)."""
    try:
        subprocess.run(cmd, check=True, capture_output=True, timeout=120)
    except subprocess.CalledProcessError as err:
        stderr = err.stderr.decode(errors="replace").strip().splitlines()
        return KernelBuildError(
            f"{' '.join(cmd[:-3])} exited {err.returncode}: "
            + (" | ".join(stderr[:_STDERR_LINES]) or "no diagnostics")
        ), (stderr or [f"exited {err.returncode}"])[0]
    except (OSError, subprocess.SubprocessError) as err:
        raise KernelBuildError(f"{cmd[0]} did not run: {err}") from None
    return None


def _load(
    source: str, name: str, args: str, guard: bool, extra_flags: Sequence[str]
):
    """Compile *source* and return ``(ffi, lib.<name>, lib)``.  The
    first unit built with *extra_flags* also carries
    :data:`MOVER_SOURCE` and is where :func:`mover_kernel` finds the
    movers (*name* ``""``: the movers alone, no kernel function).

    Built with the host flags; if the process's first build is refused
    and the portable flags build the same unit, the refusal is kept and
    every later unit goes straight to the portable flags -- one extra
    compiler invocation per process, none where the host flags are
    taken.  Raises :class:`KernelBuildError` naming what refused: no
    ``cffi``, no compiler, or the compiler's / loader's own first words.
    """
    global _flags_refusal
    missing = toolchain_missing()
    if missing:
        raise KernelBuildError(missing)
    cc = _compiler()
    workdir = tempfile.mkdtemp(prefix="repro-ckernel-")
    _build_dirs.append(workdir)
    c_path = os.path.join(workdir, "kernel.c")
    so_path = os.path.join(workdir, "kernel.so")
    flags = tuple(extra_flags)
    carries_movers = flags not in _mover_libs
    with open(c_path, "w") as fh:
        fh.write(source + MOVER_SOURCE if carries_movers else source)

    def build(opt: Tuple[str, ...]):
        return _compile([
            cc, *opt, "-fPIC", "-shared", "-ffp-contract=off", *flags,
            "-o", so_path, c_path,
        ])

    refused = build(_PORTABLE_FLAGS if _flags_refusal else _HOST_FLAGS)
    if refused is not None and _flags_refusal is None:
        # No unit has answered yet: were the host flags what it refused?
        retry = build(_PORTABLE_FLAGS)
        if retry is None:
            _flags_refusal = refused[1]
        refused = retry
    if refused is not None:
        raise refused[0]
    if _flags_refusal is None:
        _flags_refusal = ""
    ffi = cffi.FFI()
    if carries_movers:
        ffi.cdef(_MOVER_CDEF)
    if name:
        ret = "int64_t" if guard else "void"
        ffi.cdef(f"{ret} {name}({args}{_GUARD_ARGS if guard else ''});")
    try:
        lib = ffi.dlopen(so_path)
    except OSError as err:
        raise KernelBuildError(f"dlopen of the built kernel: {err}") from None
    if carries_movers:
        _mover_libs[flags] = (ffi, lib)
    return ffi, getattr(lib, name) if name else None, lib


def _finish(call: Callable, lib, guard: bool, source: str, what: str):
    """The kernel callers hold: *call* itself, or under *guard* *call*
    handed the array extents and its violation count made a typed error.

    *call* binds one loaded C function's pointer arguments; keeping the
    unguarded kernel to that single frame matters on small subdomains,
    where 8 ranks x one call per step is a visible share of the step.
    """
    step = call
    if guard:

        def step(src_data: np.ndarray, dst_data: np.ndarray, *tables) -> None:
            violations = call(
                src_data, dst_data, *tables, src_data.size, dst_data.size
            )
            if violations:
                raise KernelBoundsError(
                    f"bounds-guarded kernel observed {violations}"
                    f" out-of-range {what} (REPRO_CC_BOUNDS=1)"
                )

    step.__source__ = source
    step.__lib__ = lib  # keep the dlopen handle alive with the kernel
    return step


def _build(
    source: str, guard: bool = False, extra_flags: Sequence[str] = ()
) -> Callable:
    """Compile and load brick-batch *source* (:func:`batch_step_source`)
    as ``step(src_data, dst_data, adj, slots, tile)``."""
    ffi, fn, lib = _load(source, "repro_step", _BATCH_ARGS, guard, extra_flags)
    cast, from_buffer = ffi.cast, ffi.from_buffer

    def call(src_data, dst_data, adj, slots, tile, *extents):
        return fn(
            cast("const double *", from_buffer(src_data)),
            cast("double *", from_buffer(dst_data, require_writable=True)),
            cast("const int64_t *", from_buffer(adj)),
            cast("const int64_t *", from_buffer(slots)),
            len(slots),
            cast("double *", from_buffer(tile, require_writable=True)),
            *extents,
        )

    return _finish(
        call, lib, guard, source, "adjacency entry / destination slot value(s)"
    )


def _build_array(
    source: str, guard: bool = False, extra_flags: Sequence[str] = ()
) -> Callable:
    """Compile and load array-box *source* (:func:`array_step_source`)
    as ``step(arr, out, boxes)``; *boxes* is ``(nboxes, ndim, 2)``."""
    ffi, fn, lib = _load(
        source, "repro_array_step", _ARRAY_ARGS, guard, extra_flags
    )
    cast, from_buffer = ffi.cast, ffi.from_buffer

    def call(arr, out, boxes, *extents):
        return fn(
            cast("const double *", from_buffer(arr)),
            cast("double *", from_buffer(out, require_writable=True)),
            cast("const int64_t *", from_buffer(boxes)),
            len(boxes),
            *extents,
        )

    return _finish(call, lib, guard, source, "box(es)")


class Movers:
    """The exchange's C movers, as binders over frozen tables.

    Each method freezes one exchange side -- every pointer, extent and
    length it will ever need -- into C tables and returns the zero-argument
    call that moves it: what a :class:`~repro.exchange.base.Binding` runs
    as ``pre`` / ``post`` and the fabric as its wire copy (on a verified
    fabric: its seal and its copy-and-check), once per
    exchange instead of once per message.  The tables hold raw addresses:
    a buffer export is taken only long enough to read the address, so no
    table pins an arena mapping (closing one is a raw ``munmap`` once the
    world has joined).  A box call keeps its array and buffers
    referenced; a ``copy_list`` call references nothing -- the fabric's
    cut holds both ends' views for as long as it may fire it.  Callers
    validate shapes, dtypes and contiguity first
    (:func:`repro.exchange.boxes.bind_gather`, the fabric's size check);
    under the bounds guard the C side re-checks every entry per call and
    a violation raises :class:`KernelBoundsError` before anything moved.
    The calls release the GIL.
    """

    def __init__(self, ffi, lib, guard: bool) -> None:
        self._ffi = ffi
        self._lib = lib
        self.guard = guard
        #: The widest fold :meth:`crc_list` / :meth:`copy_crc_list` take,
        #: in bits: 512, 128, or 0 where they cannot engage.
        self.crc_fold = int(lib.repro_crc_engaged())
        #: Why they cannot engage here (empty: they can); see
        #: :func:`mover_kernel`.
        self.crc_refusal = (
            "" if self.crc_fold
            else "the CRC movers fold by carry-less multiply and this CPU"
                 " (or a build for something other than x86-64) has none"
        )

    def _pointers(self, arrays: Sequence[np.ndarray]):
        """``char *[]`` of the arrays' addresses; holds none of them."""
        return self._ffi.new("char *[]", list(map(self._ffi.from_buffer, arrays)))

    def _sizes(self, sizes: Sequence[int]):
        """``int64_t[]`` of *sizes*, Python ints (shapes, ``.size``,
        ``.nbytes``, ``tolist()``)."""
        return self._ffi.new("int64_t[]", list(sizes))

    def _frozen(self, fn, args: tuple, what: str, keep=()) -> Callable[[], None]:
        """*fn* over *args*: the cdata tables in *args*, the dlopen
        handle and the arrays in *keep* live as long as the call."""
        call = functools.partial(fn, *args)
        if self.guard:
            unguarded = call

            def call() -> None:
                violations = unguarded()
                if violations:
                    raise KernelBoundsError(
                        f"bounds-guarded mover observed {violations}"
                        f" out-of-range {what} (REPRO_CC_BOUNDS=1)"
                    )

        call.__keep__ = (self._lib, keep)
        return call

    def _boxes(self, fn, arr: np.ndarray, boxes, bufs, ctype: str):
        ffi = self._ffi
        args = (
            ffi.cast(ctype, ffi.from_buffer(arr)),
            arr.size,
            self._sizes(arr.shape),
            arr.ndim,
            self._sizes(np.asarray(boxes).reshape(-1).tolist()),
            len(bufs),
            self._pointers(bufs),
            self._sizes([b.size for b in bufs]) if self.guard else ffi.NULL,
        )
        return self._frozen(fn, args, "box(es) / buffer(s)", (arr, list(bufs)))

    def gather(self, arr: np.ndarray, boxes, bufs) -> Callable[[], None]:
        """The call copying box *b* of *arr* into flat ``bufs[b]``, all
        of them; *boxes* is ``(len(bufs), arr.ndim, 2)`` ``(lo, hi)``."""
        return self._boxes(
            self._lib.repro_gather, arr, boxes, bufs, "const double *"
        )

    def scatter(self, arr: np.ndarray, boxes, bufs) -> Callable[[], None]:
        """The call copying flat ``bufs[b]`` into box *b* of *arr*."""
        return self._boxes(self._lib.repro_scatter, arr, boxes, bufs, "double *")

    def copy_list(self, srcs, dsts) -> Callable[[], None]:
        """The call copying ``dsts[i].nbytes`` bytes of ``srcs[i]`` into
        ``dsts[i]``, every *i*."""
        nbytes = self._sizes([d.nbytes for d in dsts])
        args = (
            self._pointers(srcs),
            self._pointers(dsts),
            nbytes,
            len(dsts),
            self._sizes([s.nbytes for s in srcs]) if self.guard else self._ffi.NULL,
            nbytes if self.guard else self._ffi.NULL,
        )
        return self._frozen(self._lib.repro_copy_list, args, "copy length(s)")

    def _crcs(self, fn, tables: tuple, n: int, caps: tuple, what: str):
        """*fn* over *tables*, a fresh ``uint32_t[n]`` and *caps* (the
        capacity tables, under the guard): the call returns the *n*
        checksums packed as native ``uint32`` -- ``bytes``, so a whole
        side compares in one ``==``."""
        if self.crc_refusal:
            raise KernelBuildError(
                f"the CRC movers cannot engage: {self.crc_refusal}"
                " (a verified fabric then checksums with zlib.crc32)"
            )
        out = self._ffi.new("uint32_t[]", n)
        null = (self._ffi.NULL,) * len(caps)
        run = self._frozen(
            fn, (*tables, n, out, *(caps if self.guard else null)), what
        )
        packed = self._ffi.buffer(out)

        def crcs() -> bytes:
            run()
            return packed[:]

        crcs.__keep__ = run.__keep__
        return crcs

    def crc_list(self, views) -> Callable[[], bytes]:
        """The call returning the CRC-32 of every one of *views* as it
        is now (``zlib.crc32``'s function), packed (:meth:`_crcs`): a
        cut's seal."""
        nbytes = self._sizes([v.nbytes for v in views])
        return self._crcs(
            self._lib.repro_crc_list, (self._pointers(views), nbytes),
            len(views), (nbytes,), "checksum length(s)",
        )

    def copy_crc_list(self, srcs, dsts) -> Callable[[], bytes]:
        """:meth:`copy_list` that also returns, per pair, the CRC-32 of
        the bytes that landed in ``dsts[i]``: a verified cut's receive."""
        nbytes = self._sizes([d.nbytes for d in dsts])
        return self._crcs(
            self._lib.repro_copy_crc_list,
            (self._pointers(srcs), self._pointers(dsts), nbytes), len(dsts),
            (self._sizes([s.nbytes for s in srcs]), nbytes),
            "copy length(s)",
        )


@atexit.register
def _cleanup() -> None:  # pragma: no cover - exit path
    for d in _build_dirs:
        shutil.rmtree(d, ignore_errors=True)


def _kernel_for(key: Tuple, build: Callable[[Tuple, bool], Callable]):
    """Resolve one specialization: *build* gets the sanitize flags and
    the guard switch, which join *key* in the per-process cache.  A
    refusal is cached too, so a broken toolchain is asked once per
    specialization, and every ask raises its :class:`KernelBuildError`.
    """
    sanitize, guard = kernel_env()
    key += (sanitize, guard)
    with _lock:
        fn = _kernels.get(key)
        if fn is None:
            try:
                fn = build(sanitize, guard)
            except KernelBuildError as err:
                fn = err
            _kernels[key] = fn
    if isinstance(fn, KernelBuildError):
        raise KernelBuildError(str(fn))  # a fresh one: no growing traceback
    return fn


def mover_kernel() -> Movers:
    """The C movers (see :func:`_kernel_for`).

    They are taken from the translation unit this process first loaded
    with the same sanitize flags -- it carries them -- and built
    stand-alone only when there is none (a process that binds a channel
    before any stencil plan, as fabric unit tests do).  On a CPU without
    carry-less multiply their CRC pair cannot engage
    (:attr:`Movers.crc_refusal`): a verified fabric then checksums with
    ``zlib.crc32`` around their ``copy_list``.
    """
    return _kernel_for(("mover",), _load_movers)


def _load_movers(sanitize: Tuple[str, ...], guard: bool) -> Movers:
    if sanitize not in _mover_libs:
        _load("", "", "", False, sanitize)
    return Movers(*_mover_libs[sanitize], guard)


def array_movers(arr: np.ndarray) -> Movers:
    """The C movers for packing out of / unpacking into *arr*.

    The box movers walk raw row-major float64 memory, so any other array
    is refused here, at bind, with :class:`ExchangeConfigError`.
    """
    if not (
        arr.dtype == np.float64
        and arr.flags.c_contiguous
        and 1 <= arr.ndim <= MOVER_MAX_NDIM
    ):
        raise ExchangeConfigError(
            "the box movers walk C-contiguous float64 arrays of 1 to"
            f" {MOVER_MAX_NDIM} axes, got {arr.dtype} with {arr.ndim} axes,"
            f" strides {arr.strides}"
        )
    return mover_kernel()


def batch_step_kernel(
    taps: Sequence[Tuple[Tuple[int, ...], float]],
    np_bd: Tuple[int, ...],
    radius: int,
    field_offset: int,
    brick_elems: int,
) -> Callable:
    """The stage-then-sweep C brick kernel for this specialization (see
    :func:`_kernel_for`)."""
    spec = (
        tuple(taps), tuple(np_bd), int(radius), int(field_offset),
        int(brick_elems),
    )
    return _kernel_for(
        ("brick",) + spec,
        lambda sanitize, guard: _build(
            batch_step_source(*spec, guard=guard), guard, sanitize
        ),
    )


def array_step_kernel(
    taps: Sequence[Tuple[Tuple[int, ...], float]],
    shape: Tuple[int, ...],
) -> Callable:
    """The C array-box kernel for extended arrays of *shape* (see
    :func:`_kernel_for`).  One build per ``(taps, shape, flags)``: boxes
    are call-time data."""
    spec = (tuple(taps), tuple(int(n) for n in shape))
    return _kernel_for(
        ("array",) + spec,
        lambda sanitize, guard: _build_array(
            array_step_source(*spec, guard=guard), guard, sanitize
        ),
    )
