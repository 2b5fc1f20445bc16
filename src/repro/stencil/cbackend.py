"""The compiled (C) tier: every stencil step and every exchange copy.

A plan (:mod:`repro.stencil.plan`) steps on one C kernel per
specialization, generated here:

* **bricks** -- per ``(stencil taps, brick shape, radius, field offset,
  brick elems)``: *stage, pair, sweep*.  Neighbours are addressed per
  brick, the way the paper's brick library does it: through the brick's
  ``3^D`` adjacency row, each direction some tap reaches has its
  sub-box copied into one small contiguous ``(bd + 2r)^D`` halo tile
  (zeros where the neighbour is absent); where the stencil's x pairs
  repeat across the other axes (the 125-point cube) a pair pass writes
  each pair distance's sum ``u[x-a] + u[x+a]`` once per tile row into
  aligned scratch after the tile (:func:`brick_scratch`); the unrolled
  tap loop then sweeps the tile and the sums unit-stride at
  compile-time offsets and writes the destination brick
  (:func:`batch_step_source`).  No per-cell index table exists;
* **extended arrays** -- per ``(stencil taps, extended shape)``: the
  unrolled tap loop as a unit-stride sweep over a list of boxes whose
  bounds arrive at call time, so a whole-region plan and every
  ghost-expansion margin share one build (:func:`array_step_source`).

Both layouts compute with the same tap loop over contiguous rows; what
the brick kernel pays on top is the staging copy (EXPERIMENTS.md,
"Stage, then sweep", has its measured share) and, for the 125-point
cube, the pair pass that saves its sweep 50 of 125 loads per row
("x pairs summed once"); the array kernel sums the same pairs inline.

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
remainders scalar; :data:`_HOST_FLAGS`), its kernels at the widest
vectors the build targets -- 512 bits where GCC builds for AVX-512,
whose tuning alone would hold them at 256 (:data:`_FULL_WIDTH_OPEN`;
the movers' ``repro_vector_bits`` answers the width, as
:attr:`Movers.vector_bits`).  A compiler that refuses those
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
  each sum left to right over the group's summands,
  :func:`~repro.stencil.spec.group_terms`: an x pair ``x[-a] + x[+a]``
  first -- inline, or once per tile row in the brick kernel's pair
  pass -- then added as one term); SIMD lanes are neighbouring cells,
  never terms of one cell's sum;
* ``-ffp-contract=off`` so no FMA contraction reorders roundings;
* coefficients embedded as C99 hex float literals (exact bit patterns);
* halo cells of an absent neighbour (adjacency ``-1``) are staged as
  ``0.0`` and contribute ``coeff * 0.0``, exactly like the generic
  gather's zero-filled halo.

There is no other tier: a specialization that cannot be built raises
:class:`KernelBuildError`, carrying the compiler's reason, and
:func:`repro.core.driver.run_executed` refuses a run up front where
:func:`toolchain_missing` names a missing piece.  Compiled kernels are
stateless (all mutable state, the brick kernel's tile and pair sums
included, stays in caller-owned arrays), so the per-process module
cache may hand the same kernel to every rank thread; calls release the GIL, so rank
threads genuinely overlap inside the kernel.

No build-system dependency: the generated translation unit is compiled
with the system ``cc`` straight into a shared object and loaded through
``cffi``'s ABI mode (``dlopen``), sidestepping setuptools entirely.

A unit is compiled once per host, not once per process: every unit that
builds is published to ``${XDG_CACHE_HOME:-~/.cache}/repro/kernels/<key>.so``
and later processes load it from there.  The key is a SHA-256 over all
that decides the binary -- the C text, every compile flag, and the
compiler's own account of its target (its ``-###`` dry run: version, and
what ``-march=native`` means on this CPU); an entry ends with the digest
of its bytes, and one that does not match it is rebuilt, never loaded.
A directory not owned by the user, or writable by anyone else, is not
used: the unit is built per process and :func:`cache_state` says why.
Refusals are never stored.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import math
import os
import shutil
import stat
import subprocess
import tempfile
import threading
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.brick.info import all_direction_vectors, direction_index
from repro.faults.errors import ExchangeConfigError
from repro.stencil.brick_kernels import _margin_slices
from repro.stencil.spec import group_terms, tap_groups

__all__ = [
    "BrickScratch",
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
    "brick_scratch",
    "brick_stage_boxes",
    "c_tier",
    "cache_line",
    "cache_state",
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
# build directories of units still being built: what a crash leaves
_build_dirs: list = []
# this process's units: how many it compiled and how many it loaded from
# the cache, the cache directory the last one used, or why it could not
_cache_state = {"built": 0, "loaded": 0, "dir": "", "off": ""}
_count_lock = threading.Lock()  # _build / _build_array run unlocked
#: what ends a published entry, before the SHA-256 of the bytes ahead
_ENTRY_TAG = b"\0repro-kernel-sha256\0"

#: sanitizers REPRO_CC_SANITIZE may request, mapped to compile flags
_SANITIZERS = {
    "address": "-fsanitize=address",
    "undefined": "-fsanitize=undefined",
}

#: The kernels are straight-line unrolled tap loops: what they need from
#: the optimizer is register allocation and SIMD on the unit-stride axis
#: -- the host's instruction set (``-march=native``; the width GCC's
#: tuning picks for it is lifted to the whole register by
#: :data:`_FULL_WIDTH_OPEN`), with the loops' remainders left scalar
#: (``vect-epilogues-nomask=0``: a second, narrower vector epilogue per
#: loop costs compile time and buys nothing on 8- to 48-element rows).
#: Measured per kernel at 256 bits (EXPERIMENTS "Kernels for the host";
#: AVX-512 host, one rank's compute slots; 512 bits: "Kernels at full
#: width"):
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
#: The C condition under which the kernels are built 512 bits wide: GCC
#: (clang has no ``#pragma GCC target``) building for AVX-512.  The same
#: compile-time ISA test as the CRC fold's: no run-time dispatch.
_FULL_WIDTH_IF = (
    "#if defined(__GNUC__) && !defined(__clang__) && defined(__AVX512F__)"
)
#: What every kernel's text opens and closes with.  GCC tunes AVX-512
#: hosts (``sapphirerapids``, ``skylake-avx512``, ...) for 256-bit
#: vectors (``-mprefer-vector-width=256``), which halves the lanes of
#: every sweep; the pragma asks for the whole register, so an 8^3 brick
#: row is one ``zmm`` -- one vector per row in the stage copy and in the
#: tap sweep.  It covers the kernel text only (not :data:`MOVER_SOURCE`,
#: whose copies keep the tuning's width) and leaves :data:`_HOST_FLAGS`
#: alone: a compiler that does not know the option (GCC for aarch64 or
#: POWER) never sees it, so is not pushed onto the portable flags.
_FULL_WIDTH_OPEN = (
    f"{_FULL_WIDTH_IF}\n#pragma GCC push_options\n"
    '#pragma GCC target("prefer-vector-width=512")\n#endif'
)
_FULL_WIDTH_CLOSE = f"{_FULL_WIDTH_IF}\n#pragma GCC pop_options\n#endif"
#: What a unit is rebuilt with when the compiler refuses the host flags
#: (GCC on POWER spells it ``-mcpu=native``; ``--param`` is GCC's own):
#: baseline SIMD for the target, the same bits.
_PORTABLE_FLAGS = ("-O1", "-ftree-vectorize")
#: what every unit is built with besides its optimisation and extra flags
_UNIT_FLAGS = ("-fPIC", "-shared", "-ffp-contract=off")
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


#: ``(pointer, flat offset from the cell)``: what one tap load reads
Load = Tuple[str, int]


def _tap_terms(
    taps: Sequence[Tuple[Tuple[int, ...], float]],
    load: Callable[[Tuple[int, ...]], Load],
    fused: bool = False,
) -> Tuple[List[Load], List[Tuple[float, List[List[int]]]]]:
    """``(unique loads, (coeff, summands) per tap group)``.

    *load* maps a tap's offset to what it reads.  Redundancy elimination
    across taps: taps whose loads coincide share one (loads are in
    first-use, i.e. tap, order).  Arithmetic shared by taps of one
    coefficient is done once: the groups are
    :func:`~repro.stencil.spec.tap_groups`, the canonical order, and each
    summand (:func:`~repro.stencil.spec.group_terms`) is the slots of its
    loads -- an x pair's two, or with *fused* its first member's alone,
    the one load *load* maps both members to (the pair pass's sum).
    """
    loads: List[Load] = []
    slot: Dict[Load, int] = {}
    for off, _ in taps:
        key = load(off)
        if key not in slot:
            slot[key] = len(loads)
            loads.append(key)
    groups = [
        (coeff, [
            [slot[load(off)] for off in (term[:1] if fused else term)]
            for term in group_terms(members)
        ])
        for coeff, members in tap_groups(taps)
    ]
    return loads, groups


def _accumulate(
    groups: Sequence[Tuple[float, List[List[int]]]], indent: str
) -> List[str]:
    """The canonical accumulation over loaded ``x<slot>`` values,
    unrolled: ``acc = c0 * (x.. + x..)`` for the first group, then
    ``t = ck * (x.. + x..); acc = acc + t`` per later one -- each sum
    left to right over the group's summands, as C evaluates ``+``, an x
    pair parenthesized unless it leads (a singleton group is a plain
    ``ck * xk``)."""

    def term(coeff: float, summands: List[List[int]]) -> str:
        parts = []
        for k, slots in enumerate(summands):
            part = " + ".join(f"x{j}" for j in slots)
            parts.append(part if k == 0 or len(slots) == 1 else f"({part})")
        loads = " + ".join(parts)
        single = len(summands) == 1 and len(summands[0]) == 1
        return f"{_hexf(coeff)} * " + (loads if single else f"({loads})")

    lines = [f"{indent}double acc = {term(*groups[0])};"]
    if len(groups) > 1:
        lines.append(f"{indent}double t;")
        for coeff, summands in groups[1:]:
            lines.append(f"{indent}t = {term(coeff, summands)};")
            lines.append(f"{indent}acc = acc + t;")
    return lines


def _flat_offset(off: Tuple[int, ...], strides: Sequence[int]) -> int:
    """Tap offset *off* (axis order, x first) as a flat offset in a
    row-major array of *strides* (numpy order; trailing axes of *off*
    missing from it pair with the leading strides)."""
    return sum(o * s for o, s in zip(reversed(off), strides))


#: doubles per 64-byte cache line: where the pair pass's copies start
_LINE = 8


class BrickScratch(NamedTuple):
    """The brick kernel's one scratch buffer (:func:`brick_scratch`)."""

    #: doubles the kernel's ``tile`` argument must hold
    elems: int
    #: per pair-pass copy, the x distance ``a`` whose pair sum
    #: ``u[x-a] + u[x+a]`` it holds; empty where the pair pass does not
    #: engage
    copies: Tuple[int, ...]
    #: where copy 0 starts: the halo tile rounded up to a cache line
    base: int
    #: doubles per copy (``tile rows x bd_x``, rounded up to a cache line)
    plane: int


@functools.lru_cache(maxsize=None)
def brick_scratch(
    taps: Tuple[Tuple[Tuple[int, ...], float], ...],
    np_bd: Tuple[int, ...],
    radius: int,
) -> BrickScratch:
    """The scratch of this specialization's brick kernel: the halo tile
    and, where the pair pass engages, its copies after it.

    The pass engages where some x pair distance ``a`` is read at two or
    more offsets across the other axes (the 125-point cube: 25 for each
    of ``a = 1, 2``); it then holds one copy per pair distance of the
    stencil.  Each copy spans every tile row (``tile_z x tile_y``) over
    the brick's ``bd_x`` cells and starts on a cache line, so a caller
    that aligns the buffer to 64 bytes gets aligned copies (an 8-wide
    brick's rows each one 512-bit line).  The plan allocates
    :attr:`BrickScratch.elems` and :func:`batch_step_source` emits the
    pass from the same layout.

    A copy of the centre column (so that ``dx = 0`` taps load aligned
    too) costs more than it saves: on ``cube16``'s 8^3 bricks the kernel
    ran 1.05x slower with one (EXPERIMENTS "x pairs summed once").
    """
    tile = math.prod(b + 2 * radius for b in np_bd)
    reach: Dict[int, set] = {}
    for _, members in tap_groups(taps):
        for term in group_terms(members):
            if len(term) == 2:
                reach.setdefault(abs(term[0][0]), set()).add(term[0][1:])
    if not any(len(rest) > 1 for rest in reach.values()):
        return BrickScratch(tile, (), tile, 0)
    base = -(-tile // _LINE) * _LINE
    rows = tile // (np_bd[-1] + 2 * radius)
    plane = -(-rows * np_bd[-1] // _LINE) * _LINE
    copies = tuple(sorted(reach))
    return BrickScratch(base + len(copies) * plane, copies, base, plane)


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


def _pair_pass(
    scratch: BrickScratch, tile_np: Tuple[int, ...], bd_x: int, radius: int
) -> List[str]:
    """The pair pass, as a C function of its own: per tile row, every x
    pair's sum over the brick's *bd_x* cells, into the copies
    (:func:`brick_scratch`).  The tile and the copies
    are its two ``restrict`` parameters -- disjoint parts of one buffer
    -- so the compiler needs no run-time overlap check per row."""
    tile_strides = _row_major_strides(tile_np)
    copy_strides = _row_major_strides(tile_np[:-1] + (bd_x,))
    lines = [
        "/* pair pass: per tile row, each x pair's sum over the brick's",
        "   cells, one copy after another */",
        "static void repro_pair(const double *restrict tile,"
        " double *restrict copies)",
        "{",
    ]
    nest, names, inner = _loop_nest(tile_np[:-1], "    ", "c")
    lines += nest
    lines.append(
        f"{inner}const double *h ="
        f" tile + ({_flat(names, tile_strides) or '0'}) + {radius};"
    )
    lines.append(
        f"{inner}double *q = copies + ({_flat(names, copy_strides) or '0'});"
    )
    v = f"c{len(tile_np) - 1}"
    lines.append(f"{inner}for (int64_t {v} = 0; {v} < {bd_x}; ++{v}) {{")
    for k, a in enumerate(scratch.copies):
        lines.append(
            f"{inner}    q[{v} + {k * scratch.plane}] ="
            f" h[{v} - {a}] + h[{v} + {a}];"
        )
    lines += _close_nest(len(tile_np), inner + "    ")
    lines.append("}")
    return lines


def batch_step_source(
    taps: Sequence[Tuple[Tuple[int, ...], float]],
    np_bd: Tuple[int, ...],
    radius: int,
    field_offset: int,
    brick_elems: int,
    guard: bool = False,
) -> str:
    """C source of the brick kernel: stage a halo tile, pair it, sweep it.

    Signature: ``repro_step(src, dst, adj, slots, nbricks, tile)`` where
    *src*/*dst* are the flat storage element arrays, *adj* the plan's
    ``(nbricks, 3^D)`` adjacency rows (``-1`` = no such brick), *slots*
    the destination slot per brick and *tile* a caller-owned scratch of
    :func:`brick_scratch` ``.elems`` elements (the halo tile, ``prod(bd +
    2r)``, and the pair pass's copies after it).  Per brick:

    * **stage** -- each reached direction's sub-box
      (:func:`brick_stage_boxes`, emitted as one ``static const`` table
      driving a copy loop nest) is copied from the neighbour brick into
      the tile, or zero-filled when the neighbour is absent;
    * **pair** -- only where :func:`brick_scratch` engages it (some x
      pair distance is read at two or more offsets across the other
      axes: the 125-point cube, not the 7-point star): per tile row,
      each x pair's sum ``u[x-a] + u[x+a]`` over the brick's ``bd_x``
      cells is written once into its copy (:func:`_pair_pass`);
    * **sweep** -- the canonical accumulation, unrolled, runs over the
      tile and the copies -- an x pair is one aligned load of its sum,
      so a row of the 125-point cube makes 75 loads instead of 125 --
      with compile-time strides, unit-stride innermost, and stores the
      destination brick.  Without the pair pass it is exactly the array
      kernel's sweep.

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
    scratch = brick_scratch(tuple(taps), np_bd, radius)
    # The copies: every tile row over the brick's bd_x cells.
    copy_strides = _row_major_strides(tile_np[:-1] + np_bd[-1:])
    plane = {a: k * scratch.plane for k, a in enumerate(scratch.copies)}
    paired = {
        off
        for _, members in tap_groups(taps)
        for term in group_terms(members)
        if len(term) == 2
        for off in term
    }

    def load(off: Tuple[int, ...]) -> Load:
        """A pair member reads its pair's sum once the pair pass
        engages; every other tap reads the tile."""
        if scratch.copies and off in paired:
            return "p", plane[abs(off[0])] + _flat_offset(off[1:], copy_strides)
        return "x", _flat_offset(off, tile_strides)

    tap_loads, tap_terms = _tap_terms(taps, load, fused=bool(scratch.copies))
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
        _FULL_WIDTH_OPEN,
        "",
        "/* per staged direction: adjacency column, tile offset, offset in",
        "   the neighbour's field, extent per axis but the unit-stride one */",
        f"static const int64_t STAGE[{nboxes}][{2 + ndim}] = {{",
    ]
    for rows in groups.values():
        for column, tile_off, brick_off, extent in rows:
            cells = (column, tile_off, brick_off, *extent[:-1])
            body.append("    {" + ", ".join(str(n) for n in cells) + "},")
    body += ["};", ""]
    if scratch.copies:
        body += _pair_pass(scratch, tile_np, np_bd[-1], radius) + [""]
    body += [
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
    if scratch.copies:
        body.append(f"        repro_pair(tile, tile + {scratch.base});")
    # Sweep: rows of the brick, unit-stride innermost, taps at constant
    # offsets from the cell's own position in the tile (or the copies).
    body.append(
        f"        double *out = dst + slots[b] * {brick_elems}"
        f" + {field_offset};"
    )
    nest, names, inner = _loop_nest(np_bd[:-1], "        ")
    body += nest
    pointers = {pointer for pointer, _ in tap_loads}
    if "x" in pointers:
        center = sum(radius * s for s in tile_strides)
        row_t = _flat(names, tile_strides) or "0"
        body.append(
            f"{inner}const double *restrict x = tile + {center} + ({row_t});"
        )
    if "p" in pointers:
        center = scratch.base + sum(radius * s for s in copy_strides[:-1])
        row_p = _flat(names, copy_strides) or "0"
        body.append(
            f"{inner}const double *restrict p = tile + {center} + ({row_p});"
        )
    row_o = _flat(names, brick_strides) or "0"
    body.append(f"{inner}double *restrict o = out + ({row_o});")
    v = f"i{ndim - 1}"
    body.append(
        f"{inner}for (int64_t {v} = 0; {v} < {np_bd[-1]}; ++{v}) {{"
    )
    cell = inner + "    "
    for slot, (pointer, rel) in enumerate(tap_loads):
        body.append(f"{cell}const double x{slot} = {pointer}[{v} + ({rel})];")
    body += _accumulate(tap_terms, cell)
    body.append(f"{cell}o[{v}] = acc;")
    body += _close_nest(ndim, cell)
    body.append("    }")
    if guard:
        body.append("    return violations;")
    body += ["}", _FULL_WIDTH_CLOSE]
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
    tap_loads, tap_terms = _tap_terms(
        taps, lambda off: ("x", _flat_offset(off, strides))
    )
    ret = "int64_t" if guard else "void"
    pad = " " * 22
    body = [
        "#include <stdint.h>",
        _FULL_WIDTH_OPEN,
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
    for slot, (_, rel) in enumerate(tap_loads):
        body.append(f"{inner}const double x{slot} = x[{v} + ({rel})];")
    body += _accumulate(tap_terms, inner)
    body.append(f"{inner}o[{v}] = acc;")
    for a in range(ndim):
        body.append(f"{indent}}}")
        indent = indent[:-4]
    body.append("    }")
    if guard:
        body.append("    return violations;")
    body += ["}", _FULL_WIDTH_CLOSE]
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
#: a double array of extents ``shape`` and element strides ``stride``
#: (the innermost 1: an exchange's arrays are C-contiguous, a brick run's
#: blocks of its global field are not); box *b* travels through
#: the flat buffer ``bufs[b]``, a ``memcpy`` per innermost row (an inline
#: loop for rows of up to 16 elements: the x-faces' ghost-wide rows, where
#: a libc call per 64 bytes cost a 48^3 unpack 13%).  Their slot form
#: (``repro_gather_slots`` / ``repro_scatter_slots``) sends box *b*
#: through the run at ``flat + offsets[b]`` of one buffer instead: a
#: brick's field in brick storage, which is how a run's field enters and
#: leaves its bricks (:mod:`repro.brick.convert`).  The
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
#: answers 0.  ``repro_vector_bits`` answers, the same way, the width the
#: unit's kernels are built at (:data:`_FULL_WIDTH_OPEN`).
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

/* Boxes, or capacities, the table's entries break.  A box (lo, hi per
   axis) must lie in shape; the array must span the last element its
   strides reach (the innermost stride is 1) and the run box b travels
   through must hold the box: caps[b] elements, or -- with offsets --
   the caps[0] elements of one buffer from offsets[b] on.  An array or a
   stride the movers cannot walk counts as every box and one more. */
REPRO_SCALAR
static int64_t repro_box_violations(int64_t arr_elems, const int64_t *shape,
                                    const int64_t *stride, int64_t ndim,
                                    const int64_t *boxes, int64_t nboxes,
                                    const int64_t *caps,
                                    const int64_t *offsets)
{
    int64_t reach = 0, empty = 0, bad = 0, a, b;
    if (ndim < 1 || ndim > REPRO_MOVER_MAX_NDIM || stride[ndim - 1] != 1)
        return nboxes + 1;
    for (a = 0; a < ndim; ++a) {
        if (shape[a] < 0 || stride[a] < 0)
            return nboxes + 1;
        empty |= shape[a] == 0;
        reach += (shape[a] - 1) * stride[a];
    }
    if (!empty && arr_elems <= reach)
        return nboxes + 1;
    for (b = 0; b < nboxes; ++b) {
        const int64_t *box = boxes + b * 2 * ndim;
        const int64_t cap = !offsets ? caps[b]
            : offsets[b] < 0 ? -1 : caps[0] - offsets[b];
        int64_t volume = 1, ok = 1;
        for (a = 0; a < ndim; ++a) {
            const int64_t lo = box[2 * a], hi = box[2 * a + 1];
            if (lo < 0 || hi < lo || hi > shape[a])
                ok = 0;
            volume *= hi - lo;
        }
        if (!ok || cap < volume)
            ++bad;
    }
    return bad;
}

/* Box b of arr (element strides stride[], the innermost 1) to or from
   its flat run: bufs[b], or flat + offsets[b] where bufs is NULL. */
static void repro_box_move(double *arr, const int64_t *stride, int64_t ndim,
                           const int64_t *boxes, int64_t nboxes,
                           char *const *bufs, double *flat,
                           const int64_t *offsets, int scatter)
{
    int64_t at[REPRO_MOVER_MAX_NDIM], a, b, r;
    const int64_t last = ndim - 1;
    for (b = 0; b < nboxes; ++b) {
        const int64_t *box = boxes + b * 2 * ndim;
        const int64_t row = box[2 * last + 1] - box[2 * last];
        double *buf = bufs ? (double *)bufs[b] : flat + offsets[b];
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
}

/* Every box, after the guard's check where caps are given (NULL:
   unguarded): a violation moves nothing and returns the count. */
static int64_t repro_boxes(double *arr, int64_t arr_elems,
                           const int64_t *shape, const int64_t *stride,
                           int64_t ndim, const int64_t *boxes, int64_t nboxes,
                           char *const *bufs, double *flat,
                           const int64_t *offsets, const int64_t *caps,
                           int scatter)
{
    if (caps) {
        const int64_t bad = repro_box_violations(
            arr_elems, shape, stride, ndim, boxes, nboxes, caps, offsets);
        if (bad)
            return bad;
    }
    repro_box_move(arr, stride, ndim, boxes, nboxes, bufs, flat, offsets,
                   scatter);
    return 0;
}

int64_t repro_gather(const double *arr, int64_t arr_elems,
                     const int64_t *shape, const int64_t *stride,
                     int64_t ndim, const int64_t *boxes, int64_t nboxes,
                     char *const *bufs, const int64_t *buf_elems)
{
    return repro_boxes((double *)arr, arr_elems, shape, stride, ndim, boxes,
                       nboxes, bufs, NULL, NULL, buf_elems, 0);
}

int64_t repro_scatter(double *arr, int64_t arr_elems,
                      const int64_t *shape, const int64_t *stride,
                      int64_t ndim, const int64_t *boxes, int64_t nboxes,
                      char *const *bufs, const int64_t *buf_elems)
{
    return repro_boxes(arr, arr_elems, shape, stride, ndim, boxes, nboxes,
                       bufs, NULL, NULL, buf_elems, 1);
}

/* The slot form: box b through flat + offsets[b] (brick storage: a
   brick's field at slot * brick_elems + field offset). */
int64_t repro_gather_slots(const double *arr, int64_t arr_elems,
                           const int64_t *shape, const int64_t *stride,
                           int64_t ndim, const int64_t *boxes,
                           int64_t nboxes, double *flat,
                           const int64_t *offsets, const int64_t *flat_elems)
{
    return repro_boxes((double *)arr, arr_elems, shape, stride, ndim, boxes,
                       nboxes, NULL, flat, offsets, flat_elems, 0);
}

int64_t repro_scatter_slots(double *arr, int64_t arr_elems,
                            const int64_t *shape, const int64_t *stride,
                            int64_t ndim, const int64_t *boxes,
                            int64_t nboxes, double *flat,
                            const int64_t *offsets,
                            const int64_t *flat_elems)
{
    return repro_boxes(arr, arr_elems, shape, stride, ndim, boxes, nboxes,
                       NULL, flat, offsets, flat_elems, 1);
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

/* The width the kernels' vectors are built at, in bits, read off the
   ISA macros their pragma reads: 512 (GCC for AVX-512: the pragma), 256
   (AVX), 128 (SSE2, NEON, AltiVec), or 0 where none of these is
   defined. */
int64_t repro_vector_bits(void)
{
%s
    return 512;
#elif defined(__AVX__)
    return 256;
#elif defined(__SSE2__) || defined(__ARM_NEON) || defined(__ALTIVEC__)
    return 128;
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
""" % (_crc_table_rows(), _FULL_WIDTH_IF)
_MOVER_CDEF = """
int64_t repro_gather(const double *arr, int64_t arr_elems,
                     const int64_t *shape, const int64_t *stride,
                     int64_t ndim, const int64_t *boxes, int64_t nboxes,
                     char *const *bufs, const int64_t *buf_elems);
int64_t repro_scatter(double *arr, int64_t arr_elems,
                      const int64_t *shape, const int64_t *stride,
                      int64_t ndim, const int64_t *boxes, int64_t nboxes,
                      char *const *bufs, const int64_t *buf_elems);
int64_t repro_gather_slots(const double *arr, int64_t arr_elems,
                           const int64_t *shape, const int64_t *stride,
                           int64_t ndim, const int64_t *boxes,
                           int64_t nboxes, double *flat,
                           const int64_t *offsets, const int64_t *flat_elems);
int64_t repro_scatter_slots(double *arr, int64_t arr_elems,
                            const int64_t *shape, const int64_t *stride,
                            int64_t ndim, const int64_t *boxes,
                            int64_t nboxes, double *flat,
                            const int64_t *offsets,
                            const int64_t *flat_elems);
int64_t repro_copy_list(char *const *src, char *const *dst,
                        const int64_t *nbytes, int64_t n,
                        const int64_t *src_bytes, const int64_t *dst_bytes);
int64_t repro_crc_engaged(void);
int64_t repro_vector_bits(void);
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


def cache_state() -> Dict[str, object]:
    """This process's kernel cache: the units it ``built`` (compiled) and
    ``loaded`` (taken from the cache) so far, the ``dir`` they go to, and
    ``off`` -- why the last unit could not use the cache (``""``: it
    could)."""
    return dict(_cache_state)


def cache_line() -> str:
    """:func:`cache_state` as a run reports it: ``"0 built, 2 loaded
    (~/.cache/repro/kernels)"`` or ``"off (<why>)"``."""
    state = _cache_state
    if state["off"]:
        return f"off ({state['off']})"
    home = os.path.expanduser("~")
    where = state["dir"]
    if where.startswith(home + os.sep):
        where = "~" + where[len(home):]
    return f"{state['built']} built, {state['loaded']} loaded ({where})"


def _cache_dir() -> Tuple[str, str]:
    """``(directory, "")`` of the kernel cache -- created ``0700`` if it
    is missing -- or ``("", why it is not used)``: it cannot be made, or
    it is not a directory of this user's that only this user can write.
    A relative ``XDG_CACHE_HOME`` is ignored, as the XDG spec asks."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "repro", "kernels")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.lstat(path)
    except OSError as err:
        return "", f"cannot create {path}: {err.strerror or err}"
    if not stat.S_ISDIR(st.st_mode):
        return "", f"{path} is not a directory"
    if st.st_uid != os.getuid():
        return "", f"{path} is not owned by this user"
    if st.st_mode & 0o022:
        return "", f"{path} is writable by group or others"
    return path, ""


@functools.lru_cache(maxsize=None)
def _target(cc: str, flags: Tuple[str, ...]) -> str:
    """The compiler's own account of what it builds with *flags*: the
    stderr of its ``-###`` dry run, which names its version and what
    ``-march=native`` expands to on this CPU (one ~2 ms run per flag set
    and process)."""
    try:
        done = subprocess.run(
            [cc, *flags, "-###", "-E", "-x", "c", os.devnull],
            capture_output=True, timeout=120,
        )
    except (OSError, subprocess.SubprocessError) as err:
        raise KernelBuildError(f"{cc} did not run: {err}") from None
    return done.stderr.decode(errors="replace")


def _entry_key(cc: str, text: str, flags: Tuple[str, ...]) -> str:
    """The cache key of *text* built with *flags*."""
    account = _target(cc, flags)
    return hashlib.sha256(repr((text, flags, account)).encode()).hexdigest()


def _whole(entry: str) -> bool:
    """Whether *entry* is as it was published: its bytes end with
    :data:`_ENTRY_TAG` and the SHA-256 of the bytes before them."""
    try:
        with open(entry, "rb") as fh:
            blob = fh.read()
    except OSError:
        return False
    cut = len(blob) - len(_ENTRY_TAG) - 32
    return (
        cut > 0
        and blob[cut:-32] == _ENTRY_TAG
        and hashlib.sha256(blob[:cut]).digest() == blob[-32:]
    )


def _publish(so_path: str, entry: str) -> None:
    """Seal *so_path* with its digest and move it to *entry* in one
    ``os.replace``: concurrent builders of one key leave one whole file,
    and a process that has the old one loaded keeps its own inode."""
    with open(so_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).digest()
    with open(so_path, "ab") as fh:
        fh.write(_ENTRY_TAG + digest)
    os.replace(so_path, entry)


def _count(outcome: str) -> None:
    with _count_lock:
        _cache_state[outcome] += 1


def _load(
    source: str, name: str, args: str, guard: bool, extra_flags: Sequence[str]
):
    """Compile *source* -- or load it from the kernel cache -- and return
    ``(ffi, lib.<name>, lib)``.  The first unit loaded with *extra_flags*
    also carries :data:`MOVER_SOURCE` and is where :func:`mover_kernel`
    finds the movers (*name* ``""``: the movers alone, no kernel
    function).

    Built with the host flags; if the process's first build is refused
    and the portable flags build the same unit, the refusal is kept and
    every later unit goes straight to the portable flags -- one extra
    compiler invocation per process, none where the host flags are
    taken.  A cache hit counts as the build it stands for.  Raises
    :class:`KernelBuildError` naming what refused: no ``cffi``, no
    compiler, or the compiler's / loader's own first words.
    """
    global _flags_refusal
    missing = toolchain_missing()
    if missing:
        raise KernelBuildError(missing)
    cc = _compiler()
    flags = tuple(extra_flags)
    carries_movers = flags not in _mover_libs
    text = source + MOVER_SOURCE if carries_movers else source
    cache, _cache_state["off"] = _cache_dir()
    _cache_state["dir"] = cache
    workdir = ""

    def obtain(opt: Tuple[str, ...]):
        """``(path of the unit built with *opt*, None)``, or ``("", the
        refusal)``: a cache hit, else a build published to the cache."""
        nonlocal cache, workdir
        unit_flags = (*opt, *_UNIT_FLAGS, *flags)
        entry = cache and os.path.join(
            cache, _entry_key(cc, text, unit_flags) + ".so"
        )
        if entry and _whole(entry):
            _count("loaded")
            return entry, None
        if not workdir:
            try:
                workdir = tempfile.mkdtemp(prefix="repro-ckernel-", dir=cache or None)
            except OSError as err:
                _cache_state["off"] = f"cannot write {cache}: {err.strerror or err}"
                cache = entry = ""
                workdir = tempfile.mkdtemp(prefix="repro-ckernel-")
            _build_dirs.append(workdir)
            with open(os.path.join(workdir, "kernel.c"), "w") as fh:
                fh.write(text)
        so_path = os.path.join(workdir, "kernel.so")
        refused = _compile([
            cc, *unit_flags, "-o", so_path, os.path.join(workdir, "kernel.c"),
        ])
        if refused is not None:
            return "", refused
        _count("built")
        if entry:
            try:
                _publish(so_path, entry)
                return entry, None
            except OSError as err:
                _cache_state["off"] = f"cannot write {cache}: {err.strerror or err}"
        return so_path, None

    try:
        path, refused = obtain(_PORTABLE_FLAGS if _flags_refusal else _HOST_FLAGS)
        if refused is not None and _flags_refusal is None:
            # No unit has answered yet: were the host flags what it refused?
            path, retry = obtain(_PORTABLE_FLAGS)
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
            lib = ffi.dlopen(path)
        except OSError as err:
            raise KernelBuildError(f"dlopen of the built kernel: {err}") from None
    finally:
        if workdir:  # the loaded library outlives its file
            shutil.rmtree(workdir, ignore_errors=True)
            _build_dirs.remove(workdir)
    if carries_movers:
        _mover_libs[flags] = (ffi, lib)
    return ffi, getattr(lib, name) if name else None, lib


def _finish(call: Callable, lib, guard: bool, source: str, what: str,
            bind: Callable):
    """The kernel callers hold: *call* itself, or under *guard* *call*
    handed the array extents and its violation count made a typed error.

    Its ``bind(*arrays)`` is the call over those arrays, frozen once:
    unguarded, *bind*'s ``functools.partial`` of the loaded C function
    over their raw addresses, so a step is one C call with no cast or
    check in between (the plan checked the arrays when it bound them);
    under *guard*, the guarded step itself over the arrays, so every
    call is still checked.  On small subdomains 8 ranks x one call per
    step is a visible share of the step.
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

    def bound(*arrays: np.ndarray) -> Callable[[], None]:
        frozen = (
            functools.partial(step, *arrays) if guard else bind(*arrays)
        )
        frozen.__keep__ = (lib, arrays)  # raw addresses: keep both alive
        return frozen

    step.__source__ = source
    step.__lib__ = lib  # keep the dlopen handle alive with the kernel
    step.bind = bound
    return step


def _address(ffi, ctype: str) -> Callable[[np.ndarray], object]:
    """*ctype* pointer to a contiguous array's first element: its raw
    address, read through a buffer export that is released at once (the
    cast holds no reference to it), so the caller keeps the array."""
    cast, from_buffer = ffi.cast, ffi.from_buffer
    return lambda arr: cast(ctype, from_buffer(arr))


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

    doubles, index = _address(ffi, "double *"), _address(ffi, "int64_t *")

    def bind(src_data, dst_data, adj, slots, tile):
        return functools.partial(
            fn, doubles(src_data), doubles(dst_data), index(adj),
            index(slots), len(slots), doubles(tile),
        )

    return _finish(
        call, lib, guard, source, "adjacency entry / destination slot value(s)",
        bind,
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

    doubles, index = _address(ffi, "double *"), _address(ffi, "int64_t *")

    def bind(arr, out, boxes):
        return functools.partial(
            fn, doubles(arr), doubles(out), index(boxes), len(boxes)
        )

    return _finish(call, lib, guard, source, "box(es)", bind)


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
        #: The width, in bits, the kernels built with the same flags
        #: vectorize at: 512, 256, 128, or 0 where no SIMD macro the
        #: unit knows is defined.
        self.vector_bits = int(lib.repro_vector_bits())
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

    def _array(self, arr: np.ndarray, ctype: str) -> tuple:
        """*arr*'s pointer, the elements its strides span, its shape and
        its element strides: the array half of a box call."""
        strides = [s // arr.itemsize for s in arr.strides]
        span = 1 + sum((n - 1) * s for n, s in zip(arr.shape, strides))
        return (
            self._ffi.cast(ctype, arr.ctypes.data), span,
            self._sizes(arr.shape), self._sizes(strides), arr.ndim,
        )

    def _boxes(self, fn, arr: np.ndarray, boxes, bufs, ctype: str):
        ffi = self._ffi
        args = (
            *self._array(arr, ctype),
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

    def _slots(self, fn, arr: np.ndarray, boxes, flat: np.ndarray, offsets,
               ctype: str):
        ffi = self._ffi
        args = (
            *self._array(arr, ctype),
            ffi.cast("const int64_t *", ffi.from_buffer(boxes)),
            len(offsets),
            ffi.cast("double *", ffi.from_buffer(flat)),
            ffi.cast("const int64_t *", ffi.from_buffer(offsets)),
            self._sizes([flat.size]) if self.guard else ffi.NULL,
        )
        return self._frozen(
            fn, args, "box(es) / slot(s)", (arr, flat, boxes, offsets)
        )

    def gather_slots(
        self, arr: np.ndarray, boxes, flat: np.ndarray, offsets
    ) -> Callable[[], None]:
        """The call copying box *b* of *arr* into the run of ``flat``
        from ``offsets[b]`` on, every *b*.  *arr* may be strided (its
        innermost stride one element); *boxes* and *offsets* are
        C-contiguous int64, ``(n, arr.ndim, 2)`` and ``(n,)``."""
        return self._slots(
            self._lib.repro_gather_slots, arr, boxes, flat, offsets,
            "const double *",
        )

    def scatter_slots(
        self, arr: np.ndarray, boxes, flat: np.ndarray, offsets
    ) -> Callable[[], None]:
        """The call copying the run of ``flat`` from ``offsets[b]`` on
        into box *b* of *arr*, every *b*."""
        return self._slots(
            self._lib.repro_scatter_slots, arr, boxes, flat, offsets,
            "double *",
        )

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
    """Remove the build directories a build left when it was cut short;
    every finished build removes its own."""
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
    """The stage-pair-sweep C brick kernel for this specialization (see
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
