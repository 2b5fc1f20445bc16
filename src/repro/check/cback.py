"""Pass 3: C kernel backend sanity (toolchain, flags, bit identity).

The compiled backend is the one subsystem the schedule/memory passes
cannot reason about symbolically -- it is generated C.  This pass
verifies what *can* be verified ahead of a run:

* the ``REPRO_CC_SANITIZE`` / ``REPRO_CC_BOUNDS`` environment
  contracts parse (a typo would otherwise surface mid-run);
* a toolchain is present (``cffi`` and a C compiler: a run without
  them is refused);
* a small probe kernel per layout -- the brick-batch kernel and the
  array-box kernel -- compiles (with whatever sanitize/guard flags the
  environment selects) and reproduces the generic kernels' arithmetic --
  the canonical order of :func:`~repro.stencil.spec.tap_groups`, on
  taps whose shared coefficients alternate -- bit-for-bit on
  deterministic data -- the same invariant the full
  test suite asserts, checked here in milliseconds on the target
  machine's actual compiler, on the code paths a run takes: brick rows
  as long as an 8^3 brick's, so the sweep is built with the vector
  width a run's is, and array rows two host vectors plus a scalar tail
  long, so the vector body runs and not only the remainder loop.  Each
  probe is its own finding, and a failed build carries the compiler's
  reason;
* the flags those units were built with -- the host's, or the
  portable ones and why the compiler refused the host's -- are a
  ``kernel-flags`` note (absent when no unit built: each probe's
  compile error already carries the compiler's reason);
* the exchange's movers -- the box gather, its scatter and
  ``copy_list``, which ride in those translation units -- load and
  move a patterned array exactly as NumPy slicing does, and the CRC
  pair (``crc_list``, ``copy_crc_list``) agrees with ``zlib.crc32`` or
  says why it cannot engage (``mover-probe``).
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.brick.info import BrickInfo, all_direction_vectors, direction_index
from repro.brick.storage import BrickStorage
from repro.check.report import CheckReport
from repro.stencil import cbackend
from repro.stencil.brick_kernels import apply_brick_stencil
from repro.stencil.kernels import apply_array_stencil
from repro.stencil.spec import StencilSpec

__all__ = ["verify_cbackend"]

PASS = "cbackend"

#: probe specialization: 7-point taps whose two shared coefficients
#: alternate in tap order, so a unit that sums in tap order (or groups
#: only runs of equal neighbours) misses the canonical grouped bits
_PROBE_TAPS = (
    ((0, 0, 0), 0.5),
    ((1, 0, 0), 1.0 / 12.0),
    ((0, 1, 0), 1.0 / 6.0),
    ((-1, 0, 0), 1.0 / 12.0),
    ((0, -1, 0), 1.0 / 6.0),
    ((0, 0, 1), 1.0 / 12.0),
    ((0, 0, -1), 1.0 / 6.0),
)
#: the brick probe's brick, x first: rows of 8, as in an 8^3 brick
_PROBE_BD = (8, 4, 4)
#: the array probe's region, x first: 19 = two 512-bit vectors + a tail
_PROBE_EXTENT = (19, 4, 4)


_PROBE_SPEC = StencilSpec("probe", 3, _PROBE_TAPS, 13.0, 16.0)


def verify_cbackend(report: CheckReport, probe: bool = True) -> None:
    """Validate the backend environment and (optionally) bit identity."""
    try:
        sanitize = cbackend.sanitize_flags()
    except ValueError as err:
        report.error(
            PASS, "sanitize-env", str(err),
            hint="REPRO_CC_SANITIZE is a comma list of 'address' and"
                 " 'undefined'",
        )
        return
    try:
        guard = cbackend.bounds_guard_enabled()
    except ValueError as err:
        report.error(
            PASS, "bounds-env", str(err),
            hint="REPRO_CC_BOUNDS must be 0 or 1",
        )
        return

    missing = cbackend.toolchain_missing()
    if missing:
        report.error(
            PASS, "toolchain-missing",
            f"{missing}: every run is refused, because the stencil"
            " kernels and the exchange movers are compiled C",
            hint="install cffi and a C compiler (cc or gcc)",
        )
        return
    if not probe:
        return

    _probe_brick(report, guard, sanitize)
    _probe_array(report, guard, sanitize)
    _probe_movers(report, guard, sanitize)
    _note_flags(report, sanitize)


_ASAN_HINT = (
    "with ASan the host process must preload libasan:"
    " LD_PRELOAD=$(cc -print-file-name=libasan.so)"
)
_FP_HINT = (
    "suspect compiler flags reordering FP arithmetic;"
    " -ffp-contract=off must be honoured"
)


def _probe_brick(report: CheckReport, guard: bool, sanitize) -> None:
    """Compile-and-compare: a periodic line of 3 bricks along x (each
    its own neighbour along y and z) with nothing below it in z, so
    every staged face sub-box is read from a real neighbour and one
    direction is absent, against the generic brick kernel."""
    volume = int(np.prod(_PROBE_BD))
    r = _PROBE_SPEC.radius
    source = cbackend.batch_step_source(
        _PROBE_TAPS, tuple(reversed(_PROBE_BD)), r, 0, volume, guard=guard
    )
    try:
        fn = cbackend._build(source, guard=guard, extra_flags=sanitize)
    except cbackend.KernelBuildError as err:
        report.error(
            PASS, "probe-compile",
            f"the brick probe kernel failed to compile or load: {err}",
            hint=_ASAN_HINT,
        )
        return
    nslots = 3
    adjacency = np.full((nslots, 27), -1, dtype=np.int64)
    for slot in range(nslots):
        for vec in all_direction_vectors(3):
            if vec[2] != -1:
                adjacency[slot, direction_index(vec)] = (slot + vec[0]) % nslots
    info = BrickInfo(3, _PROBE_BD, adjacency)
    src = BrickStorage.allocate(nslots, volume)
    src.data[:] = np.random.default_rng(12345).random(src.data.shape)
    got = BrickStorage.allocate(nslots, volume)
    ref = BrickStorage.allocate(nslots, volume)
    slots = np.arange(nslots, dtype=np.int64)
    tile = np.empty(int(np.prod([b + 2 * r for b in _PROBE_BD])))
    fn(src.data, got.data, adjacency, slots, tile)
    apply_brick_stencil(_PROBE_SPEC, src, ref, info, slots)
    if not np.array_equal(got.data, ref.data):
        diff = int((got.data != ref.data).sum())
        report.error(
            PASS, "probe-mismatch",
            f"the compiled brick probe kernel differs from the generic"
            f" kernel on {diff} of {got.data.size} cells",
            hint=_FP_HINT,
        )


def _probe_array(report: CheckReport, guard: bool, sanitize) -> None:
    """Compile-and-compare: two boxes of a 6 x 6 x 21 extended array,
    each sweeping rows of 19."""
    shape = tuple(b + 2 for b in reversed(_PROBE_EXTENT))
    source = cbackend.array_step_source(_PROBE_TAPS, shape, guard=guard)
    try:
        fn = cbackend._build_array(source, guard=guard, extra_flags=sanitize)
    except cbackend.KernelBuildError as err:
        report.error(
            PASS, "array-probe-compile",
            f"the array probe kernel failed to compile or load: {err}",
            hint=_ASAN_HINT,
        )
        return
    arr = np.random.default_rng(54321).random(shape)
    got = np.zeros(shape)
    # Two boxes covering the interior, split along the slowest axis.
    boxes = np.array(
        [[(1, 3), (1, 5), (1, 20)], [(3, 5), (1, 5), (1, 20)]], dtype=np.int64
    )
    fn(arr, got, boxes)
    ref = np.zeros(shape)
    apply_array_stencil(arr, ref, _PROBE_SPEC, _PROBE_EXTENT, 1)
    if not np.array_equal(got, ref):
        diff = int((got != ref).sum())
        report.error(
            PASS, "array-probe-mismatch",
            f"the compiled array probe kernel differs from the generic"
            f" kernel on {diff} of {int(np.prod(_PROBE_EXTENT))} cells",
            hint=_FP_HINT,
        )


def _note_flags(report: CheckReport, sanitize) -> None:
    """What the units were built with: the host flags, or the portable
    ones and the compiler's refusal of the host's.  Nothing when no unit
    built -- the probe findings above carry the compiler's reason."""
    flags, refusal = cbackend.kernel_flags()
    if not flags:
        return
    built = " ".join((*flags, "-ffp-contract=off", *sanitize))
    if refusal:
        report.note(
            PASS, "kernel-flags",
            f"units are built with the portable flags {built}: the"
            f" compiler refused {' '.join(cbackend._HOST_FLAGS)} ({refusal});"
            " the kernels are bit-identical, slower, and runs report"
            " kernel backend 'cffi (portable flags: ...)'",
        )
    else:
        report.note(
            PASS, "kernel-flags", f"units are built for this host: {built}"
        )


#: ``(start, length)`` runs the CRC probe checksums: under 64 bytes (the
#: byte table alone), then either side of every fold stage's entry -- 64
#: for the 128-bit lanes, 256 for the 512-bit ones -- and a run past
#: 4 KiB, none a multiple of 16 but the stage entries, all at odd starts
_CRC_RUNS = (
    (0, 0), (1, 5), (3, 67), (8, 1000), (1, 63), (3, 64),
    (5, 255), (7, 256), (9, 257), (11, 4096 + 80),
)


def _probe_crc(report: CheckReport, movers) -> list:
    """The CRC movers against ``zlib.crc32`` on patterned runs of bytes
    (:data:`_CRC_RUNS`).  Returns the names that differ; a pair that
    cannot engage is a note of its own."""
    if movers.crc_refusal:
        report.note(
            PASS, "mover-probe",
            f"the CRC movers (crc_list, copy_crc_list) cannot engage:"
            f" {movers.crc_refusal}; a verified fabric seals and checks"
            " with zlib.crc32 per item around the C copy",
        )
        return []
    raw = ((np.arange(4096 + 128) * 131 + 7) % 256).astype(np.uint8)
    views = [raw[lo : lo + n] for lo, n in _CRC_RUNS]
    want = np.array([zlib.crc32(v) for v in views], dtype=np.uint32).tobytes()
    landed = [np.zeros_like(v) for v in views]
    differ = []
    if movers.crc_list(views)() != want:
        differ.append("crc_list")
    if movers.copy_crc_list(views, landed)() != want or any(
        (a != b).any() for a, b in zip(landed, views)
    ):
        differ.append("copy_crc_list")
    return differ


def _probe_movers(report: CheckReport, guard: bool, sanitize) -> None:
    """Load-and-compare: pack two boxes of a patterned 6^3 array (a face
    with 1-element rows, a slab of whole rows), unpack them into a blank
    one and wire-copy the buffers, each against NumPy slicing; then the
    CRC pair against ``zlib.crc32``."""
    try:
        movers = cbackend._load_movers(sanitize, guard)
    except cbackend.KernelBuildError as err:
        report.error(
            PASS, "mover-probe",
            f"the exchange movers failed to compile or load: {err}",
            hint=_ASAN_HINT,
        )
        return
    shape = (6, 6, 6)
    arr = np.arange(float(np.prod(shape))).reshape(shape)
    boxes = np.array(
        [[(1, 5), (1, 5), (0, 1)], [(4, 6), (0, 6), (0, 6)]], dtype=np.int64
    )
    regions = [tuple(slice(lo, hi) for lo, hi in box) for box in boxes.tolist()]
    # What NumPy slicing packs, and where it unpacks it to: each mover
    # is fed these, so one that differs is named alone.
    packed = [arr[region].reshape(-1).copy() for region in regions]
    unpacked = np.zeros(shape)
    for region in regions:
        unpacked[region] = arr[region]
    bufs = [np.zeros_like(p) for p in packed]
    wire = [np.zeros_like(p) for p in packed]
    out = np.zeros(shape)
    refused = []
    try:
        movers.gather(arr, boxes, bufs)()
        if any((b != p).any() for b, p in zip(bufs, packed)):
            refused.append("gather")
        movers.copy_list(
            [p.view(np.uint8) for p in packed], [w.view(np.uint8) for w in wire]
        )()
        if any((w != p).any() for w, p in zip(wire, packed)):
            refused.append("copy_list")
        movers.scatter(out, boxes, packed)()
        if (out != unpacked).any():
            refused.append("scatter")
        refused += _probe_crc(report, movers)
    except cbackend.KernelBoundsError as err:
        refused.append(f"the bounds guard ({err})")
    if refused:
        report.error(
            PASS, "mover-probe",
            "the loaded exchange movers do not move (or checksum) a"
            " patterned array the way NumPy slicing (zlib.crc32) does:"
            f" {', '.join(refused)} differ(s)",
            hint="the C movers must move what NumPy slicing moves;"
                 " every run binds its exchange through them",
        )
