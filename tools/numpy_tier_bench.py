#!/usr/bin/env python
"""What the C kernels, an exchange side, the verified guard, the bound
fabric and the checkpoint commit cost, one source tree or two.

    PYTHONPATH=src python tools/numpy_tier_bench.py kernel cube16
    PYTHONPATH=src python tools/numpy_tier_bench.py copy strong16
    PYTHONPATH=src python tools/numpy_tier_bench.py guard strong16
    PYTHONPATH=src python tools/numpy_tier_bench.py fabric strong16
    PYTHONPATH=src python tools/numpy_tier_bench.py ckpt strong16
    python tools/numpy_tier_bench.py --ab PARENT/src CHANGE/src [REPS]

One geometry per fresh process pinned to CPU 0.  (The file keeps the
name it had when it also timed a NumPy kernel tier; CI's smoke steps
call it by that name.)

The ``kernel`` section (EXPERIMENTS.md, "Kernels for the host") times
the C kernels on one rank's compute slots and extended array: the brick
and array step time (medians of 15 samples of 40 steps, each result
checked bit-for-bit against the generic kernels), ``cc`` + load time per
kernel, each kernel's GB/s (``bytes_per_point`` per cell) as a fraction
of a flat ``np.copyto`` of the rank's extended array -- how far the
kernels are from the copy ceiling (ROADMAP item 3) -- and its GFLOP/s,
the ceiling a tap-bound kernel meets first.

The ``copy`` section (EXPERIMENTS.md, "One data-movement tier") times,
on one rank exchanging with itself across its periodic boundary, what
each method's bound plan moves per exchange side -- pack, unpack, the
datatype engine's extract / insert, brick packing's section gather /
scatter (the ladder's last rung, which no halobench workload reaches),
and the fabric's post + receive + send-wait over the messages of
``yask`` / ``layout`` / ``memmap``: us per side and GB/s (read + write)
beside a flat ``np.copyto`` of the same bytes.

The ``guard`` section (EXPERIMENTS.md, "The guard judges a cut" and
"The verified cut at the plain cut's cost") times the same
self-exchange on a *verified* fabric, for the Layout (39 items on
``strong16``) and Pack (26) item lists: the post (sequence stamp +
seal) and the receive (copy + check + credit) per exchange side, in us
and in GB/s of bytes sealed / landed, and the two bound calls alone,
beside ``zlib.crc32`` over one flat buffer of the same bytes and the
flat copy.  Before the timed cuts, checked cuts fill every send view
with fresh random bytes, then compare every landed byte with the view
it came from and every CRC both calls return with ``zlib.crc32``; a
difference exits non-zero.

The ``fabric`` section (EXPERIMENTS.md, "One handoff per exchange") is
the bound fabric alone, with no kernel and no hooks: 8 rank threads --
on the one CPU this process is pinned to -- exchange the geometry's
Layout item list (39 items per rank-side on a 2 x 2 x 2 world) over two
alternating bound cuts, as the run plan fires the two slots' channels
(each exchange, then the other slot's send wait before its sweep would
write it).  Once with 8 B per item (312 B per side) and once with the
real bytes, and once more with the real bytes on a *verified* fabric
(each cut sealed on post and checked on receive): us per step and per
rank-side, voluntary context switches per step (``getrusage``: the
handoffs), and the same items self-exchanged by one rank, which has no
handoff.  Before the timed
steps, checked steps stamp every send buffer and compare every landed
byte; after them, every ghost buffer holds its sender's last stamp.

The ``ckpt`` section (EXPERIMENTS.md, "A checkpoint writes what a
restart reads") is the checkpoint commit alone: 8 rank threads -- on
the one CPU -- each save one rank snapshot of the geometry's 2 x 2 x 2
world at once, as a checkpoint step does, through the run's own
``RankCheckpointer`` and each method's snapshot layout at an exchange
step, into a directory on the checkout's filesystem (not ``/dev/shm``:
the fsyncs are the point).  Per method: wall per 8-rank round and the
ranks' CPU summed (medians), bytes, chunks and fsyncs per save.  Every
snapshot is read back CRC-checked and compared with the bytes saved; a
difference exits non-zero.

``--ab`` alternates two trees, REPS fresh processes each per geometry and
section (default 7), and prints the medians of those.
"""

import json
import os
import statistics
import subprocess
import sys
import time

GEOMETRIES = {  # halobench's per-rank subdomains: 8^3 bricks, ghost 8
    "strong16": (16, "SEVEN_POINT"),
    "bulk48": (48, "SEVEN_POINT"),
    "cube16": (16, "CUBE125"),
}


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return (time.perf_counter() - t0) * 1e3, result


def median_ms(fn, reps=15, calls=1):
    """Median over *reps* samples of the time per call, *calls* a sample."""

    def sample():
        for _ in range(calls):
            fn()

    return statistics.median(timed(sample)[0] / calls for _ in range(reps))


def _rank(name):
    """*name*'s stencil on one rank: ``(spec, extent, ghost, bricks,
    arrays)`` -- the brick plan's inputs ``(src, dst, ref, info, slots)``
    and an extended array ``(arr, out, out_ref)``, filled."""
    import numpy as np

    from repro.brick.decomp import BrickDecomp
    from repro.stencil import spec as specs

    n, stencil = GEOMETRIES[name]
    spec, extent, ghost = getattr(specs, stencil), (n,) * 3, 8
    decomp = BrickDecomp(extent, (8, 8, 8), ghost)
    src, asn = decomp.allocate()
    dst, ref = decomp.allocate()[0], decomp.allocate()[0]
    rng = np.random.default_rng(0)
    src.data[:] = rng.random(src.data.shape)
    info, slots = decomp.brick_info(asn), decomp.compute_slots(asn)
    arr = rng.random((n + 2 * ghost,) * 3)
    out, out_ref = np.zeros_like(arr), np.zeros_like(arr)
    return spec, extent, ghost, (src, dst, ref, info, slots), (arr, out, out_ref)


def check_bits(spec, extent, ghost, bricks, arrays, plan, aplan):
    """One step of each plan, bit-for-bit against the generic kernels."""
    import numpy as np

    from repro.stencil.brick_kernels import apply_brick_stencil
    from repro.stencil.kernels import apply_array_stencil

    (src, dst, ref, info, slots), (arr, out, out_ref) = bricks, arrays
    plan.execute(src, dst)
    aplan.execute(arr, out)
    apply_brick_stencil(spec, src, ref, info, slots)
    apply_array_stencil(arr, out_ref, spec, extent, ghost)
    assert (dst.data.view(np.uint64) == ref.data.view(np.uint64)).all()
    assert (out.view(np.uint64) == out_ref.view(np.uint64)).all()


def measure_kernel(name):
    """The C tier on one rank's compute slots: step time, ``cc`` + load
    per kernel (median of 3 builds of its source, the movers' unit built
    first so neither carries them), GB/s -- ``bytes_per_point`` per
    computed cell -- against a flat ``np.copyto`` of the rank's extended
    array (read + write), and GFLOP/s (``flops_per_point``)."""
    import numpy as np

    from repro.stencil import cbackend
    from repro.stencil.plan import compile_array_plan, compile_brick_plan

    spec, extent, ghost, bricks, arrays = _rank(name)
    src, dst, _, info, slots = bricks
    arr, out, _ = arrays
    cbackend.mover_kernel()
    plan = compile_brick_plan(spec, info, slots)
    aplan = compile_array_plan(spec, extent, ghost)
    check_bits(spec, extent, ghost, bricks, arrays, plan, aplan)
    result = {
        "brick_step_ms": median_ms(lambda: plan.execute(src, dst), calls=40),
        "array_step_ms": median_ms(lambda: aplan.execute(arr, out), calls=40),
    }
    for row, build, source in (
        ("brick", cbackend._build, plan._ckernel.__source__),
        ("array", cbackend._build_array, aplan._ckernel.__source__),
    ):
        result[f"{row}_cc_ms"] = statistics.median(
            timed(lambda: build(source))[0] for _ in range(3)
        )
    flat = np.empty_like(arr)
    copy_ms = median_ms(lambda: np.copyto(flat, arr), calls=40)
    result["flat_copy_gbs"] = 2 * arr.nbytes / copy_ms / 1e6
    cells = int(np.prod(extent))
    for row in ("brick", "array"):
        step_ms = result[f"{row}_step_ms"]
        result[f"{row}_gbs"] = cells * spec.bytes_per_point / step_ms / 1e6
        result[f"{row}_of_copy"] = result[f"{row}_gbs"] / result["flat_copy_gbs"]
        result[f"{row}_gflops"] = cells * spec.flops_per_point / step_ms / 1e6
    return result


def _self_exchange(name, verified=False):
    """``bound(method)`` for one rank whose 26 neighbours are all itself:
    every message of the real per-rank schedule, none of the thread
    handoff.  Returns ``(hooks, wire-only channel, modelled result, what
    to keep alive)`` of *method*'s plan bound to a fresh buffer."""
    import numpy as np

    from repro.core.geometry import RunGeometry
    from repro.core.problem import StencilProblem
    from repro.exchange.base import ExchangeChannel
    from repro.hardware.profiles import generic_host
    from repro.simmpi import SimComm, SimFabric
    from repro.stencil import spec as specs

    n, stencil = GEOMETRIES[name]
    problem = StencilProblem(
        (n,) * 3, (1, 1, 1), getattr(specs, stencil), brick_dim=(8, 8, 8), ghost=8
    )
    rng = np.random.default_rng(0)

    def bound(method):
        geometry = RunGeometry(problem, method, generic_host())
        fabric = SimFabric(1, timeout=5.0)
        if verified:
            fabric.enable_envelope()
        cart = SimComm(fabric, 0).Create_cart((1, 1, 1))
        if geometry.decomp is None:
            buffer = rng.random(geometry.extended_shape)
        elif geometry.base == "memmap":
            buffer = geometry.decomp.mmap_alloc(geometry.page_size)[0]
        else:
            buffer = geometry.decomp.allocate()[0]
            buffer.data[:] = rng.random(buffer.data.shape)
        ex = geometry.bind(geometry.base, cart, buffer)
        ((posts, recvs, hooks),) = ex._bound
        # The same wire buffers on a channel without the hooks: post +
        # receive (the wire copy) + send-wait, nothing else.
        wire = ExchangeChannel(cart, method, posts, recvs, ex.result)
        return hooks, wire, ex.result, (ex, buffer)

    return bound, rng


def side_us(fn):
    return median_ms(fn, calls=20) * 1e3


def measure_copy(name):
    import numpy as np

    bound, rng = _self_exchange(name)
    out, keep = {}, []
    for method, pre, post in (
        ("yask", "pack", "unpack"), ("mpi_types", "extract", "insert"),
        ("brickpack", "brick_pack", "brick_unpack"),
    ):
        hooks, _, result, alive = bound(method)
        keep.append(alive)
        out[f"{pre}_us"] = side_us(hooks.pre)
        out[f"{post}_us"] = side_us(hooks.post)
        out[f"{pre}_bytes"] = out[f"{post}_bytes"] = result.wire_bytes_sent
        if method == "yask":
            out["side_bytes"] = result.wire_bytes_sent
    for method in ("yask", "layout", "memmap"):
        _, wire, result, alive = bound(method)
        keep.append(alive)
        out[f"wire_{method}_us"] = side_us(wire.exchange)
        out[f"wire_{method}_msgs"] = result.messages_sent
        out[f"wire_{method}_bytes"] = result.wire_bytes_sent
    flat_src = rng.random(out["side_bytes"] // 8)
    flat_dst = np.empty_like(flat_src)
    out["flat_copy_us"] = side_us(lambda: np.copyto(flat_dst, flat_src))
    for key in [k for k in out if k.endswith("_us") and k != "flat_copy_us"]:
        row = key[: -len("_us")]
        nbytes = out.get(f"{row}_bytes", out["side_bytes"])
        out[f"{row}_gbs"] = 2 * nbytes / out[key] / 1e3
    out["flat_copy_gbs"] = 2 * out["side_bytes"] / out["flat_copy_us"] / 1e3
    return out


def _crc_ints(crcs):
    """A CRC call's output as a list of ints: packed ``uint32`` bytes in a
    tree whose calls return them, a list in one whose calls return that."""
    import numpy as np

    return np.frombuffer(crcs, np.uint32).tolist() if isinstance(crcs, bytes) else list(crcs)


def _check_guard(cut, fabric, rng, rounds=3):
    """Checked cuts: fresh random bytes in every send view, then every
    landed byte against its send view and both bound calls' CRCs against
    ``zlib.crc32``; exits non-zero on a difference."""
    import zlib

    import numpy as np

    sends = {item[0]: item[1] for _dst, group, _n in cut.groups for item in group}
    recvs = list(cut.rmap.items())
    for _ in range(rounds):
        for view in sends.values():
            view[:] = rng.integers(0, 256, view.size, dtype=np.uint8)
        fabric.post_send_batch(cut)
        fabric.complete_recv_batch(cut)
        fabric.wait_send_batch(cut)
        for key, recv in recvs:
            if recv.tobytes() != sends[key].tobytes():
                raise SystemExit(f"landed bytes of {key} differ from the sent ones")
        if _crc_ints(cut.sealed.crcs()) != [zlib.crc32(v) for v in sends.values()]:
            raise SystemExit("the seal call's CRCs differ from zlib.crc32")
        check = getattr(cut.checked, "copy_crcs", None) or cut.copy
        if _crc_ints(check()) != [zlib.crc32(recv) for recv in _check_order(cut)]:
            raise SystemExit("the copy-and-check call's CRCs differ from zlib.crc32")


def _check_order(cut):
    """The receive views in the order the copy-and-check call's table
    lists them: the deposits' items (a tree that freezes it on the cut's
    ``frozen`` deposits) or the cut's own order."""
    if getattr(cut.checked, "copy_crcs", None) is None:
        return [cut.rmap[item[0]] for _credit, items in cut.frozen for item in items]
    return list(cut.rmap.values())


def measure_guard(name):
    """Seal and verified receive of one cut, per side."""
    import zlib

    import numpy as np

    bound, rng = _self_exchange(name, verified=True)
    out = {}
    for method, row in (("layout", "layout"), ("yask", "pack")):
        _, wire, result, alive = bound(method)
        # A tree whose request wraps its cut holds it as ``bulk``.
        cut = getattr(wire._request, "bulk", wire._request)
        fabric = wire._fabric
        nbytes = result.wire_bytes_sent
        wire.exchange()  # the first fire freezes the tables
        _check_guard(cut, fabric, rng)
        seal, check = [], []
        for _ in range(15):
            stamps = [time.perf_counter()]
            for _ in range(20):
                fabric.post_send_batch(cut)
                stamps.append(time.perf_counter())
                fabric.complete_recv_batch(cut)
                fabric.wait_send_batch(cut)
                stamps.append(time.perf_counter())
            spans = np.diff(stamps) * 1e6
            seal.append(spans[0::2].mean())
            check.append(spans[1::2].mean())
        out[f"{row}_items"] = result.messages_sent
        out[f"{row}_bytes"] = nbytes
        out[f"seal_{row}_us"] = statistics.median(seal)
        out[f"check_{row}_us"] = statistics.median(check)
        out[f"seal_{row}_gbs"] = nbytes / statistics.median(seal) / 1e3
        out[f"check_{row}_gbs"] = nbytes / statistics.median(check) / 1e3
        out[f"cut_{row}_us"] = out[f"seal_{row}_us"] + out[f"check_{row}_us"]
        # The two bound calls alone: the seal, and the copy-and-check --
        # on the guard's view of the cut, or (a tree whose fabric freezes
        # it) the cut's own wire call.
        for call, bound_call in (
            ("seal", cut.sealed.crcs),
            ("check", getattr(cut.checked, "copy_crcs", None) or cut.copy),
        ):
            us = side_us(bound_call)
            out[f"{call}_call_{row}_us"] = us
            out[f"{call}_call_{row}_gbs"] = nbytes / us / 1e3
        del alive
    flat = rng.integers(0, 256, out["layout_bytes"], dtype=np.uint8)
    landed = np.empty_like(flat)
    out["zlib_flat_us"] = side_us(lambda: zlib.crc32(flat))
    out["zlib_flat_gbs"] = flat.size / out["zlib_flat_us"] / 1e3
    out["flat_copy_us"] = side_us(lambda: np.copyto(landed, flat))
    out["host_copy_gbs"] = 2 * flat.size / out["flat_copy_us"] / 1e3
    for row in ("layout", "pack"):
        if f"seal_call_{row}_gbs" in out:
            out[f"seal_call_{row}_vs_zlib"] = (
                out[f"seal_call_{row}_gbs"] / out["zlib_flat_gbs"]
            )
    return out


def _stamp(step, src, tag):
    """What *src* writes into its send buffer for *tag* at checked *step*."""
    return float((step * 64 + src) * (1 << 20) + tag)


def measure_fabric(name, checked=4, samples=5, steps=60):
    """The bound fabric alone: per step and per rank-side, in us; voluntary
    context switches per step; the self-exchanged rank beside it."""
    import resource

    import numpy as np

    from repro.core.geometry import RunGeometry
    from repro.core.problem import StencilProblem
    from repro.exchange.base import ExchangeChannel
    from repro.hardware.profiles import generic_host
    from repro.simmpi import SimComm, SimFabric, run_spmd
    from repro.stencil import spec as specs

    n, stencil = GEOMETRIES[name]
    problem = StencilProblem(
        (2 * n,) * 3, (2, 2, 2), getattr(specs, stencil), brick_dim=(8, 8, 8), ghost=8
    )
    plans = RunGeometry(problem, "layout", generic_host()).plans

    def clock():
        return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw

    def wait(channel):  # a tree whose exchange() waits for its own sends has none
        getattr(channel, "wait_sends", lambda: None)()

    def drive(comm, sends, recvs, per_item):
        """Two slots' channels over ``(peer, tag, nbytes)`` lists, fired as
        the run plan fires them; returns ``(seconds, switches)`` per
        sample of *steps* timed steps."""
        rank, slots = comm.rank, []
        for _ in range(2):
            posts = [(p, t, np.zeros(per_item(b) // 8)) for p, t, b in sends]
            gets = [(p, t, np.zeros(per_item(b) // 8)) for p, t, b in recvs]
            channel = ExchangeChannel(comm, "layout", posts, gets, None)
            slots.append((channel, posts, gets))

        def landed(step, gets):
            for peer, tag, buf in gets:
                if not (buf == _stamp(step, peer, tag)).all():
                    raise SystemExit(f"rank {rank}: bytes from {peer} tag {tag} differ")

        for step in range(checked):
            channel, posts, gets = slots[step % 2]
            wait(channel)
            for _peer, tag, buf in posts:
                buf.fill(_stamp(step, rank, tag))
            channel.exchange()
            landed(step, gets)
            wait(slots[1 - step % 2][0])
        out, step = [], checked
        for _ in range(samples):
            comm.Barrier()
            start = clock()
            for _ in range(steps):
                slots[step % 2][0].exchange()
                wait(slots[1 - step % 2][0])
                step += 1
            comm.Barrier()
            out.append([b - a for a, b in zip(start, clock())])
        for channel, _posts, gets in slots:
            wait(channel)
        for slot in (0, 1):  # the last checked step that stamped each slot
            landed(checked - 2 + slot, slots[slot][2])
        return out

    def per_step(samples_):
        seconds, switches = zip(*samples_)
        median = statistics.median
        return median(seconds) / steps * 1e6, median(switches) / steps

    def fabric(nranks, verified):
        made = SimFabric(nranks, timeout=30.0)
        if verified:
            made.enable_envelope()
        return made

    out = {"items_per_side": len(plans[0].sends)}
    for label, per_item, verified in (
        ("8B_items", lambda b: 8, False),
        ("real", lambda b: b, False),
        ("verified", lambda b: b, True),
    ):
        out[f"bytes_per_side.{label}"] = sum(per_item(m.nbytes) for m in plans[0].sends)

        def rank_fn(comm):
            plan = plans[comm.rank]
            return drive(
                comm,
                [(m.peer, m.tag, m.nbytes) for m in plan.sends],
                [(m.peer, m.tag, m.nbytes) for m in plan.recvs],
                per_item,
            )

        world = run_spmd(8, rank_fn, fabric=fabric(8, verified))
        step_us, switches = per_step(world[0])
        out[f"step_us.{label}"] = step_us
        out[f"side_us.{label}"] = step_us / 8
        out[f"switches_per_step.{label}"] = switches
        # Rank 0's receives, each from itself: the same items, no handoff.
        items = [(0, m.tag, m.nbytes) for m in plans[0].recvs]
        alone = drive(SimComm(fabric(1, verified), 0), items, items, per_item)
        out[f"self_side_us.{label}"] = per_step(alone)[0]
    return out


def measure_ckpt(name, rounds=10):
    """The checkpoint commit alone: 8 rank threads on one CPU save at
    once, one snapshot each per round."""
    import shutil
    import tempfile
    import threading

    import numpy as np

    import repro.core.driver as driver
    from repro.ckpt import CheckpointConfig, CheckpointStore, RankCheckpointer
    from repro.core.geometry import RunGeometry
    from repro.core.metrics import RankMetrics
    from repro.core.problem import StencilProblem
    from repro.stencil import spec as specs
    from repro.util.timing import TimeBreakdown

    n, stencil = GEOMETRIES[name]
    problem = StencilProblem(
        (2 * n,) * 3, (2, 2, 2), getattr(specs, stencil), brick_dim=(8, 8, 8), ghost=8
    )
    fsyncs, real_fsync = [0], os.fsync

    def counted_fsync(fd):
        fsyncs[0] += 1
        return real_fsync(fd)

    os.fsync = counted_fsync
    checkout = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    rng = np.random.default_rng(0)
    out = {}
    for method in ("layout", "memmap", "yask", "mpi_types"):
        geometry = RunGeometry(problem, method)
        make = driver._array_state if geometry.decomp is None else driver._brick_state
        root = tempfile.mkdtemp(prefix=".ckpt-bench-", dir=checkout)
        config = CheckpointConfig(CheckpointStore(root), period=8)
        ranks = []
        for rank in range(8):
            state = make(geometry, 1)
            buf = state.buffers[0]
            data = buf if geometry.decomp is None else buf.data
            data[:] = rng.random(data.shape)
            snap = state.snapshot_layout(rank)
            ledger = RankMetrics(rank, measured=TimeBreakdown())
            ranks.append((state, snap, ledger))
        start, end = threading.Barrier(9), threading.Barrier(9)
        cpu = np.zeros((rounds, 8))
        manifests = [None] * 8

        def rank_thread(rank):
            _, snap, ledger = ranks[rank]
            runs = snap.at(8, 0)
            for r in range(rounds):
                epoch = 8 * (r + 1)
                meta = driver._ckpt_meta(epoch, ledger, None, 1, 0, None)
                # A fresh checkpointer: every round is a buffer's first
                # save, which writes every run.
                try:
                    cp = RankCheckpointer(config, rank, "bench")
                except TypeError:  # a tree that tracks dirty sections
                    cp = RankCheckpointer(
                        config, rank, snap.sections, "bench", geometry.slot_key[1]
                    )
                start.wait()
                c0 = time.thread_time()
                manifests[rank] = cp.save(epoch, runs, meta)
                cpu[r, rank] = time.thread_time() - c0
                end.wait()

        threads = [threading.Thread(target=rank_thread, args=(r,)) for r in range(8)]
        for t in threads:
            t.start()
        wall, fsyncs[0] = [], 0
        for _ in range(rounds):
            start.wait()
            t0 = time.perf_counter()
            end.wait()
            wall.append(time.perf_counter() - t0)
        for t in threads:
            t.join()
        store = config.store
        for rank, (state, snap, _ledger) in enumerate(ranks):
            man = manifests[rank]
            got = store.read_state(rank, store.manifest(rank, man["epoch"]))
            for table, view in snap.at(8, 0):
                flat, pos = memoryview(view).cast("B"), 0
                for section, nbytes in table:
                    if bytes(got[section]) != bytes(flat[pos : pos + nbytes]):
                        raise SystemExit(f"{method} rank {rank}: {section} differs")
                    pos += nbytes
            state.close()
        if not all(row["ok"] for row in store.verify()):
            raise SystemExit(f"{method}: a snapshot fails its CRC32")
        shutil.rmtree(root)
        out[f"{method}_wall_ms"] = statistics.median(wall) * 1e3
        out[f"{method}_cpu_ms"] = statistics.median(cpu.sum(axis=1)) * 1e3
        out[f"{method}_bytes_per_save"] = int(manifests[0]["data_bytes"])
        out[f"{method}_chunks_per_save"] = len(manifests[0]["runs"])
        out[f"{method}_fsyncs_per_save"] = fsyncs[0] / (8 * rounds)
    os.fsync = real_fsync
    return out


def compare(parent_src, change_src, reps):
    trees = {"parent": parent_src, "change": change_src}
    for section in SECTIONS:
        for name in GEOMETRIES:
            runs = {side: [] for side in trees}
            for i in range(reps):
                for side in ("parent", "change") if i % 2 else ("change", "parent"):
                    proc = subprocess.run(
                        [sys.executable, __file__, section, name],
                        env={**os.environ, "PYTHONPATH": trees[side]},
                        capture_output=True, text=True, check=True,
                    )
                    runs[side].append(json.loads(proc.stdout))
            for key in runs["change"][0]:
                if key not in runs["parent"][0]:  # a row the parent lacks
                    c = statistics.median(r[key] for r in runs["change"])
                    print(f"{name:9s} {key:30s} {'-':>10s} -> {c:10.3f}")
                    continue
                p, c = (
                    statistics.median(r[key] for r in runs[side]) for side in trees
                )
                ratio = f"{c / p:.2f}x" if p else ""
                print(f"{name:9s} {key:30s} {p:10.3f} -> {c:10.3f}  {ratio}")


SECTIONS = {
    "kernel": measure_kernel,
    "copy": measure_copy,
    "guard": measure_guard,
    "fabric": measure_fabric,
    "ckpt": measure_ckpt,
}


if __name__ == "__main__":
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if sys.argv[1] == "--ab":
        compare(sys.argv[2], sys.argv[3], int((sys.argv[4:] or [7])[0]))
    elif sys.argv[1] in SECTIONS and len(sys.argv) == 3:
        print(json.dumps(SECTIONS[sys.argv[1]](sys.argv[2])))
    else:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(SECTIONS)}}} GEOMETRY"
                 " | --ab PARENT/src CHANGE/src [REPS]")
