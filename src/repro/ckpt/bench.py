"""Checkpoint overhead benchmark: snapshot bytes and save/restore time.

Backs the committed ``BENCH_ckpt.json`` baseline (see
``benchmarks/compare_bench.py``).  All byte and chunk counts are
deterministic -- the store's change detection is content-addressed, the
workloads are seeded -- so CI compares them exactly; only the ``_s``
keys are wall-clock and get the timing tolerance band.
"""

from __future__ import annotations

import tempfile
import time
from typing import Any, Callable, Dict

import numpy as np

__all__ = ["measure_ckpt_stats"]


def _best_of(fn: Callable[[], Any], repeat: int, warmup: int) -> float:
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _measure_store(quick: bool) -> Dict[str, Any]:
    """Store-level costs on a realistic section layout.

    Every section is live, as in a mid-cycle snapshot, and the paper's
    layout puts all 64 slots in one run: ``chunks`` counts the runs a
    full snapshot writes.  The incremental scenario is the
    surface-only-change workload from the paper's exchange cadence:
    between two snapshots only surface bricks were recomputed, so an
    incremental snapshot must write strictly fewer bytes than a full
    one -- the surface slots, adjacent, as one run.
    """
    from repro.brick.decomp import BrickDecomp
    from repro.ckpt import CheckpointStore, group_runs, storage_chunks

    warmup, repeat = (1, 3) if quick else (2, 10)
    decomp = BrickDecomp((16, 16, 16), (8, 8, 8), 8)
    storage, asn = decomp.allocate()
    rng = np.random.default_rng(0)
    storage.data[:] = rng.random(storage.data.shape)
    specs = storage_chunks(asn)
    surface = [s for s in specs if s.name.startswith("surface:")]
    runs = group_runs(specs)

    def chunks():
        return [run.chunk(storage.slot_bytes, storage.brick_bytes) for run in runs]

    out: Dict[str, Any] = {
        "nslots": int(storage.nslots),
        "brick_bytes": int(storage.brick_bytes),
        "chunks": len(runs),
        "surface_chunks": len(surface),
    }
    with tempfile.TemporaryDirectory(prefix="repro-ckpt-bench-") as root:
        store = CheckpointStore(root)
        parent = store.save(0, 0, chunks(), problem_key="bench")
        out["full_bytes"] = int(parent["data_bytes"])

        for s in surface:
            storage.data[s.start_slot : s.start_slot + s.nslots] += 1.0
        man = store.save(
            0, 1, chunks(), mode="incr", problem_key="bench", parent=parent,
            dirty_names=[s.name for s in surface],
        )
        out["incr_surface_bytes"] = int(man["data_bytes"])
        out["incr_chunks_written"] = sum(
            1 for c in man["runs"] if c["epoch"] == 1
        )

        epoch = [2]

        def save_full():
            store.save(0, epoch[0], chunks(), problem_key="bench")
            epoch[0] += 1

        def save_incr():
            store.save(
                0, epoch[0], chunks(), mode="incr", problem_key="bench",
                parent=parent, dirty_names=[s.name for s in surface],
            )
            epoch[0] += 1

        out["save_full_s"] = _best_of(save_full, repeat, warmup)
        out["save_incr_s"] = _best_of(save_incr, repeat, warmup)
        out["restore_s"] = _best_of(
            lambda: store.read_state(0, man), repeat, warmup
        )
    return out


def _measure_run(quick: bool) -> Dict[str, Any]:
    """End-to-end checkpointed run: per-mode snapshot bytes.

    Ghost expansion with exchange period 2: the snapshot at the
    exchange step (``t = 2``) holds the owned slot run alone, in either
    mode -- its ghost sections are dead, rewritten by that step's
    exchange.  They were the only sections the dirty tracker could skip
    on this periodic workload, so full and incremental runs now write
    the same bytes (``tests/test_ckpt_restart.py`` shows incremental
    winning on open boundaries, whose ghost sections stay live).
    """
    from repro.core.driver import run_executed
    from repro.core.problem import StencilProblem
    from repro.stencil.spec import SEVEN_POINT

    del quick  # deterministic counts; nothing to trim
    problem = StencilProblem(
        global_extent=(32, 32, 32),
        rank_dims=(2, 2, 2),
        stencil=SEVEN_POINT,
        brick_dim=(4, 4, 4),
        ghost=8,
    )
    out: Dict[str, Any] = {
        "steps": 4,
        "exchange_period": 2,
        "method": "layout",
    }
    for mode in ("full", "incr"):
        with tempfile.TemporaryDirectory(prefix="repro-ckpt-bench-") as root:
            run = run_executed(
                problem, "layout", timesteps=4, seed=0, exchange_period=2,
                checkpoint_dir=root, checkpoint_period=1,
                checkpoint_mode=mode,
            )
        out[f"{mode}_bytes"] = int(run.checkpoint_bytes)
        out[f"{mode}_saves"] = int(run.checkpoint_saves)
    return out


def measure_ckpt_stats(quick: bool = False) -> Dict[str, Any]:
    """The ``BENCH_ckpt.json`` document: store + run checkpoint costs."""
    return {"store": _measure_store(quick), "run": _measure_run(quick)}
