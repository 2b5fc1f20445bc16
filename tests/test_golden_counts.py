"""Golden counts: what five seeded scenarios count, exactly.

``golden_counts.json`` was recorded at commit 9e71d4b by running the
scenarios below: a traced Layout run's spans and counters; the chaos
soak's outcomes, events, digests, demotions and final methods (7 trials
then; trials 7-11 -- a crash restart, a node loss, and Shift under
corrupt / drop / mixed wire faults -- were appended when Shift's
exchange became bound cuts);
checkpoint store and run bytes and chunks; a 64^3 Layout run's messages
and wire bytes per rank (the ``overlap`` scenario, named after the
phased run it was once compared with); the 8 -> 6 rank reshape plan,
re-brick bytes and elastic run.  Time is
not pinned here: ``benchmarks/halobench`` measures it.  A change that
means to alter one of these counts re-records the file
(``python tests/test_golden_counts.py``) and says why.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.driver import run_executed
from repro.core.problem import StencilProblem
from repro.hardware.profiles import generic_host, theta_knl
from repro.stencil.spec import SEVEN_POINT

GOLDEN_PATH = Path(__file__).parent / "golden_counts.json"


def _problem(extent, brick=8):
    return StencilProblem(extent, (2, 2, 2), SEVEN_POINT, (brick,) * 3, ghost=8)


def trace_counts():
    with obs.observed():
        run = run_executed(_problem((32, 32, 32)), "layout", theta_knl(), timesteps=4)
    counts = obs.trace_stats(obs.TRACER, run)
    obs.TRACER.clear()
    return counts


def chaos_outcomes():
    from repro.faults.chaos import ChaosConfig, run_soak

    report = run_soak(
        ChaosConfig(trials=12, seed=0, steps=2, timeout_s=20.0, check_determinism=False)
    )
    fields = "preset method outcome events digest demotions final_method".split()
    trials = [{k: getattr(t, k) for k in fields} for t in report.trials]
    return {"outcomes": report.counts(), "passed": report.passed, "trials": trials}


def ckpt_counts():
    """A store's snapshot of a 16^3 decomposition (every section live)
    and a Layout run checkpointing every step at exchange period 2."""
    from repro.brick.decomp import BrickDecomp
    from repro.ckpt import CheckpointStore, group_runs, storage_chunks

    storage, asn = BrickDecomp((16, 16, 16), (8, 8, 8), 8).allocate()
    storage.data[:] = np.random.default_rng(0).random(storage.data.shape)
    specs = storage_chunks(asn)
    runs = group_runs(specs)
    with tempfile.TemporaryDirectory() as root:
        full = CheckpointStore(root).save(
            0, 0, [run.chunk(storage.slot_bytes, storage.brick_bytes) for run in runs],
            problem_key="golden",
        )
    out = {"nslots": storage.nslots, "brick_bytes": storage.brick_bytes,
           "chunks": len(runs),
           "surface_chunks": sum(s.name.startswith("surface:") for s in specs),
           "full_bytes": full["data_bytes"]}
    with tempfile.TemporaryDirectory() as root:
        run = run_executed(
            _problem((32, 32, 32), brick=4), "layout", timesteps=4, seed=0,
            exchange_period=2, checkpoint_dir=root, checkpoint_period=1,
        )
    out["run_full_bytes"] = run.checkpoint_bytes
    out["run_full_saves"] = run.checkpoint_saves
    return out


def overlap_counts():
    """A Layout run with a real interior (64^3 over 2x2x2 ranks: 8 of
    each rank's 64 bricks)."""
    run = run_executed(_problem((64, 64, 64)), "layout", generic_host(), timesteps=8)
    return {
        "messages_per_rank": run.messages_per_rank,
        "wire_bytes_per_rank": run.wire_bytes_per_rank,
    }


def elastic_counts():
    """Rank 3 of 8 dies for good at step 3 of 4: the recovery plan, the
    re-brick of the newest epoch onto it, and the elastic run."""
    from repro.ckpt import CheckpointStore
    from repro.core.geometry import RunGeometry
    from repro.elastic import plan_recovery, rebrick
    from repro.faults.plan import FaultPlan
    from repro.stencil.reference import apply_periodic_reference

    problem, profile = _problem((48, 32, 32)), generic_host()
    plan = plan_recovery(problem, [3], None, profile.network)
    with tempfile.TemporaryDirectory() as root:
        run_executed(problem, "layout", timesteps=4, seed=0,
                     checkpoint_dir=root, checkpoint_period=1)
        summary = rebrick(
            CheckpointStore(root), RunGeometry(problem, "layout", profile), 3,
            CheckpointStore(Path(root) / "rebricked"),
            RunGeometry(plan.new_problem, "layout", profile), seed=0,
        )
    with tempfile.TemporaryDirectory() as root:
        run = run_executed(problem, "layout", timesteps=4, seed=0,
                           fault_plan=FaultPlan(seed=0, deaths=((3, 3),)),
                           checkpoint_dir=root, checkpoint_period=1, elastic=True)
    reference = apply_periodic_reference(problem.initial_global(0), SEVEN_POINT, 4)
    return {
        "old_ranks": problem.nranks, "new_ranks": plan.new_nranks,
        "new_rank_dims": list(plan.new_rank_dims), "survivors": len(plan.survivors),
        "rebrick_epoch": summary["epoch"], "bytes_written": summary["bytes_written"],
        "reshapes": run.reshapes, "final_nranks": math.prod(run.final_rank_dims),
        "dead_ranks": len(run.dead_ranks), "resumed_epoch": run.resumed_epoch,
        "exact": np.array_equal(run.global_result, reference),
    }


SCENARIOS = {
    "trace": trace_counts,
    "chaos": chaos_outcomes,
    "ckpt": ckpt_counts,
    "overlap": overlap_counts,
    "elastic": elastic_counts,
}


@pytest.mark.parametrize("name", SCENARIOS)
def test_counts_unchanged(name):
    assert SCENARIOS[name]() == json.loads(GOLDEN_PATH.read_text())[name]


if __name__ == "__main__":
    doc = {name: fn() for name, fn in SCENARIOS.items()}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
