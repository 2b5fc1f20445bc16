"""Golden counts: what five seeded scenarios count, exactly.

``golden_counts.json`` was recorded at commit 9e71d4b by running the
scenarios below: a traced Layout run's spans and counters; the 7-trial
chaos soak's outcomes, events, digests, demotions and final methods;
checkpoint store and run bytes and chunks; the phased run's executed
counts and the modelled strong-scaling arm's hidden fraction per scale;
the 8 -> 6 rank reshape plan, re-brick bytes and elastic run.  Time is
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

#: The modelled overlap arm: a 512^3 domain over 8..512 ranks.
STRONG_SCALING_RANK_DIMS = (
    (2, 2, 2), (2, 2, 4), (2, 4, 4), (4, 4, 4), (4, 4, 8), (4, 8, 8), (8, 8, 8),
)


def _problem(extent, brick=8):
    return StencilProblem(extent, (2, 2, 2), SEVEN_POINT, (brick,) * 3, ghost=8)


def trace_counts():
    with obs.observed():
        run_executed(_problem((32, 32, 32)), "layout", theta_knl(), timesteps=4)
    counts = obs.trace_stats(obs.TRACER, obs.METRICS)
    obs.TRACER.clear()
    obs.METRICS.clear()
    return counts


def chaos_outcomes():
    from repro.faults.chaos import ChaosConfig, run_soak

    report = run_soak(
        ChaosConfig(trials=7, seed=0, steps=2, timeout_s=20.0, check_determinism=False)
    )
    fields = "preset method outcome events digest demotions final_method".split()
    trials = [{k: getattr(t, k) for k in fields} for t in report.trials]
    return {"outcomes": report.counts(), "passed": report.passed, "trials": trials}


def ckpt_counts():
    """A store's full snapshot of a 16^3 decomposition (every section
    live), an incremental one after only the surface bricks changed, and
    a Layout run checkpointing every step at exchange period 2."""
    from repro.brick.decomp import BrickDecomp
    from repro.ckpt import CheckpointStore, group_runs, storage_chunks

    storage, asn = BrickDecomp((16, 16, 16), (8, 8, 8), 8).allocate()
    storage.data[:] = np.random.default_rng(0).random(storage.data.shape)
    specs = storage_chunks(asn)
    surface = [s for s in specs if s.name.startswith("surface:")]
    runs = group_runs(specs)

    def chunks():
        return [run.chunk(storage.slot_bytes, storage.brick_bytes) for run in runs]

    with tempfile.TemporaryDirectory() as root:
        store = CheckpointStore(root)
        full = store.save(0, 0, chunks(), problem_key="golden")
        for s in surface:
            storage.data[s.start_slot : s.start_slot + s.nslots] += 1.0
        incr = store.save(0, 1, chunks(), mode="incr", problem_key="golden",
                          parent=full, dirty_names=[s.name for s in surface])
    out = {"nslots": storage.nslots, "brick_bytes": storage.brick_bytes,
           "chunks": len(runs), "surface_chunks": len(surface),
           "full_bytes": full["data_bytes"], "incr_surface_bytes": incr["data_bytes"],
           "incr_chunks_written": sum(c["epoch"] == 1 for c in incr["runs"])}
    for mode in ("full", "incr"):
        with tempfile.TemporaryDirectory() as root:
            run = run_executed(
                _problem((32, 32, 32), brick=4), "layout", timesteps=4, seed=0,
                exchange_period=2, checkpoint_dir=root, checkpoint_period=1,
                checkpoint_mode=mode,
            )
        out[f"run_{mode}_bytes"] = run.checkpoint_bytes
        out[f"run_{mode}_saves"] = run.checkpoint_saves
    return out


def modelled_overlap():
    """Per scale, the share of the modelled exchange wait that the
    interior sweep (bricks no ghost-adjacent face reaches) hides."""
    from repro.core.methods import method_info
    from repro.core.model import compute_time, exchange_breakdown
    from repro.exchange.costs import overlap_times

    profile, info = generic_host(), method_info("layout")
    fraction, total_wait, total_hidden = {}, 0.0, 0.0
    for dims in STRONG_SCALING_RANK_DIMS:
        extent = tuple(512 // d for d in dims)
        wait = exchange_breakdown(profile, "layout", extent, (8, 8, 8), 8,
                                  itemsize=SEVEN_POINT.itemsize).wait
        interior = math.prod(e // 8 - 2 for e in extent) * 8**3
        icalc = compute_time(profile, info, interior, SEVEN_POINT)
        _, hidden = overlap_times(wait, icalc)
        total_wait += wait
        total_hidden += hidden
        fraction[str(math.prod(dims))] = round(hidden / wait, 6)
    aggregate = round(total_hidden / total_wait, 6)
    return {"hidden_fraction": fraction, "aggregate": aggregate}


def overlap_counts():
    """A phased Layout run with a real interior (64^3 over 2x2x2 ranks:
    8 of each rank's 64 bricks) against the same run unphased."""
    problem = _problem((64, 64, 64))
    phased = run_executed(problem, "layout", generic_host(), timesteps=8, overlap=True)
    plain = run_executed(problem, "layout", generic_host(), timesteps=8)
    return {
        "phased": phased.overlap,
        "bit_identical": np.array_equal(phased.global_result, plain.global_result),
        "messages_per_rank": phased.messages_per_rank,
        "wire_bytes_per_rank": phased.wire_bytes_per_rank,
        "hidden_comm_positive": phased.hidden_comm_s > 0.0,
        "modelled": modelled_overlap(),
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


def test_modelled_overlap_hides_most_of_the_wait():
    assert modelled_overlap()["aggregate"] > 0.5


if __name__ == "__main__":
    doc = {name: fn() for name, fn in SCENARIOS.items()}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
