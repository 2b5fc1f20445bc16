"""Golden guard events: what a faulted run injects, heals and computes.

``golden_guard_events.json`` was recorded at commit 357e537, *before*
the envelope guard moved from judging an item to judging a cut (one seal
call per post, one copy-and-check call per receive, per-item judgement
only for the items that are not the common case), and before a faulted
receive landed every arrived item -- the injector's corrupted copies
too -- in one copy-and-check call and judged each taken item once.
Neither move may change an event: for every wire-fault preset x method x seed, the
injector's full event-count dict, its order-independent schedule digest
(every event's kind / src / dst / tag / seq / step), the ``retry`` /
``healed`` count per rank and the CRC32 of the final field compare
exactly.
Keys end in ``|unphased`` and every record carries ``"phased": false``
from when a run could also split its exchange step around interior
compute; that path and its records are gone, and the flag is not
compared.  A change that means to alter the
healing protocol re-records the file
(``python tests/test_golden_guard_events.py``) and says why.
"""

import json
import zlib
from pathlib import Path

import pytest

import repro.core.driver as driver
from repro.core.problem import StencilProblem
from repro.faults import FaultPlan
from repro.faults.chaos import PRESETS
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import SEVEN_POINT

GOLDEN_PATH = Path(__file__).parent / "golden_guard_events.json"
WIRE_PRESETS = ("corrupt", "drop", "duplicate", "delay", "mixed")
METHODS = ("layout", "memmap", "yask", "mpi_types")
SEEDS = (0, 1, 2)
STEPS = 2


def _problem():
    return StencilProblem(
        (32, 32, 32), (2, 2, 2), SEVEN_POINT, brick_dim=(8, 8, 8), ghost=8
    )


def _key(preset, method, seed):
    return f"{preset}|{method}|{seed}|unphased"


def observe(preset, method, seed):
    """One faulted run's record (the injector is the run's own: captured
    where ``run_executed`` constructs it)."""
    made = []

    class Capturing(driver.FaultInjector):
        def __init__(self, plan):
            super().__init__(plan)
            made.append(self)

    original = driver.FaultInjector
    driver.FaultInjector = Capturing
    try:
        run = driver.run_executed(
            _problem(), method, timesteps=STEPS, seed=0,
            fault_plan=FaultPlan(seed=seed, **PRESETS[preset]),
        )
    finally:
        driver.FaultInjector = original
    (injector,) = made
    per_rank = {"retry": {}, "healed": {}}
    for event in injector.events():
        if event.kind in per_rank:
            counts = per_rank[event.kind]
            counts[str(event.src)] = counts.get(str(event.src), 0) + 1
    return {
        "events": injector.event_counts(),
        "schedule_digest": injector.schedule_digest(),
        "retry": dict(sorted(per_rank["retry"].items())),
        "healed": dict(sorted(per_rank["healed"].items())),
        "field_crc": zlib.crc32(run.global_result.tobytes()),
    }


def _cases():
    return [
        (preset, method, seed)
        for preset in WIRE_PRESETS
        for method in METHODS
        for seed in SEEDS
    ]


@pytest.fixture(scope="module")
def golden():
    """The records, without their ``phased`` flag."""
    return {
        key: {field: v for field, v in record.items() if field != "phased"}
        for key, record in json.loads(GOLDEN_PATH.read_text()).items()
    }


@pytest.mark.parametrize("tier", ["cffi"])  # the one tier: the ids the floor records
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("preset", WIRE_PRESETS)
def test_guard_events_unchanged(preset, method, tier, golden):
    for seed in SEEDS:
        key = _key(preset, method, seed)
        assert observe(preset, method, seed) == golden[key], key


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in _cases())
    # The recording is not vacuous, every retried cut healed, and every
    # healed run computed the serial reference's field.
    problem = _problem()
    reference = apply_periodic_reference(
        problem.initial_global(0), problem.stencil, STEPS
    )
    want_crc = zlib.crc32(reference.tobytes())
    for key, record in golden.items():
        assert record["retry"] == record["healed"]
        assert any(kind.startswith("injected_") for kind in record["events"]), key
        assert record["field_crc"] == want_crc, key


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({_key(*case): {**observe(*case), "phased": False}
                    for case in _cases()},
                   indent=1, sort_keys=True) + "\n"
    )
    print(f"recorded {len(_cases())} cases to {GOLDEN_PATH}")
