"""Seeded chaos soak: run the stencil under injected faults and report.

One soak is a series of *trials*.  Each trial builds a deterministic
:class:`~repro.faults.FaultPlan` from ``(base seed, trial index)``, picks
an exchange method and a fault *preset* (wire corruption, drops,
duplicates, delays, a scheduled rank crash, or MemMap degradation), runs
the small reference problem end-to-end, and classifies the outcome:

``healed_exact``
    Faults were injected, every one was detected and healed, and the
    final state is bit-identical to the serial reference.
``detected``
    The run failed, but with a typed fault (or deadlock) as the root
    cause -- the failure was *noticed*, which is the contract.
``silent_corruption``
    The run "succeeded" with a wrong answer.  Never acceptable; the CI
    chaos job gates on zero of these.
``unexpected_error``
    The run failed with something other than a detected fault (or, with
    determinism checking on, a repeated trial diverged).  Also gated to
    zero.
``resumed_exact`` / ``resume_failed``
    Outcomes of the ``crash_restart`` preset, which runs the scheduled
    crash *with* a checkpoint store attached: the world must relaunch
    from the latest consistent epoch and finish bit-identical to the
    reference (``resumed_exact``); anything else -- no restart, a wrong
    answer, or an exception -- is ``resume_failed`` and gated to zero.
``reshaped_exact`` / ``reshape_failed``
    Outcomes of the ``node_loss`` preset, which kills two ranks
    *permanently* mid-run.  With a checkpoint store the elastic driver
    must reshape onto the survivors and finish bit-identical to the
    reference (``reshaped_exact``).  Without a store the loss must
    still be *detected* -- a typed ``RankDeadError`` root cause, never
    a hang -- classified as ``detected``.  ``reshape_failed`` is gated
    to zero.

Shift is excluded from the soak: healing lives on a persistent
channel's bound items, and Shift's per-axis barrier phases have no
channel -- a retry could not cross the barriers (peers may already sit
at a later one), so its per-message rounds are verified as detection
only and ``run_executed`` refuses a wire-fault plan for it up front.
The other exchangers retry safely because the envelope guard makes a
re-fired exchange idempotent, and one retry heals a whole cut.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from threading import BrokenBarrierError
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults.errors import FaultError
from repro.faults.plan import FaultPlan

__all__ = ["ChaosConfig", "TrialResult", "SoakReport", "run_soak", "PRESETS"]

#: Exchange methods the soak cycles through (shift excluded, see above).
_SOAK_METHODS = ("layout", "memmap", "yask", "mpi_types")

#: Wire-fault probabilities are kept moderate so most trials *heal*
#: (the interesting case); crash/degrade presets carry zero wire faults
#: so their event sets stay exactly reproducible even though the run is
#: torn down mid-flight.
PRESETS: Dict[str, dict] = {
    "corrupt": {"corrupt": 0.06},
    "drop": {"drop": 0.05},
    "duplicate": {"duplicate": 0.06},
    "delay": {"delay": 0.15, "delay_s": 0.0002},
    "mixed": {"drop": 0.02, "corrupt": 0.02, "duplicate": 0.02},
    "crash": {},
    "degrade": {},
    "crash_restart": {},
    "node_loss": {},
}

# crash_restart and node_loss are appended last on purpose: for
# index < 7 the preset cycle is unchanged, so the 7-trial soak pinned
# by tests/golden_counts.json and existing seeded soaks keep their
# exact event sets.
_PRESET_ORDER = ("corrupt", "drop", "mixed", "duplicate", "degrade", "crash",
                 "delay", "crash_restart", "node_loss")


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of one soak (defaults match the CI chaos job)."""

    trials: int = 10
    seed: int = 0
    steps: int = 3
    timeout_s: float = 10.0
    check_determinism: bool = True
    presets: Tuple[str, ...] = _PRESET_ORDER

    @classmethod
    def quick(cls, trials: int = 10, seed: int = 0) -> "ChaosConfig":
        return cls(trials=trials, seed=seed, steps=2, timeout_s=8.0)


@dataclass
class TrialResult:
    index: int
    preset: str
    method: str
    seed: int
    outcome: str
    events: Dict[str, int] = field(default_factory=dict)
    digest: int = 0
    demotions: int = 0
    restarts: int = 0
    final_method: str = ""
    error: str = ""


@dataclass
class SoakReport:
    config: ChaosConfig
    trials: List[TrialResult]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for t in self.trials:
            out[t.outcome] = out.get(t.outcome, 0) + 1
        return dict(sorted(out.items()))

    @property
    def silent(self) -> int:
        return self.counts().get("silent_corruption", 0)

    @property
    def unexpected(self) -> int:
        return self.counts().get("unexpected_error", 0)

    @property
    def resume_failed(self) -> int:
        return self.counts().get("resume_failed", 0)

    @property
    def reshape_failed(self) -> int:
        return self.counts().get("reshape_failed", 0)

    @property
    def passed(self) -> bool:
        """The chaos contract: every fault detected or healed, none
        silent, every survivable crash resumed bit-exactly, and every
        permanent rank loss either reshaped bit-exactly or detected."""
        return (
            self.silent == 0 and self.unexpected == 0
            and self.resume_failed == 0 and self.reshape_failed == 0
        )

    def to_literal(self) -> dict:
        return {
            "trials": self.config.trials,
            "seed": self.config.seed,
            "steps": self.config.steps,
            "outcomes": self.counts(),
            "passed": self.passed,
            "per_trial": [vars(t) for t in self.trials],
        }

    def render(self) -> str:
        lines = [
            f"chaos soak: {self.config.trials} trials,"
            f" base seed {self.config.seed}, {self.config.steps} steps/trial",
            f"{'#':>3} {'preset':<10} {'method':<10} {'outcome':<17}"
            f" {'final':<10} {'events'}",
        ]
        for t in self.trials:
            ev = ", ".join(f"{k}={v}" for k, v in sorted(t.events.items()))
            lines.append(
                f"{t.index:>3} {t.preset:<10} {t.method:<10} {t.outcome:<17}"
                f" {t.final_method or '-':<10} {ev or '-'}"
            )
        counts = ", ".join(f"{k}: {v}" for k, v in self.counts().items())
        lines.append(f"outcomes: {counts}")
        lines.append(
            "PASS: every injected fault was detected or healed"
            if self.passed
            else f"FAIL: {self.silent} silent corruption(s),"
                 f" {self.unexpected} unexpected error(s),"
                 f" {self.resume_failed} failed resume(s),"
                 f" {self.reshape_failed} failed reshape(s)"
        )
        return "\n".join(lines)


def _root_is_detected(exc: BaseException) -> bool:
    """Walk the cause chain: did a typed fault/deadlock start this?"""
    from repro.simmpi.fabric import AbortedError, DeadlockError

    seen = set()
    node: Optional[BaseException] = exc
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        if isinstance(
            node, (FaultError, DeadlockError, AbortedError, BrokenBarrierError)
        ):
            return True
        node = node.__cause__ or node.__context__
    return False


def _trial_plan(config: ChaosConfig, index: int, nranks: int,
                preset: str) -> FaultPlan:
    seed = config.seed * 1000 + index
    kwargs = dict(PRESETS[preset])
    if preset in ("crash", "crash_restart"):
        # Crash a deterministic non-root rank partway through the run.
        kwargs["crashes"] = ((1 + (seed % (nranks - 1)), config.steps // 2),)
    elif preset == "degrade":
        kwargs["degrade"] = ((seed % nranks, 1),)
    elif preset == "node_loss":
        # Two distinct non-root ranks die permanently, late enough that
        # longer soaks have committed a common epoch to re-brick.
        step = max(1, (2 * config.steps) // 3)
        others = list(range(1, nranks))
        first = others.pop(seed % len(others))
        second = others[seed % len(others)]
        kwargs["deaths"] = ((first, step), (second, step))
    return FaultPlan(seed=seed, **kwargs)


def _run_trial(problem, reference, config: ChaosConfig, index: int,
               elastic_problem=None, elastic_reference=None):
    """One chaos trial; returns a :class:`TrialResult`."""
    from repro.core.driver import run_executed

    preset = config.presets[index % len(config.presets)]
    if preset == "node_loss" and elastic_problem is not None:
        # The reshape needs a global extent that also factorizes for
        # the shrunken rank count; the cubical soak problem does not.
        problem, reference = elastic_problem, elastic_reference
    if preset == "degrade":
        method = "memmap"
    elif preset == "node_loss":
        # Elastic restart covers the brick methods (re-bricking is the
        # point); alternate with/without a store so the soak exercises
        # both the reshape and the detect-only contract.
        method = ("layout", "memmap", "basic")[index % 3]
    else:
        method = _SOAK_METHODS[index % len(_SOAK_METHODS)]
    plan = _trial_plan(config, index, problem.nranks, preset)
    with_store = preset == "node_loss" and plan.seed % 2 == 0
    result = TrialResult(
        index=index, preset=preset, method=method, seed=plan.seed, outcome=""
    )

    def attempt():
        if preset == "crash_restart":
            # A fresh store per attempt: the determinism rerun must
            # replay the whole crash-and-resume sequence from scratch,
            # not warm-start from the first attempt's snapshots.
            with tempfile.TemporaryDirectory(prefix="repro-ckpt-") as d:
                return run_executed(
                    problem, method, timesteps=config.steps, seed=0,
                    fault_plan=plan, fabric_timeout=config.timeout_s,
                    checkpoint_dir=d, checkpoint_period=1,
                )
        if with_store:
            with tempfile.TemporaryDirectory(prefix="repro-ckpt-") as d:
                return run_executed(
                    problem, method, timesteps=config.steps, seed=0,
                    fault_plan=plan, fabric_timeout=config.timeout_s,
                    checkpoint_dir=d, checkpoint_period=1, elastic=True,
                )
        return run_executed(
            problem, method, timesteps=config.steps, seed=0,
            fault_plan=plan, fabric_timeout=config.timeout_s,
        )

    try:
        run = attempt()
    except BaseException as exc:  # noqa: BLE001 - classified, not swallowed
        if preset == "crash_restart":
            # With a checkpoint store attached the scheduled crash is
            # supposed to be survived; any escape is a failed resume.
            result.outcome = "resume_failed"
            result.error = f"{type(exc).__name__}: {exc}"
            return result
        if with_store:
            # With a store attached the permanent loss is supposed to
            # be reshaped around; any escape is a failed reshape.
            result.outcome = "reshape_failed"
            result.error = f"{type(exc).__name__}: {exc}"
            return result
        result.outcome = (
            "detected" if _root_is_detected(exc) else "unexpected_error"
        )
        result.error = f"{type(exc).__name__}: {exc}"
        if _root_is_detected(exc) and config.check_determinism:
            try:
                attempt()
                result.outcome = "unexpected_error"
                result.error += " (rerun did not reproduce the failure)"
            except BaseException as again:  # noqa: BLE001
                if not _root_is_detected(again):
                    result.outcome = "unexpected_error"
                    result.error += (
                        f" (rerun failed differently:"
                        f" {type(again).__name__})"
                    )
        return result

    result.events = dict(run.faults["events"]) if run.faults else {}
    result.digest = run.faults["schedule_digest"] if run.faults else 0
    result.demotions = run.demotions
    result.restarts = run.restarts
    result.final_method = run.final_method
    if preset == "crash_restart" and run.restarts < 1:
        result.outcome = "resume_failed"
        result.error = "scheduled crash did not trigger a restart"
        return result
    if preset == "node_loss" and not with_store:
        # Without snapshots a permanent death cannot be survived; a
        # "successful" run means detection never happened.
        result.outcome = "unexpected_error"
        result.error = "scheduled permanent death did not fail the run"
        return result
    if with_store and run.reshapes < 1:
        result.outcome = "reshape_failed"
        result.error = "scheduled permanent death did not trigger a reshape"
        return result
    if not np.array_equal(run.global_result, reference):
        result.outcome = (
            "resume_failed"
            if preset == "crash_restart"
            else "reshape_failed"
            if with_store
            else "silent_corruption"
        )
        return result
    if preset == "crash_restart":
        result.outcome = "resumed_exact"
    elif with_store:
        result.outcome = "reshaped_exact"
    else:
        result.outcome = "healed_exact"
    if config.check_determinism:
        rerun = attempt()
        if (
            rerun.faults["schedule_digest"] != result.digest
            or not np.array_equal(rerun.global_result, reference)
        ):
            result.outcome = "unexpected_error"
            result.error = "rerun diverged: fault schedule or state changed"
    return result


def run_soak(config: Optional[ChaosConfig] = None) -> SoakReport:
    """Run the full soak on the standard small problem (32^3 over 2^3)."""
    from repro.core.problem import StencilProblem
    from repro.stencil.reference import apply_periodic_reference
    from repro.stencil.spec import SEVEN_POINT

    config = config or ChaosConfig()
    problem = StencilProblem(
        global_extent=(32, 32, 32),
        rank_dims=(2, 2, 2),
        stencil=SEVEN_POINT,
        brick_dim=(8, 8, 8),
        ghost=8,
    )
    reference = apply_periodic_reference(
        problem.initial_global(0), SEVEN_POINT, config.steps
    )
    elastic_problem = None
    elastic_reference = None
    if "node_loss" in config.presets:
        elastic_problem = StencilProblem(
            global_extent=(48, 32, 32),
            rank_dims=(2, 2, 2),
            stencil=SEVEN_POINT,
            brick_dim=(8, 8, 8),
            ghost=8,
        )
        elastic_reference = apply_periodic_reference(
            elastic_problem.initial_global(0), SEVEN_POINT, config.steps
        )
    trials = [
        _run_trial(problem, reference, config, i,
                   elastic_problem, elastic_reference)
        for i in range(config.trials)
    ]
    return SoakReport(config=config, trials=trials)
