"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures [name ...]``
    Regenerate paper artifacts as text tables (all 19 by default: the
    16 paper tables and figures, and the D1, D3, D4 ablations).
``run``
    Execute a distributed stencil run on simulated ranks, validate it
    bit-for-bit against the serial reference, and print the artifact
    metrics.  ``--trace`` additionally records the run with the span
    tracer enabled, writes a Chrome trace-event JSON timeline
    (``--trace-out``; chrome://tracing or Perfetto) whose ``otherData``
    holds the run's counters (``obs.counters``), and prints a flame
    summary.
``advise``
    Strong-scaling advisor: best exchange scheme per node count.
``search-layout``
    Search for a message-minimal region order in D dimensions.
``validate``
    Self-check: run every executable method on a small problem and
    verify all of them against the reference.
``check``
    Ahead-of-run static verifier: build the run geometry a run of this
    configuration would bind its plans from and prove deadlock freedom,
    byte/split agreement, tag hygiene, in-bounds compiled plans and
    C-backend sanity without a fabric.  ``--selftest`` runs the mutation harness
    (every violation class must be detected); exits nonzero on any
    error finding.
``chaos``
    Seeded fault-injection soak: corrupt/drop/duplicate/delay wire
    faults, scheduled rank crashes (with and without checkpoint-based
    restart), permanent node loss with elastic reshape, and MemMap
    degradation, with a survival/detection report.  Exits nonzero on
    any silent corruption, unexpected error, failed resume or failed
    reshape (the CI chaos jobs gate on this).
``ckpt``
    Checkpoint store maintenance: ``ls`` epochs and their global
    consistency, ``verify`` every chunk's CRC32 (nonzero exit on any
    corruption), ``prune`` old epochs while keeping referenced parents.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main"]


def _cmd_figures(args) -> int:
    from repro.bench.render import ARTIFACTS, render

    if args.list:
        print(" ".join(ARTIFACTS))
        return 0
    names = args.names or list(ARTIFACTS)
    # A blank line between artifacts; one artifact's output is exactly
    # its benchmarks/results/<id>.txt.
    sys.stdout.write("\n".join(render(name) for name in names))
    return 0


def _profile(name: str):
    from repro.hardware.profiles import generic_host, summit_v100, theta_knl

    return {"theta": theta_knl, "summit": summit_v100, "generic": generic_host}[
        name
    ]()


def _build_problem(args):
    from repro.core.problem import StencilProblem
    from repro.stencil.spec import CUBE125, SEVEN_POINT

    stencil = {"7pt": SEVEN_POINT, "125pt": CUBE125}[args.stencil]
    return StencilProblem(
        global_extent=tuple(args.domain),
        rank_dims=tuple(args.ranks),
        stencil=stencil,
        brick_dim=(args.brick,) * 3,
        ghost=args.ghost,
        periodic=not getattr(args, "open_boundaries", False),
    )


def _cmd_run(args) -> int:
    from repro import obs
    from repro.core.driver import run_executed
    from repro.stencil import cbackend
    from repro.stencil.reference import apply_periodic_reference

    problem = _build_problem(args)
    stencil = problem.stencil
    fault_plan = None
    if getattr(args, "kill", None):
        from repro.faults.plan import FaultPlan

        deaths = []
        for spec in args.kill:
            rank_s, _, step_s = spec.partition(":")
            try:
                deaths.append((int(rank_s), int(step_s)))
            except ValueError:
                print(f"--kill wants RANK:STEP, got {spec!r}",
                      file=sys.stderr)
                return 2
        fault_plan = FaultPlan(deaths=tuple(deaths))
    tracing = getattr(args, "trace", False)
    if tracing:
        obs.enable()
    try:
        run = run_executed(
            problem, args.method, _profile(args.machine),
            timesteps=args.steps, exchange_period=args.exchange_period,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_period=args.checkpoint_period,
            resume=args.resume,
            fault_plan=fault_plan,
            elastic=args.elastic,
            check=getattr(args, "check", None),
        )
    finally:
        if tracing:
            obs.disable()
    if args.checkpoint_dir:
        line = (
            f"checkpoints: {run.checkpoint_saves} epoch(s),"
            f" {run.checkpoint_bytes} bytes -> {args.checkpoint_dir}"
        )
        if run.resumed_epoch >= 0:
            line += f" (resumed from epoch {run.resumed_epoch})"
        print(line)
    if run.reshapes:
        print(
            f"elastic: survived loss of rank(s)"
            f" {', '.join(map(str, run.dead_ranks))} --"
            f" {run.reshapes} reshape(s) onto rank dims"
            f" {'x'.join(map(str, run.final_rank_dims))}"
        )
    if tracing:
        out = getattr(args, "trace_out", None) or "trace.json"
        obs.write_chrome_trace(out, obs.TRACER, run)
        print(f"wrote {out} (load in chrome://tracing)")
        print(obs.flame_summary(obs.TRACER))
    print(run.metrics.report())
    print(f"messages/rank/step: {run.messages_per_rank}")
    if run.exchange_period > 1:
        print(f"exchange period: {run.exchange_period} (ghost-cell expansion)")
    if run.mapping_count:
        print(f"mmap views: {run.mapping_count} requested chunks (vm.max_map_count)")
    vector_bits = cbackend.mover_kernel().vector_bits
    print(f"kernel backend: {run.kernel_backend}, vector width {vector_bits} bits")
    print(f"copy backend: {run.copy_backend}")
    print(f"kernel cache: {cbackend.cache_line()}")
    exact = None
    if problem.periodic:
        ref = apply_periodic_reference(
            problem.initial_global(0), stencil, args.steps
        )
        exact = bool(np.array_equal(run.global_result, ref))
        print(f"bit-exact vs serial reference: {exact}")
    if args.json:
        import json

        m = run.metrics
        payload = {
            "method": args.method,
            "machine": args.machine,
            "stencil": args.stencil,
            "global_extent": list(problem.global_extent),
            "rank_dims": list(problem.rank_dims),
            "timesteps": args.steps,
            "exchange_period": run.exchange_period,
            "messages_per_rank": run.messages_per_rank,
            "wire_bytes_per_rank": run.wire_bytes_per_rank,
            "padding_fraction": run.padding_fraction,
            "mapping_count": run.mapping_count,
            "kernel_backend": run.kernel_backend,
            "kernel_vector_bits": vector_bits,
            "copy_backend": run.copy_backend,
            "kernel_cache": cbackend.cache_state(),
            "gstencils_per_s": m.gstencils_per_s,
            "phases_s": {
                p: vars(m.phase(p))
                for p in ("calc", "pack", "call", "wait", "move")
            },
            "bit_exact": exact,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    return 1 if exact is False else 0


def _cmd_advise(args) -> int:
    from repro.bench.advisor import advise, render_advice

    rows = advise(args.domain, args.machine, args.stencil, args.max_nodes)
    print(render_advice(rows, args.domain, args.machine, args.stencil))
    good = [r for r in rows if r.efficiency >= 0.5]
    if good:
        r = good[-1]
        print(
            f"Recommendation: up to {r.nodes} nodes with '{r.best}',"
            f" parallel efficiency {100 * r.efficiency:.0f}%."
        )
    return 0


def _cmd_search_layout(args) -> int:
    from repro.layout.analysis import optimal_message_count
    from repro.layout.search import anneal_order, exhaustive_best_order

    target = optimal_message_count(args.ndim)
    if args.exhaustive:
        order, count = exhaustive_best_order(args.ndim)
    else:
        order, count = anneal_order(
            args.ndim, seed=args.seed, restarts=args.restarts,
            iters=args.iters, target=target,
        )
    print(f"D={args.ndim}: found order with {count} messages"
          f" (Eq. 1 bound: {target})")
    for region in order:
        print(f"  {region.notation()}")
    return 0 if count == target else 2


def _cmd_validate(args) -> int:
    from repro.core.driver import run_executed
    from repro.core.geometry import CHECKABLE_METHODS
    from repro.core.problem import StencilProblem
    from repro.stencil.reference import apply_periodic_reference
    from repro.stencil.spec import SEVEN_POINT

    problem = StencilProblem(
        global_extent=(32, 32, 32), rank_dims=(2, 2, 2),
        stencil=SEVEN_POINT, brick_dim=(8, 8, 8), ghost=8,
    )
    ref = apply_periodic_reference(problem.initial_global(0), SEVEN_POINT, 2)
    failures = 0
    for method in CHECKABLE_METHODS:
        run = run_executed(problem, method, _profile(args.machine), timesteps=2)
        ok = np.array_equal(run.global_result, ref)
        print(f"  {method:<10} {'OK' if ok else 'FAILED'}"
              f"  ({run.messages_per_rank} msgs/rank/step)")
        failures += not ok
    print("all exchange methods bit-exact" if not failures
          else f"{failures} method(s) diverged")
    return 1 if failures else 0


def _cmd_chaos(args) -> int:
    import dataclasses

    from repro.faults.chaos import PRESETS, ChaosConfig, run_soak

    if args.quick:
        config = ChaosConfig.quick(trials=args.trials, seed=args.seed)
    else:
        config = ChaosConfig(trials=args.trials, seed=args.seed)
    if args.no_recheck:
        config = dataclasses.replace(config, check_determinism=False)
    if args.presets:
        names = tuple(s.strip() for s in args.presets.split(",") if s.strip())
        unknown = sorted(set(names) - set(PRESETS))
        if unknown:
            print(
                f"unknown preset(s) {', '.join(unknown)};"
                f" choose from {', '.join(sorted(PRESETS))}",
                file=sys.stderr,
            )
            return 2
        config = dataclasses.replace(config, presets=names)
    report = run_soak(config)
    print(report.render())
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(report.to_literal(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0 if report.passed else 1


def _cmd_ckpt(args) -> int:
    from repro.ckpt import CheckpointFormatError, CheckpointStore

    try:
        store = CheckpointStore(args.dir)
    except CheckpointFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.ckpt_cmd == "ls":
        rows = store.ls_rows(nranks=args.nranks)
        if not rows:
            print(f"no checkpoints under {args.dir}")
            return 0
        print(f"{'epoch':>8} {'ranks':>5} {'mode':<10} {'bytes':>12}"
              f" consistent")
        for r in rows:
            print(f"{r['epoch']:>8} {r['ranks']:>5} {r['modes']:<10}"
                  f" {r['bytes']:>12} {'yes' if r['consistent'] else 'no'}")
        latest = store.latest_consistent(args.nranks)
        print(f"latest consistent epoch: "
              f"{latest if latest >= 0 else 'none'}")
        return 0
    if args.ckpt_cmd == "verify":
        rows = store.verify()
        bad = 0
        for r in rows:
            ok = r["ok"]
            bad += not ok
            status = "OK" if ok else f"CORRUPT: {r['error']}"
            print(f"rank {r['rank']:>4} epoch {r['epoch']:>6}"
                  f" {r['mode'] or '?':<5} {r['data_bytes']:>12}B {status}")
        print(f"{len(rows) - bad}/{len(rows)} snapshot(s) verified clean")
        return 1 if bad else 0
    removed = store.prune(keep=args.keep)
    print(f"pruned {len(removed)} file(s), keeping the newest {args.keep}"
          f" epoch(s) per rank (plus referenced parents)")
    return 0


def _cmd_check(args) -> int:
    import json

    from repro.check import CHECKABLE_METHODS, run_checks, run_selftest

    if args.selftest:
        methods = (
            CHECKABLE_METHODS if args.all_methods else ("memmap", "yask")
        )
        results = run_selftest(methods=methods)
        missed = sorted(k for k, ok in results.items() if not ok)
        for k in sorted(results):
            print(f"{'detected' if results[k] else 'MISSED':8s} {k}")
        print(
            f"selftest: {len(results) - len(missed)}/{len(results)}"
            " violation classes detected"
        )
        return 1 if missed else 0

    problem = _build_problem(args)
    dead = tuple(int(r) for r in (args.dead or []))
    methods = (
        list(CHECKABLE_METHODS) if args.all_methods else [args.method]
    )
    payloads = []
    failed = False
    for method in methods:
        report = run_checks(
            problem, method,
            profile=_profile(args.machine),
            dead_ranks=dead,
        )
        failed = failed or not report.ok
        if args.json:
            payloads.append(report.to_literal())
        else:
            print(report.render())
            if len(methods) > 1:
                print()
    if args.json:
        out = payloads[0] if len(payloads) == 1 else payloads
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=2)
        print(f"wrote {args.json}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pack-free ghost-zone exchange (PPoPP'21 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figures", help="regenerate paper artifacts")
    p.add_argument("names", nargs="*")
    p.add_argument("--list", action="store_true")
    p.set_defaults(fn=_cmd_figures)

    def add_run_args(p):
        p.add_argument("--method", default="memmap")
        p.add_argument("--domain", type=int, nargs=3, default=[32, 32, 32])
        p.add_argument("--ranks", type=int, nargs=3, default=[2, 2, 2])
        p.add_argument("--steps", type=int, default=2)
        p.add_argument("--brick", type=int, default=8)
        p.add_argument("--ghost", type=int, default=8)
        p.add_argument("--stencil", choices=("7pt", "125pt"), default="7pt")
        p.add_argument("--machine", choices=("theta", "summit", "generic"),
                       default="theta")
        p.add_argument(
            "--exchange-period", default=None,
            help="exchange every N steps ('auto' for the maximum the ghost"
                 " width supports); redundant computation fills the gaps",
        )

    p = sub.add_parser("run", help="executed distributed run + validation")
    add_run_args(p)
    p.add_argument("--open-boundaries", action="store_true")
    p.add_argument("--check", nargs="?", const="strict",
                   choices=("strict", "warn"), default=None,
                   help="static pre-flight: verify the exchange schedule"
                        " and compiled plans before launching ranks"
                        " (bare --check means strict)")
    p.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                   help="write content-verified snapshots to this store")
    p.add_argument("--checkpoint-period", type=int, default=None,
                   help="snapshot every N steps (default 1)")
    p.add_argument("--resume", action="store_true",
                   help="restore from the latest consistent epoch in"
                        " --checkpoint-dir before stepping")
    p.add_argument("--elastic", action="store_true",
                   help="survive permanent rank deaths by re-bricking the"
                        " newest common snapshot epoch onto a shrunken"
                        " decomposition (needs --checkpoint-dir)")
    p.add_argument("--kill", metavar="RANK:STEP", action="append",
                   default=None,
                   help="schedule a permanent rank death (repeatable);"
                        " pair with --elastic to exercise recovery")
    p.add_argument("--json", metavar="PATH",
                   help="also write the run summary as JSON")
    p.add_argument("--trace", action="store_true",
                   help="record an observability trace of the run")
    p.add_argument("--trace-out", metavar="PATH", default="trace.json",
                   help="Chrome trace-event output path for --trace")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("advise", help="strong-scaling advisor")
    p.add_argument("--domain", type=int, default=1024)
    p.add_argument("--machine", choices=("theta", "summit"), default="theta")
    p.add_argument("--stencil", choices=("7pt", "125pt"), default="7pt")
    p.add_argument("--max-nodes", type=int, default=1024)
    p.set_defaults(fn=_cmd_advise)

    p = sub.add_parser("search-layout", help="find a message-minimal order")
    p.add_argument("ndim", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--iters", type=int, default=8000)
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(fn=_cmd_search_layout)

    p = sub.add_parser("validate", help="self-check all exchange methods")
    p.add_argument("--machine", choices=("theta", "summit", "generic"),
                   default="theta")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser(
        "check", help="ahead-of-run static schedule/plan verifier"
    )
    add_run_args(p)
    p.add_argument("--open-boundaries", action="store_true")
    p.add_argument("--dead", type=int, action="append", default=None,
                   metavar="RANK",
                   help="treat RANK as permanently dead (repeatable);"
                        " any schedule edge touching it is an error")
    p.add_argument("--all-methods", action="store_true",
                   help="check every executable method, not just"
                        " --method")
    p.add_argument("--selftest", action="store_true",
                   help="mutation harness: inject one violation of each"
                        " class and require the verifier to catch it")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the report(s) as JSON")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("chaos", help="seeded fault-injection soak")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true",
                   help="shorter runs (2 steps/trial)")
    p.add_argument("--no-recheck", action="store_true",
                   help="skip the per-trial determinism rerun")
    p.add_argument("--json", metavar="PATH",
                   help="also write the report as JSON")
    p.add_argument("--presets", metavar="LIST", default=None,
                   help="comma-separated preset subset to cycle"
                        " (e.g. 'crash_restart')")
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser("ckpt", help="checkpoint store maintenance")
    cksub = p.add_subparsers(dest="ckpt_cmd", required=True)
    cp = cksub.add_parser("ls", help="list epochs and global consistency")
    cp.add_argument("dir")
    cp.add_argument("--nranks", type=int, default=None,
                    help="expected world size (default: rank dirs found)")
    cp.set_defaults(fn=_cmd_ckpt)
    cp = cksub.add_parser("verify", help="CRC-verify every snapshot chunk")
    cp.add_argument("dir")
    cp.set_defaults(fn=_cmd_ckpt)
    cp = cksub.add_parser("prune", help="drop all but the newest epochs")
    cp.add_argument("dir")
    cp.add_argument("--keep", type=int, default=1,
                    help="epochs to keep per rank (default 1)")
    cp.set_defaults(fn=_cmd_ckpt)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)
