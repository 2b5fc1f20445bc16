"""halobench: per-method step time on four halo-exchange workloads.

    python3 benchmarks/halobench/run.py [--seed N] [--out FILE]
    python3 benchmarks/halobench/run.py --workload strong16 --trace 0
    python3 benchmarks/halobench/run.py --compare A.json B.json

Without ``--workload`` all four workloads run.  Each workload is measured
in a fresh subprocess pinned to one CPU (``worker.py``): once untraced
for the end-to-end metrics and once with the span recorder for the
per-layer metrics (``--trace 0`` / ``--trace 1`` pick one).  Every metric
is printed by name with its unit; every run is checked bit-for-bit
against the serial reference.  With exactly one ``--workload`` the last
line of standard output is the result object of the benchmark contract.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from fit import summary  # noqa: E402
from workloads import (  # noqa: E402
    METHODS,
    RUN_SECONDS,
    WORKLOADS,
    manifest,
    per_layer_metrics,
    workload,
)

#: Fresh subprocesses whose import + cold runs are timed for ``setup_s``
#: (the measuring worker is the first of them).
SETUP_SAMPLES = 3
QUICK_ROUNDS = 2
WORKER_TIMEOUT_S = 170
LAYER_UNITS = {m.name: m.unit for m in per_layer_metrics()}


def worker_env(scratch: str) -> Dict[str, str]:
    """The environment every worker runs in, whatever the caller's is."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_NO_PLAN", "REPRO_FABRIC_TIMEOUT")
        and not key.startswith("REPRO_CC_")
    }
    # cffi, not auto: a C kernel that cannot build must fail the run, not
    # silently fall back to the NumPy kernel and report its time.
    env["REPRO_KERNEL_BACKEND"] = "cffi"
    # Kernel builds and checkpoint stores go under the scratch directory.
    env["TMPDIR"] = scratch
    return env


def run_worker(spec: dict, scratch: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        env=worker_env(scratch),
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker for {spec['workload']} exited with code {proc.returncode}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(name: str, args, trace: bool, scratch: str) -> dict:
    """One contract run of workload *name*: a measuring worker, and for an
    untraced run the extra fresh processes that sample ``setup_s``."""
    spec = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "methods": args.method or list(METHODS),
        "rounds": QUICK_ROUNDS if args.quick else None,
        "setup_only": False,
        "spans": args.spans if trace else None,
    }
    doc = run_worker(spec, scratch)
    if not trace:
        setups = [doc["setup"]["setup_s"]]
        for _ in range(SETUP_SAMPLES - 1):
            extra = run_worker({**spec, "setup_only": True}, scratch)
            setups.append(extra["setup"]["setup_s"])
        doc["end_to_end"]["setup_s"] = summary(setups, "s")
    for line in doc["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    return doc


def print_metrics(name: str, doc: dict, trace: bool) -> None:
    if trace:
        for key, value in doc["per_layer"].items():
            print(f"{name:<10} {key:<42} {value:>14.6g} {LAYER_UNITS[key]}")
        return
    for key, m in doc["end_to_end"].items():
        print(
            f"{name:<10} {key:<42} {m['value']:>14.6g} {m['unit']:<3}"
            f" median {m['median']:.6g} q1 {m['q1']:.6g} q3 {m['q3']:.6g} n {m['n']}"
        )
    print(
        f"{name:<10} ops_attempted {doc['ops_attempted']}"
        f" ops_failed {doc['ops_failed']} rounds {doc['rounds']}"
    )


def contract_result(doc: dict, trace: bool) -> dict:
    """The result object the benchmark contract wants as the last line."""
    if trace:
        metrics = {
            key: {"value": value, "unit": LAYER_UNITS[key]}
            for key, value in doc["per_layer"].items()
        }
    else:
        metrics = {
            key: {"value": m["value"], "unit": m["unit"]}
            for key, m in doc["end_to_end"].items()
        }
    return {
        "correct": doc["ops_failed"] == 0,
        "attempted": doc["ops_attempted"],
        "failed": doc["ops_failed"],
        "metrics": metrics,
    }


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    names = [w.name for w in WORKLOADS]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--method", action="append", choices=METHODS)
    p.add_argument("--seed", type=int, default=0, help="initial-condition seed")
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), help="default: both")
    p.add_argument(
        "--quick",
        action="store_true",
        help=f"{QUICK_ROUNDS} rounds per workload, same geometry and steps",
    )
    p.add_argument("--out", help="write the JSON document here")
    p.add_argument("--spans", help="append traced runs' spans here (JSON lines)")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    p.add_argument(
        "--manifest", action="store_true", help="print what BENCHMARK.json holds"
    )
    return p.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.compare:
        return compare.main(*args.compare)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"halobench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = args.workload or [w.name for w in WORKLOADS]
    traces = [False, True] if args.trace is None else [bool(args.trace)]
    out: Dict[str, object] = {
        "schema": "halobench/1",
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "workloads": {},
    }
    failed = 0
    result = None
    # Kernel builds and checkpoint stores land here, inside the checkout.
    scratch = tempfile.mkdtemp(prefix=".halobench-", dir=ROOT)
    try:
        for name in names:
            entry: Dict[str, object] = {"why": workload(name).why}
            for trace in traces:
                doc = run_workload(name, args, trace, scratch)
                print_metrics(name, doc, trace)
                failed += doc["ops_failed"]
                entry["traced" if trace else "untraced"] = doc
                result = contract_result(doc, trace)
            out["workloads"][name] = entry
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    if len(names) == 1 and len(traces) == 1:
        print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
