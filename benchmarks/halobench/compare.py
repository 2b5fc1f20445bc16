"""``run.py --compare A.json B.json``: is B no worse than A?

A is the base and B the candidate.  One row per (workload, end-to-end
metric), each judged against that metric's own bound on that workload;
count metrics must be equal; B may not fail a larger share of its
operations than A.  Every ratio is printed with its base.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from workloads import (
    bound_for,
    end_to_end_metrics,
    per_layer_metrics,
    workload,
)


def _cell(m: Dict[str, float]) -> str:
    spread = f"{m['median']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}] n={m['n']}"
    return f"{m['value']:.5g} ({spread})"


def compare_documents(a: dict, b: dict) -> List[str]:
    """Print the comparison; return one line per breach."""
    breaches: List[str] = []
    shared = [name for name in a["workloads"] if name in b["workloads"]]
    for name in sorted(set(a["workloads"]) ^ set(b["workloads"])):
        print(f"{name}: in one document only, not compared")

    print(
        f"{'workload':<10} {'metric':<24} {'A value (median [q1, q3] n)':<46}"
        f" {'B value (median [q1, q3] n)':<46} B/A (base A) bound verdict"
    )
    for name in shared:
        wl = workload(name)
        runs = [doc["workloads"][name].get("untraced") for doc in (a, b)]
        if None in runs:
            continue
        for metric in end_to_end_metrics():
            ma, mb = (run["end_to_end"].get(metric.name) for run in runs)
            if ma is None or mb is None:
                continue
            bound = bound_for(metric, wl)
            ratio = mb["value"] / ma["value"]
            if ratio > 1 + bound:
                verdict = "BREACH"
                breaches.append(
                    f"{name} {metric.name}: {mb['value']:.5g} is {ratio:.3f}x"
                    f" the base {ma['value']:.5g} {metric.unit},"
                    f" bound {1 + bound:.2f}x"
                )
            else:
                verdict = "ok"
            print(
                f"{name:<10} {metric.name:<24} {_cell(ma):<46} {_cell(mb):<46}"
                f" {ratio:.3f}x of {ma['value']:.5g} {metric.unit}"
                f"  {bound:.0%}  {verdict}"
            )
        fa, fb = (run["ops_failed"] / run["ops_attempted"] for run in runs)
        print(f"{name:<10} ops failed/attempted: A {fa:.4f}  B {fb:.4f}")
        if fb > fa:
            breaches.append(f"{name}: failed share {fb:.4f} is above the base {fa:.4f}")

    exact = [m.name for m in per_layer_metrics() if m.exact]
    for name in shared:
        runs = [doc["workloads"][name].get("traced") for doc in (a, b)]
        if None in runs:
            continue
        la, lb = (run["per_layer"] for run in runs)
        differing = [
            k for k in exact if k in la and k in lb and la[k] != lb[k]
        ]
        for key in differing:
            breaches.append(f"{name} {key}: count {lb[key]!r} != base {la[key]!r}")
        print(
            f"{name:<10} {len(exact) - len(differing)} of {len(exact)}"
            " count metrics identical"
        )
    return breaches


def main(a_path: str, b_path: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    breaches = compare_documents(a, b)
    for line in breaches:
        print(f"BREACH {line}")
    print("compare: " + ("FAILED" if breaches else "ok"))
    return 1 if breaches else 0
