#!/usr/bin/env python
"""Quickstart: pack-free ghost-zone exchange in five minutes.

Runs a 7-point stencil on a 64^3 periodic domain decomposed over 8
simulated ranks, once with the classic packing exchange (YASK-style) and
once with MemMap (zero-copy mmap views), verifies both against the serial
reference bit-for-bit, and prints the artifact-style metrics:

    python examples/quickstart.py
"""

import numpy as np

from repro import SEVEN_POINT, StencilProblem, run_executed, theta_knl
from repro.stencil import apply_periodic_reference


def main() -> None:
    problem = StencilProblem(
        global_extent=(64, 64, 64),   # periodic cube
        rank_dims=(2, 2, 2),          # 8 ranks, one 32^3 subdomain each
        stencil=SEVEN_POINT,          # the paper's bandwidth-bound kernel
        brick_dim=(8, 8, 8),          # fine-grained data blocking
        ghost=8,                      # one brick deep (ghost-cell expansion)
    )
    profile = theta_knl()  # Theta's cost models price the modelled times
    timesteps = 3

    print(f"domain {problem.global_extent}, {problem.nranks} ranks, "
          f"{timesteps} timesteps\n")

    reference = apply_periodic_reference(
        problem.initial_global(seed=0), problem.stencil, timesteps
    )

    for method in ("yask", "memmap"):
        run = run_executed(problem, method, profile, timesteps=timesteps)
        exact = np.array_equal(run.global_result, reference)
        print(run.metrics.report())
        print(f"  messages/rank/step: {run.messages_per_rank}"
              f"   bit-exact vs serial reference: {exact}")
        if method == "memmap":
            print(f"  live mmap views:    {run.mapping_count} requested chunks"
                  f" (limit {profile.mmap_limit})")
        assert exact, "distributed result diverged from the reference!"
        print()

    print("Note how 'pack' is exactly zero for memmap: the surface regions")
    print("are sent straight out of brick storage through stitched virtual-")
    print("memory views -- the paper's pack-free exchange.")


if __name__ == "__main__":
    main()
