"""Stencil definitions and kernels.

Two families from the paper's experiments (Section 7): a 7-point star
stencil (arithmetic intensity 8/16 flop/byte -- bandwidth bound) and a
5^3 cube 125-point stencil (139/16 -- near compute bound).  Kernels exist
for lexicographic extended arrays (used by the packing baselines and as
the test oracle) and for brick storage (layout-agnostic, adjacency-driven).
"""

from repro.stencil.spec import (
    SEVEN_POINT,
    TWENTY_FIVE_POINT_2D,
    CUBE125,
    StencilSpec,
    cube_stencil,
    star_stencil,
)
from repro.stencil.kernels import apply_array_stencil
from repro.stencil.brick_kernels import apply_brick_stencil, gather_halo_batch
from repro.stencil.plan import (
    ArrayStencilPlan,
    BrickStencilPlan,
    compile_array_plan,
    compile_brick_plan,
)
from repro.stencil.reference import apply_periodic_reference

__all__ = [
    "CUBE125",
    "SEVEN_POINT",
    "TWENTY_FIVE_POINT_2D",
    "ArrayStencilPlan",
    "BrickStencilPlan",
    "StencilSpec",
    "apply_array_stencil",
    "apply_brick_stencil",
    "apply_periodic_reference",
    "compile_array_plan",
    "compile_brick_plan",
    "cube_stencil",
    "gather_halo_batch",
    "star_stencil",
]
