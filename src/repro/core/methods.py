"""Registry of exchange methods and their properties.

A method name is ``<base>`` for CPU runs or ``<base>_<transport>`` for GPU
runs (``ca`` = CUDA-aware/GPUDirect, ``um`` = Unified Memory/ATS,
``staged`` = manual cudaMemcpy).  The registry records which storage kind
each base method needs and which compute model prices its kernel, so the
driver and the cost model stay consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "MethodInfo",
    "method_info",
    "resolve_page_size",
    "CPU_METHODS",
    "GPU_METHODS",
    "BRICK_METHODS",
    "ALL_METHODS",
]


@dataclass(frozen=True)
class MethodInfo:
    """Static properties of one exchange method."""

    base: str  # yask / yask_ol / mpi_types / basic / layout / memmap / network
    transport: Optional[str]  # None (CPU) / "ca" / "um" / "staged"
    uses_bricks: bool
    overlaps: bool
    compute_kind: str  # "yask" or "brick"

    @property
    def name(self) -> str:
        return self.base if self.transport is None else f"{self.base}_{self.transport}"

    @property
    def is_gpu(self) -> bool:
        return self.transport is not None


_BASES = {
    # base: (uses_bricks, overlaps, compute_kind)
    "yask": (False, False, "yask"),
    "yask_ol": (False, True, "yask"),
    "mpi_types": (False, False, "yask"),
    "basic": (True, False, "brick"),
    "layout": (True, False, "brick"),
    "memmap": (True, False, "brick"),
    "network": (True, False, "brick"),
}

_TRANSPORTS = ("ca", "um", "staged")


def method_info(name: str) -> MethodInfo:
    """Parse a method name into its :class:`MethodInfo`."""
    base, transport = name, None
    for t in _TRANSPORTS:
        if name.endswith("_" + t):
            base, transport = name[: -(len(t) + 1)], t
            break
    if base not in _BASES:
        raise ValueError(
            f"unknown method {name!r}; bases are {sorted(_BASES)} with"
            f" optional transports {_TRANSPORTS}"
        )
    if transport == "ca" and base == "memmap":
        raise ValueError(
            "memmap_ca is not implementable: cudaMalloc memory has no host"
            " page-table mappings to stitch (paper Section 5)"
        )
    return MethodInfo(base, transport, *_BASES[base])


def resolve_page_size(info: MethodInfo, profile, requested: Optional[int]) -> int:
    """Page size of a run: *requested*, else (``None``) the machine's --
    the GPU's for GPU transports on a profile that has one.  A requested
    size that is not positive is refused, not replaced."""
    if requested is not None:
        if requested <= 0:
            raise ValueError(f"page_size must be positive, got {requested}")
        return requested
    if info.is_gpu and profile.gpu:
        return profile.gpu.page_size
    return profile.page_size


CPU_METHODS: Tuple[str, ...] = (
    "yask",
    "yask_ol",
    "mpi_types",
    "basic",
    "layout",
    "memmap",
    "network",
)

GPU_METHODS: Tuple[str, ...] = (
    "layout_ca",
    "layout_um",
    "memmap_um",
    "mpi_types_um",
    "mpi_types_ca",
    "network_ca",
)

BRICK_METHODS: Tuple[str, ...] = tuple(
    m for m in CPU_METHODS if _BASES[m][0]
)

ALL_METHODS: Tuple[str, ...] = CPU_METHODS + GPU_METHODS
