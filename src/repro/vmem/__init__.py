"""Virtual-memory substrate for MemMap (paper Section 4).

The paper backs brick storage with a ``memfd_create`` file and ``mmap``\\ s
(``MAP_SHARED``) selected page ranges of it, multiple times, into
consecutive virtual addresses -- so the surface regions bound for one
neighbor *appear* contiguous and a single ``MPI_Send`` covers them with
zero copies.

:mod:`repro.vmem.realmap` is that mechanism: ``os.memfd_create`` plus
``libc.mmap(MAP_FIXED | MAP_SHARED)`` through :mod:`ctypes`, giving truly
aliased NumPy views.  It is Linux-only, and it is the one arena that
maps: where :func:`realmap_available` is false a MemMap run is refused
before launch.  :mod:`repro.vmem.layout_plan` turns byte ranges into the
page-granular chunks (and mapping counts) a view maps.
"""

from repro.vmem.arena import Arena, NumpyArena
from repro.vmem.layout_plan import ViewPlan, plan_view
from repro.vmem.realmap import MemfdArena, RealStitchedView, realmap_available

__all__ = [
    "Arena",
    "MemfdArena",
    "NumpyArena",
    "RealStitchedView",
    "ViewPlan",
    "plan_view",
    "realmap_available",
]
