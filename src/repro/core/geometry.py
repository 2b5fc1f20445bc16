"""Run geometry: what every rank of one launched world shares.

In the paper the brick metadata -- adjacency, layout order, the
per-neighbour message runs and views -- is computed once at start-up,
"reused throughout the application until the communication pattern
changes", and the same on every rank of a uniform decomposition.
:class:`RunGeometry` is that object for one launched world: built
**once, by the launching thread**, before any rank starts, and read-only
afterwards.  It holds everything rank-invariant and period-independent:

* brick methods: the :class:`~repro.brick.decomp.BrickDecomp`, the one
  :class:`~repro.brick.decomp.SlotAssignment` the method and page size
  select (the only place that selection is made), the
  :class:`~repro.brick.info.BrickInfo` adjacency, the element
  permutation;
* array methods: subdomain extent, ghost width, extended shape;
* all methods: the **schedule** -- the method's
  :class:`~repro.exchange.base.ScheduleTemplate`, instantiated for every
  rank by Cartesian arithmetic, each distinct plan priced once -- the
  **bind tables** of each engine (:meth:`RunGeometry.tables`, built when
  a rank first binds it, once per distinct partner set): the storage
  byte ranges of Layout / Basic's wire views, MemMap's window chunks and
  per-message slices, BrickPack's staging sizes and section runs, and
  Pack / MPI_Types / Shift's checked send and receive box tables and
  staging sizes (each ``SubarrayType`` built once per message) -- and
  the seeded initial condition, built on first use (a world resumed
  from a checkpoint never asks).

Each is derived once, with array operations where it is per brick or
per rank: the slot assignment from one classification of the brick grid
(:meth:`~repro.brick.decomp.BrickDecomp.assignment`), the adjacency and
the permutation by broadcasting its grid index, every rank's partners
by one array expression
(:meth:`~repro.exchange.base.ScheduleTemplate.for_ranks`).

What stays per rank is what is per rank: buffers, the binding of its
frozen plan to each buffer -- :meth:`RunGeometry.bind` refuses a buffer
the plans do not describe, then only cuts that buffer's wire views (or
allocates its staging), resolves the movers over them and hands the
channel's items to the fabric, which negotiates every edge -- kernel
scratch, the exchange period.  The same object is what ``repro check``
verifies, what the driver launches, what the degradation ladder takes
its rungs from and what elastic re-bricking reads both worlds'
decomposition from: the plan a rank binds *is* the plan that was
proved, by identity.

Thread safety: built before launch, except the on-demand products
(ladder rungs, bind tables, initial condition), built under a lock by
whichever rank asks first; every array exposed is non-writeable and
every table a tuple, so a rank that writes one raises instead of
racing.  DESIGN.md 5, "Run geometry".
"""

from __future__ import annotations

import threading
import zlib
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.brick.convert import element_permutation
from repro.core.methods import method_info, resolve_page_size
from repro.core.model import make_transport
from repro.core.problem import StencilProblem
from repro.exchange import bind_tables, make_exchanger, schedule_template
from repro.exchange.base import (
    Exchanger,
    ExchangeResult,
    RankMessagePlan,
    price_plan,
)
from repro.faults.errors import ExchangeConfigError
from repro.hardware.profiles import MachineProfile, generic_host

__all__ = ["CHECKABLE_METHODS", "RunGeometry"]

#: Methods with an executable schedule (and so a static check): every
#: executable CPU scheme plus the degradation ladder's last rung.
CHECKABLE_METHODS = (
    "yask", "yask_ol", "mpi_types", "shift", "basic", "layout", "memmap",
    "brickpack",
)

_Schedule = Tuple[Tuple[RankMessagePlan, ...], Tuple[ExchangeResult, ...]]


def _partners(plan: RankMessagePlan) -> tuple:
    """Which of its template's messages *plan* kept -- a send's tag
    names one: plans with equal partnered directions have equal specs,
    so one price and one set of bind tables serve them all."""
    return tuple(m.tag for m in plan.sends)


class RunGeometry:
    """The rank-invariant geometry and schedule of *problem* x *method*.

    ``plans[r]`` / ``results[r]`` are rank *r*'s frozen message plan and
    its modelled price.  ``decomp`` / ``assignment`` / ``brick_info`` /
    ``permutation`` / ``page_size`` are ``None`` where they do not apply
    (array methods; *page_size* is MemMap's).
    """

    def __init__(
        self,
        problem: StencilProblem,
        method: str,
        profile: Optional[MachineProfile] = None,
        page_size: Optional[int] = None,
    ) -> None:
        # "brickpack" is the ladder's last rung, not a user-selectable
        # method name: it has a base name but no MethodInfo.
        info = None if method == "brickpack" else method_info(method)
        self.base = info.base if info is not None else method
        if self.base not in CHECKABLE_METHODS:
            raise ExchangeConfigError(
                f"method {method!r} is not statically checkable;"
                f" checkable methods are {CHECKABLE_METHODS}"
            )
        self.problem = problem
        self.method = method
        self.profile = profile or generic_host()
        # A GPU method's plans are priced over its transport (raises for
        # a profile without a GPU, before any rank starts).
        self.transport = (
            make_transport(info, self.profile) if info is not None else None
        )
        self.extent = problem.subdomain_extent
        self.ghost = problem.ghost
        self.extended_shape = tuple(
            e + 2 * self.ghost for e in reversed(self.extent)
        )
        self.decomp = self.assignment = self.brick_info = None
        self.permutation = self.page_size = None
        if info is None or info.uses_bricks:
            self.decomp = decomp = problem.brick_decomp()
            if self.base == "memmap":
                self.page_size = resolve_page_size(info, self.profile, page_size)
                alignment = decomp.alignment_for_page(self.page_size)
            else:
                alignment = 1
            # Fills the decomp's assignment and permutation caches, so
            # the ranks' allocate / convert calls only ever read them.
            self.assignment = decomp.assignment(alignment)
            self.brick_info = decomp.brick_info(self.assignment)
            self.permutation = element_permutation(decomp, self.assignment)
        self._lock = threading.Lock()
        self._schedules: Dict[str, _Schedule] = {}
        self._tables: Dict[str, Tuple[Sequence, ...]] = {}
        self._initial: Dict[int, np.ndarray] = {}
        self.plans, self.results = self.schedule(self.base)

    # ------------------------------------------------------------------
    def _once(self, cache: dict, key, build):
        """``cache[key]``, built under the lock by whoever asks first."""
        with self._lock:
            if key not in cache:
                cache[key] = build()
            return cache[key]

    def schedule(self, base: str) -> _Schedule:
        """``(plans, results)`` of every rank for exchange engine *base*
        over this geometry: the run's own method, or a degradation-ladder
        rung over the same storage (derived when first asked for)."""
        return self._once(self._schedules, base, lambda: self._derive(base))

    def _derive(self, base: str) -> _Schedule:
        problem = self.problem
        template = schedule_template(
            base, self.extent, self.ghost, problem.dtype.itemsize,
            self.decomp, self.assignment, self.page_size,
        )
        periods = (problem.periodic,) * problem.ndim
        plans = template.for_ranks(problem.rank_dims, periods)
        results = []
        priced: Dict[tuple, ExchangeResult] = {}
        for plan in plans:
            present = _partners(plan)
            if present not in priced:
                priced[present] = price_plan(
                    plan, self.profile, self.transport
                )
            results.append(priced[present])
        return plans, tuple(results)

    def tables(self, base: str) -> Tuple[Sequence, ...]:
        """Per rank, the bind tables of engine *base*'s plan
        (:func:`~repro.exchange.bind_tables`), derived when first asked
        for: once per distinct partner set, shared by every rank with
        that set and by both of its buffers."""
        plans = self.schedule(base)[0]
        return self._once(
            self._tables, base, lambda: self._tabulate(base, plans)
        )

    def _tabulate(self, base: str, plans) -> Tuple[Sequence, ...]:
        built: Dict[tuple, Sequence] = {}
        out = []
        for plan in plans:
            present = _partners(plan)
            if present not in built:
                built[present] = bind_tables(base, plan, self.extent, self.ghost)
            out.append(built[present])
        return tuple(out)

    def bind(self, base: str, comm, buffer) -> Exchanger:
        """The exchanger of engine *base* over one of ``comm.rank``'s
        buffers, bound from that rank's frozen plan and its bind tables:
        what is left per buffer is its views, staging and movers."""
        plans, results = self.schedule(base)
        tables = self.tables(base)
        self._check_buffer(buffer)
        rank = comm.rank
        return make_exchanger(
            base, comm, plans[rank], buffer, self.extent, self.ghost,
            self.profile, results[rank], tables[rank],
        )

    def _check_buffer(self, buffer) -> None:
        """Refuse a buffer this geometry's plans do not describe: an
        extended array (array methods) or brick storage (brick methods)
        of another shape or dtype, or one that is not C-contiguous and
        writeable -- every exchange receives into it."""
        if self.decomp is None:
            what, data, shape = "extended array", buffer, self.extended_shape
        else:
            what, data = "brick storage", getattr(buffer, "data", None)
            shape = (self.assignment.total_slots, self.decomp.brick_elems)
        if not isinstance(data, np.ndarray) or data.shape != shape:
            raise ExchangeConfigError(
                f"{what} of shape {getattr(data, 'shape', None)}, expected {shape}"
            )
        if data.dtype != self.problem.dtype:
            raise ExchangeConfigError(
                f"{data.dtype} {what} bound to a plan of {self.problem.dtype}"
                " elements"
            )
        if not data.flags.c_contiguous:
            raise ExchangeConfigError(f"{what} must be C-contiguous")
        if not data.flags.writeable:
            raise ExchangeConfigError(
                f"cannot bind a read-only {what}: the exchange receives into it"
            )

    def initial(self, seed: int) -> np.ndarray:
        """The seeded global initial condition (read-only), built once."""

        def build() -> np.ndarray:
            field = self.problem.initial_global(seed)
            field.flags.writeable = False
            return field

        return self._once(self._initial, seed, build)

    @property
    def slot_key(self) -> Tuple[int, int]:
        """``(slot alignment, total slots)``: what a snapshot's problem
        key records of the storage layout (``(1, 1)`` for arrays)."""
        asn = self.assignment
        return (asn.alignment, asn.total_slots) if asn is not None else (1, 1)

    @property
    def adjacency_crc(self) -> int:
        """Fingerprint of the brick layout permutation a snapshot was
        taken under (0 for arrays)."""
        if self.brick_info is None:
            return 0
        return zlib.crc32(np.ascontiguousarray(self.brick_info.adjacency).tobytes())
