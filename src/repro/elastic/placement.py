"""Failed-node-aware placement for the reshaped world.

After a permanent rank loss the survivors must agree on a new, smaller
Cartesian decomposition.  Two concerns meet here:

* **Node topology** -- ranks live on nodes; losing a rank loses its whole
  node, so every co-located rank is excluded from the reshaped world
  (:class:`ClusterTopology`), mirroring the ``--failed`` placement CLIs
  of process-mapping tools.
* **Decomposition quality** -- among the rank counts that still fit, pick
  the factorization whose modelled ghost-exchange cost is lowest under
  the machine's :class:`~repro.hardware.network.NetworkModel`; the same
  LogGP terms that price the paper's figures also score the reshape.

Everything is deterministic: candidate enumeration order, validity
checks, and tie-breaking are pure functions of the problem and the
survivor count, so every surviving rank (and every rerun of a seeded
chaos trial) computes the identical plan without communicating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, List, Sequence, Tuple

__all__ = ["ClusterTopology", "choose_rank_dims", "candidate_dims"]


@dataclass(frozen=True)
class ClusterTopology:
    """Block mapping of ranks onto nodes.

    Rank ``r`` lives on node ``r // ranks_per_node``.  The default used
    by the driver is one rank per node (every rank is its own failure
    domain); pass ``ranks_per_node > 1`` to model multi-rank nodes where
    one death takes out the whole node's worth of ranks.
    """

    ranks_per_node: int = 1

    def __post_init__(self) -> None:
        if self.ranks_per_node <= 0:
            raise ValueError("ranks_per_node must be positive")

    def node_of(self, rank: int) -> int:
        return int(rank) // self.ranks_per_node

    def failed_nodes(self, dead_ranks: Iterable[int]) -> List[int]:
        """Nodes hosting at least one dead rank, sorted."""
        return sorted({self.node_of(r) for r in dead_ranks})

    def surviving_ranks(
        self, nranks: int, dead_ranks: Iterable[int]
    ) -> List[int]:
        """Ranks of the old world on nodes with no death, sorted."""
        bad = set(self.failed_nodes(dead_ranks))
        return [r for r in range(int(nranks)) if self.node_of(r) not in bad]


def candidate_dims(n: int, ndim: int) -> List[Tuple[int, ...]]:
    """Every ordered factorization of *n* into *ndim* positive factors."""
    if ndim == 1:
        return [(n,)]
    out: List[Tuple[int, ...]] = []
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for head in product(divisors, repeat=ndim - 1):
        rest = math.prod(head)
        if n % rest == 0:
            out.append(head + (n // rest,))
    return out


def _dims_valid(problem, dims: Sequence[int]) -> bool:
    """Can the global problem actually run on *dims* ranks?

    Validity is delegated to the real constructors: the problem's
    divisibility rules plus the brick decomposition's
    ``grid >= 2 * width`` surface constraint, so this predicate can
    never drift from what the driver will accept.
    """
    from repro.core.problem import StencilProblem

    try:
        trial = StencilProblem(
            global_extent=problem.global_extent,
            rank_dims=tuple(dims),
            stencil=problem.stencil,
            brick_dim=problem.brick_dim,
            ghost=problem.ghost,
            layout=problem.layout,
            dtype=problem.dtype,
            periodic=problem.periodic,
        )
        trial.brick_decomp()
    except ValueError:
        return False
    return True


def _exchange_score(problem, dims: Sequence[int], network) -> float:
    """Modelled per-rank ghost-exchange time for one candidate.

    Prices one message per neighbor direction (the full ``3^D - 1``
    region set): each direction moves ``prod(ghost if moving else
    subdomain)`` elements.  This is the face/edge/corner surface-volume
    term every exchange method pays, which is what should steer the
    reshape -- per-method constants cancel across candidates.
    """
    ndim = len(dims)
    sub = [e // d for e, d in zip(problem.global_extent, dims)]
    g = int(problem.ghost)
    item = problem.dtype.itemsize
    sizes = []
    for direction in product((-1, 0, 1), repeat=ndim):
        if all(d == 0 for d in direction):
            continue
        elems = math.prod(
            g if d != 0 else s for d, s in zip(direction, sub)
        )
        sizes.append(elems * item)
    return network.exchange_time(sizes, sizes)


def choose_rank_dims(problem, max_ranks: int, network) -> Tuple[int, ...]:
    """Best valid decomposition using at most *max_ranks* ranks.

    Prefers the largest feasible rank count (keep the parallelism), then
    the lowest modelled exchange time, then the lexicographically
    smallest dims for a deterministic tie-break.  Raises ``ValueError``
    when not even a single-rank run fits (cannot happen for problems the
    old world already ran, but the contract is explicit).
    """
    if max_ranks < 1:
        raise ValueError("need at least one surviving rank to reshape onto")
    ndim = problem.ndim
    for n in range(int(max_ranks), 0, -1):
        valid = [
            dims for dims in candidate_dims(n, ndim) if _dims_valid(problem, dims)
        ]
        if valid:
            return min(
                valid, key=lambda d: (_exchange_score(problem, d, network), d)
            )
    raise ValueError(
        f"no valid decomposition of {tuple(problem.global_extent)} onto"
        f" <= {max_ranks} ranks"
    )
