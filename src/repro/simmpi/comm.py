"""Communicators: point-to-point plus Cartesian topology.

Follows mpi4py's upper-case buffer interface, blocking calls only:
``Send``/``Recv`` take NumPy arrays (any shape, contiguous)
and carry the collectives (:mod:`repro.simmpi.collectives`);
``Barrier`` synchronises; and :class:`CartComm` adds the periodic rank
grid the paper's experiments use (a ``2^3`` cube for K1/V1, larger grids
for strong scaling).  A halo exchange calls none of the point-to-point
methods: its channel fires the bound cuts of
:meth:`~repro.simmpi.fabric.SimFabric.bind_request`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.faults.errors import ExchangeConfigError
from repro.simmpi.fabric import SimFabric
from repro.util.indexing import unravel_index

__all__ = ["SimComm", "CartComm"]


def _check_recv_buffer(buf: np.ndarray) -> None:
    if not isinstance(buf, np.ndarray):
        raise TypeError("Recv needs a NumPy buffer to receive into")
    if not buf.flags.c_contiguous:
        raise ExchangeConfigError("receive buffers must be C-contiguous")


class SimComm:
    """One rank's endpoint on a :class:`SimFabric`."""

    def __init__(self, fabric: SimFabric, rank: int) -> None:
        if not 0 <= rank < fabric.nranks:
            raise ExchangeConfigError(
                f"rank {rank} outside fabric of {fabric.nranks}"
            )
        self.fabric = fabric
        self.rank = rank

    @property
    def size(self) -> int:
        return self.fabric.nranks

    # -- point to point --------------------------------------------------
    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        """Blocks until *dest* has copied *buf* (synchronous mode)."""
        self.fabric.wait_send(self.fabric.post_send(self.rank, dest, tag, buf))

    def Recv(self, buf: np.ndarray, source: int, tag: int = 0) -> None:
        _check_recv_buffer(buf)
        self.fabric.complete_recv(source, self.rank, tag, buf)

    def Barrier(self) -> None:
        self.fabric.barrier(self.rank)

    def set_epoch(self, epoch: Optional[int]) -> None:
        """Mark this rank's exchange epoch on the fabric (verified mode).

        The driver brackets each halo exchange with ``set_epoch(step)`` /
        ``set_epoch(None)`` so retried exchanges stay idempotent; a no-op
        concept on an unverified fabric (the epoch is simply unused).
        """
        self.fabric.set_epoch(self.rank, epoch)

    # -- topology helpers -------------------------------------------------
    def Create_cart(
        self, dims: Sequence[int], periods: Optional[Sequence[bool]] = None
    ) -> "CartComm":
        return CartComm(self.fabric, self.rank, dims, periods)


class CartComm(SimComm):
    """Cartesian communicator over the full fabric.

    Rank order follows MPI convention: the *last* dimension varies
    fastest.  ``dims`` is given in axis order ``(axis_1, ..., axis_D)`` to
    match the rest of the library; internally we map accordingly.
    """

    def __init__(
        self,
        fabric: SimFabric,
        rank: int,
        dims: Sequence[int],
        periods: Optional[Sequence[bool]] = None,
    ) -> None:
        super().__init__(fabric, rank)
        self.dims = tuple(int(d) for d in dims)
        if any(d <= 0 for d in self.dims):
            raise ExchangeConfigError("cartesian dims must be positive")
        total = 1
        for d in self.dims:
            total *= d
        if total != fabric.nranks:
            raise ExchangeConfigError(
                f"cartesian grid {self.dims} needs {total} ranks,"
                f" fabric has {fabric.nranks}"
            )
        if periods is None:
            periods = [True] * len(self.dims)
        self.periods = tuple(bool(p) for p in periods)
        if len(self.periods) != len(self.dims):
            raise ExchangeConfigError("periods length must match dims")
        self.coords = self.rank_to_coords(rank)

    # ------------------------------------------------------------------
    def rank_to_coords(self, rank: int) -> Tuple[int, ...]:
        """Coordinates (axis 1 first, and fastest) of *rank*."""
        return unravel_index(rank, self.dims)
