"""Communicators: point-to-point plus Cartesian topology.

Follows mpi4py's upper-case buffer interface: ``Isend``/``Irecv`` take
NumPy arrays (any shape, contiguous) and return :class:`SimRequest`
handles; ``Waitall`` completes a batch; ``Barrier`` synchronises; and
:class:`CartComm` adds the periodic rank grid the paper's experiments use
(a ``2^3`` cube for K1/V1, larger grids for strong scaling).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import TRACER as _TRACER
from repro.faults.errors import ExchangeConfigError
from repro.simmpi.fabric import SimFabric
from repro.simmpi.request import SimRequest
from repro.util.indexing import cart_neighbor, unravel_index

__all__ = ["SimComm", "CartComm"]


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
    def Isend(self, buf: np.ndarray, dest: int, tag: int = 0) -> SimRequest:
        entry = self.fabric.post_send(self.rank, dest, tag, buf)
        fabric = self.fabric
        return SimRequest(lambda: fabric.wait_send(entry), "send")

    def Irecv(self, buf: np.ndarray, source: int, tag: int = 0) -> SimRequest:
        if not isinstance(buf, np.ndarray):
            raise TypeError("Irecv needs a NumPy buffer to receive into")
        if not buf.flags.c_contiguous:
            raise ExchangeConfigError("receive buffers must be C-contiguous")
        fabric, rank = self.fabric, self.rank

        def complete() -> None:
            fabric.complete_recv(source, rank, tag, buf)

        return SimRequest(complete, "recv")

    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        self.Isend(buf, dest, tag).wait()

    def Recv(self, buf: np.ndarray, source: int, tag: int = 0) -> None:
        self.Irecv(buf, source, tag).wait()

    def Waitall(self, requests: Sequence[SimRequest]) -> None:
        with _TRACER.span("comm.waitall", rank=self.rank,
                          n=len(requests)):
            SimRequest.waitall(requests)

    def Barrier(self) -> None:
        self.fabric.barrier.wait()

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

    def coords_to_rank(self, coords: Sequence[int]) -> int:
        rank = 0
        stride = 1
        for c, d, p in zip(coords, self.dims, self.periods):
            c = int(c)
            if p:
                c %= d
            elif not 0 <= c < d:
                raise ExchangeConfigError(
                    f"coordinate {coords} outside non-periodic grid"
                )
            rank += c * stride
            stride *= d
        return rank

    def neighbor_rank(self, direction: Sequence[int]) -> Optional[int]:
        """Rank one step along *direction* (axis 1 first); None if off-grid."""
        if len(direction) != len(self.dims):
            raise ExchangeConfigError("direction dimensionality mismatch")
        return cart_neighbor(self.coords, self.dims, self.periods, direction)
