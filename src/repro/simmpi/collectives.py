"""Collective operations over the simulated fabric.

Krylov-subspace solvers -- the other application family the paper's
introduction names -- interleave ghost-zone exchanges with reductions
(dot products, norms).  These collectives are implemented on top of the
fabric's point-to-point layer using classic recursive-doubling /
hypercube algorithms, so they work for any rank count (non-powers of two
fall back to a gather-at-root + broadcast tree).

All operate on NumPy arrays (buffer semantics, like the upper-case
mpi4py calls).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.simmpi.comm import SimComm

__all__ = ["allreduce", "reduce_to_root", "broadcast", "allgather"]

_TAG_BASE = 1 << 20  # clear of the exchange tag space


def reduce_to_root(
    comm: SimComm,
    value: np.ndarray,
    op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.add,
    root: int = 0,
) -> Optional[np.ndarray]:
    """Binary-tree reduction; returns the result on *root*, None elsewhere."""
    value = np.array(value, copy=True)
    size, rank = comm.size, comm.rank
    rel = (rank - root) % size
    step = 1
    while step < size:
        if rel % (2 * step) == 0:
            partner = rel + step
            if partner < size:
                buf = np.empty_like(value)
                comm.Recv(buf, (partner + root) % size, _TAG_BASE + step)
                value = op(value, buf)
        elif rel % step == 0:
            comm.Send(value, (rel - step + root) % size, _TAG_BASE + step)
            return None
        step *= 2
    return value if rank == root else None


def broadcast(comm: SimComm, value: np.ndarray, root: int = 0) -> np.ndarray:
    """Binary-tree broadcast of *value* from *root*; returns it everywhere."""
    size, rank = comm.size, comm.rank
    rel = (rank - root) % size
    buf = np.array(value, copy=True)
    # highest power of two <= size
    top = 1
    while top * 2 <= size:
        top *= 2
    step = top
    while step >= 1:
        if rel % (2 * step) == 0:
            partner = rel + step
            if partner < size:
                comm.Send(buf, (partner + root) % size, _TAG_BASE * 2 + step)
        elif rel % step == 0:
            comm.Recv(buf, (rel - step + root) % size, _TAG_BASE * 2 + step)
        step //= 2
    return buf


def allreduce(
    comm: SimComm,
    value: np.ndarray,
    op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.add,
) -> np.ndarray:
    """Reduce-then-broadcast allreduce (deterministic reduction order)."""
    reduced = reduce_to_root(comm, np.asarray(value), op, root=0)
    if comm.rank == 0:
        result = reduced
    else:
        result = np.empty_like(np.asarray(value))
    return broadcast(comm, result, root=0)


def allgather(comm: SimComm, value: np.ndarray) -> np.ndarray:
    """Gather equal-size contributions from every rank, on every rank.

    Returns an array of shape ``(size,) + value.shape``.
    """
    value = np.asarray(value)
    size, rank = comm.size, comm.rank
    out = np.empty((size,) + value.shape, dtype=value.dtype)
    out[rank] = value
    # Ring algorithm: size-1 steps, each forwarding the newest block.
    right = (rank + 1) % size
    left = (rank - 1) % size
    for step in range(size - 1):
        src_block = (rank - step) % size
        reqs = [
            comm.Irecv(out[(rank - step - 1) % size], left, _TAG_BASE * 3 + step),
            comm.Isend(np.ascontiguousarray(out[src_block]), right,
                       _TAG_BASE * 3 + step),
        ]
        comm.Waitall(reqs)
    return out
