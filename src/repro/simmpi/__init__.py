"""In-process MPI substitute (DESIGN.md Section 2).

No MPI implementation is available in this environment, so the exchange
engines run over this simulator: each rank is a Python thread executing the
same SPMD function, communicating through a shared :class:`SimFabric` that
matches messages by ``(source, dest, tag)`` and really copies NumPy
buffers.  Semantics follow mpi4py's buffer-protocol interface
(``Isend``/``Irecv``/``Waitall``/``Barrier``/Cartesian communicators) so
the exchange code reads like real MPI code.

Send completion is synchronous-mode (a send completes when the receiver
has copied the data); since all exchangers post every receive before any
send, this is deadlock-free and makes buffer reuse safe without an extra
copy -- matching the zero-copy claim being reproduced.
"""

from repro.simmpi.collectives import allgather, allreduce, broadcast, reduce_to_root
from repro.simmpi.comm import CartComm, SimComm
from repro.simmpi.datatypes import ContiguousType, SubarrayType, VectorType
from repro.simmpi.fabric import (
    AbortedError,
    DeadlockError,
    ExchangeConfigError,
    ExchangeIntegrityError,
    ExchangeTimeoutError,
    FabricStats,
    ProtocolError,
    RankDeadError,
    SimFabric,
    SplitMismatchError,
)
from repro.simmpi.launcher import run_spmd
from repro.simmpi.request import SimRequest

__all__ = [
    "AbortedError",
    "CartComm",
    "ContiguousType",
    "DeadlockError",
    "ExchangeIntegrityError",
    "ExchangeTimeoutError",
    "FabricStats",
    "RankDeadError",
    "ExchangeConfigError",
    "ProtocolError",
    "SplitMismatchError",
    "SimComm",
    "SimFabric",
    "SimRequest",
    "SubarrayType",
    "VectorType",
    "allgather",
    "allreduce",
    "broadcast",
    "reduce_to_root",
    "run_spmd",
]
