"""In-process MPI substitute (DESIGN.md Section 2).

No MPI implementation is available in this environment, so the exchange
engines run over this simulator: each rank is a Python thread executing the
same SPMD function, communicating through a shared :class:`SimFabric` that
really copies NumPy buffers.  Halo exchanges fire persistent bound cuts
(:meth:`SimFabric.bind_request`: the whole message plan bound once,
re-fired each step); the collectives ride the per-message path, matched
by ``(source, dest, tag)`` behind mpi4py's blocking buffer calls
(``Send``/``Recv``/``Barrier``/Cartesian communicators).

Send completion is synchronous-mode (a send completes when the receiver
has copied the data): a cut posts every send before it waits on any
receive, and the collectives' trees pair each ``Send`` with a waiting
``Recv``, so this is deadlock-free and makes buffer reuse safe without an extra copy --
matching the zero-copy claim being reproduced.
"""

from repro.simmpi.collectives import allreduce, broadcast, reduce_to_root
from repro.simmpi.comm import CartComm, SimComm
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

__all__ = [
    "AbortedError",
    "CartComm",
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
    "allreduce",
    "broadcast",
    "reduce_to_root",
    "run_spmd",
]
