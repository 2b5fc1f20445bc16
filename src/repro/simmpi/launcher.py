"""SPMD launcher: run one function on N simulated ranks.

Each rank runs in its own thread (the GIL is irrelevant to correctness;
NumPy copies release it anyway).  The ranks are declared live on the
fabric before any starts, and each is retired when its function returns
or raises, so the fabric sees a deadlock the moment every live rank is
blocked (:mod:`repro.simmpi.fabric`).  If any rank raises, the fabric is
aborted -- before the rank retires -- so blocked peers fail fast, and
the lowest rank's root-cause exception is re-raised in the caller.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional

from repro.faults.errors import ExchangeConfigError
from repro.simmpi.comm import SimComm
from repro.simmpi.fabric import AbortedError, SimFabric

__all__ = ["run_spmd", "RankFailedError"]


class RankFailedError(RuntimeError):
    """One SPMD rank raised; the root cause is ``__cause__``.

    Kept a ``RuntimeError`` subclass: the elastic/restart drivers catch
    the launcher's wrapper as ``RuntimeError`` and classify on the
    chained cause (e.g. :class:`~repro.faults.errors.RankDeadError`).
    """


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    fabric: Optional[SimFabric] = None,
    **kwargs: Any,
) -> List[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on every rank; return results.

    The returned list is indexed by rank.  *fabric* may be supplied to
    inspect statistics afterwards.
    """
    if nranks <= 0:
        raise ExchangeConfigError("nranks must be positive")
    fab = fabric or SimFabric(nranks)
    if fab.nranks != nranks:
        raise ExchangeConfigError("supplied fabric has the wrong size")
    results: List[Any] = [None] * nranks
    errors: List[Optional[BaseException]] = [None] * nranks

    def worker(rank: int) -> None:
        comm = SimComm(fab, rank)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            errors[rank] = exc
            fab.abort()
        finally:
            fab.retire()

    threads = [
        threading.Thread(target=worker, args=(r,), name=f"simmpi-rank-{r}")
        for r in range(nranks)
    ]
    fab.declare_live(nranks)
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Prefer the root cause: a rank's own exception, not the secondary
    # AbortedError fallout other ranks see once the fabric dies.
    primary = [
        (rank, err)
        for rank, err in enumerate(errors)
        if err is not None and not isinstance(err, AbortedError)
    ]
    secondary = [
        (rank, err) for rank, err in enumerate(errors) if err is not None
    ]
    # Each error's traceback holds its worker frame, whose closure holds
    # ``errors``: emptying it breaks the cycle, so the rank frames (and
    # their buffers) die with the raised error, not at a collector pass.
    del errors[:]
    for rank, err in primary or secondary:
        raise RankFailedError(f"rank {rank} failed: {err!r}") from err
    return results
