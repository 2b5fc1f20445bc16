"""Nonblocking request objects (mpi4py-style)."""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.faults.errors import ExchangeConfigError

__all__ = ["SimRequest"]


class SimRequest:
    """Handle for one nonblocking operation.

    A *send* request completes when the matching receive has copied the
    data (synchronous-mode semantics); its ``wait`` returns at once if
    the fabric entry is already marked done and otherwise blocks on the
    sending rank's port until the receiver marks it.  A *recv* request
    performs the blocking match-and-copy inside ``wait`` (receives are
    lazy: posting only records intent).  Neither owns an event or a
    lock: all blocking happens in the fabric's one wait.
    """

    def __init__(self, complete: Callable[[], None], kind: str) -> None:
        if kind not in ("send", "recv"):
            raise ExchangeConfigError(
                f"kind must be 'send' or 'recv', got {kind!r}"
            )
        self._complete = complete
        self.kind = kind
        self.done = False

    def wait(self) -> None:
        """Block until the operation has completed."""
        if not self.done:
            self._complete()
            self.done = True

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"<SimRequest {self.kind} {state}>"

    @staticmethod
    def waitall(requests: Iterable["SimRequest"]) -> None:
        """Complete a batch.

        Receives are drained first: they perform the actual data movement
        and thereby release the senders, so completing them first cannot
        deadlock as long as every rank posts its receives before waiting.
        """
        reqs = list(requests)
        for r in reqs:
            if r.kind == "recv":
                r.wait()
        for r in reqs:
            if r.kind == "send":
                r.wait()
