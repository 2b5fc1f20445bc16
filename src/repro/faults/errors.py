"""Typed failure taxonomy for the chaos fabric.

Every fault the subsystem can inject -- and every fault the envelope
layer can *detect* -- surfaces as one of these exception types, so
callers (the driver's retry path, the chaos soak classifier, tests) can
tell detected corruption apart from ordinary bugs.  A fault that escapes
as a plain ``RuntimeError`` counts as *undetected* in the chaos report.
"""

from __future__ import annotations

__all__ = [
    "FaultError",
    "ExchangeIntegrityError",
    "ExchangeTimeoutError",
    "InjectedCrashError",
    "RankDeadError",
    "ProtocolError",
    "SplitMismatchError",
    "ExchangeConfigError",
]


class FaultError(RuntimeError):
    """Base of all detected-fault exceptions."""


class ProtocolError(RuntimeError):
    """The fabric/channel call protocol was violated by the caller.

    Covers arrivals a bound request does not expect: an item no bound
    receive matches, or a peer that posted its request again before the
    previous epoch was consumed.  These are caller bugs, not injected or
    detected faults, so this deliberately
    does *not* derive from :class:`FaultError` -- a ``ProtocolError``
    must never be classified as a detected fault by the chaos report.
    """


class SplitMismatchError(ProtocolError, ValueError):
    """The two endpoints of a message disagree on its byte count.

    Raised at *negotiation* time (channel construction, i.e.
    ``SimFabric.bind_request``) when the sender and receiver register
    different byte counts for the same ``(src, dst, tag)`` edge -- the
    static schedule verifier (:mod:`repro.check`) compares the same
    counts (its ``byte-mismatch`` finding), so a run admitted by
    ``repro check`` can never raise this.  Also a
    ``ValueError`` so pre-existing handlers of the fabric's message
    size-mismatch guard keep working.
    """


class ExchangeConfigError(ValueError):
    """Invalid configuration of an exchanger, channel, or fabric.

    The typed form of the argument-validation errors across
    :mod:`repro.simmpi` and :mod:`repro.exchange`.  Subclasses
    ``ValueError`` so blanket config handlers -- notably the
    degradation ladder's ``(OSError, ValueError)`` net -- keep
    working unchanged.
    """


class ExchangeIntegrityError(FaultError):
    """A received message failed envelope validation (checksum or
    sequence number).  The fabric has already queued a pristine
    retransmit, so a bounded retry of the exchange heals this."""


class ExchangeTimeoutError(FaultError):
    """An expected message was lost on the wire (detected via the
    envelope sequence numbers).  As with integrity failures, a
    retransmit is queued before this is raised; retrying heals it."""


class InjectedCrashError(FaultError):
    """A scheduled rank crash from a :class:`~repro.faults.FaultPlan`.

    Raised *by the crashing rank*; peers blocked in the fabric --
    receives, send waits and the barrier alike -- observe the abort
    fan-out (``AbortedError``) and the launcher reports this as the root
    cause."""


class RankDeadError(FaultError):
    """A rank is *permanently* dead (node loss), not merely crashed.

    Unlike :class:`InjectedCrashError` -- which the checkpoint/restart
    driver survives by relaunching the *same* world -- a dead rank never
    comes back: the fabric's liveness state (``SimFabric.mark_dead``)
    makes every send/recv touching the dead rank raise this immediately.
    Recovery requires *elastic* restart: the survivors negotiate a
    snapshot epoch, agree on a shrunken decomposition avoiding the lost
    node, and re-brick (:mod:`repro.elastic`)."""
