"""Run plans: the one executed timestep loop, set up once and replayed.

Every executed run -- plain, traced, checkpointed, enveloped, fault
injected, degrading -- steps time in exactly one place,
:meth:`RankRunPlan.run`.  The shape is that of persistent MPI requests:
everything a step needs is negotiated and compiled per run, and the loop
only restarts it.

* **Exchange engines** (:func:`make_engines`): each exchanger's bound
  message plan as its channel -- ``(peer, tag, buffer)`` tuples over
  persistent buffers, bound to the fabric once as one persistent request
  and re-fired every step, on a plain and on a verified fabric alike:
  an :class:`~repro.exchange.base.ExchangeChannel`, with
  ``exchange() -> ExchangeResult`` and ``wait_sends()``.
* **A rank run plan** (:class:`RankRunPlan`) binds, per cycle position,
  the engine and the compiled stencil plan to the two double-buffer
  slots.  One step is: one engine fire, one plan execution, one flip.
* **Where a send completes**: an engine's sends are still in flight
  when its exchange returns.  The loop completes the sends of slot *X*
  (``engines[X].wait_sends()``) before any sweep writes slot *X*, before
  it installs rebuilt engines, and when it returns; an engine completes
  its own previous epoch before it packs and posts again.  With an
  exchange every step the wait before the sweep is already satisfied --
  the receive that just completed waited for every neighbour's next
  post, and a neighbour posts again only after it consumed this rank's
  items -- so a rank blocks once per step, in its receive.  With
  ``exchange_period`` > 1 the step after an exchange writes the slot it
  just sent from with no receive in between, and that wait really
  blocks.
* **One ledger**: the loop is the only writer of the rank's
  :class:`~repro.core.metrics.RankMetrics` -- per step the modelled and
  measured calc, per fired exchange the counts and the price of the
  :class:`~repro.exchange.base.ExchangeResult` the engine that fired
  was bound with.  Nothing re-derives a schedule to account for a run.
* **Step hooks**: features attach as optional callables that are
  ``None`` when the feature is off (see :class:`RankRunPlan`).  Tracing
  rides the same loop through the process-wide tracer, whose disabled
  spans are a shared no-op; a trace's ``driver.*`` counters are the
  ledgers' sums (:func:`repro.obs.counters`).

Run plans hold per-rank mutable state (the stencil plans' scratch
buffers); build one per simulated rank, never share across threads.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from repro.core.metrics import RankMetrics
from repro.exchange.base import Exchanger, ExchangeResult
from repro.obs import TRACER as _TRACER

__all__ = ["RankRunPlan", "make_engines"]


def make_engines(exchangers: Sequence[Exchanger]) -> list:
    """The per-buffer exchange engines a run fires each exchange step:
    each exchanger's channel."""
    return [ex.make_channel() for ex in exchangers]


class RankRunPlan:
    """Compiled per-rank program for one executed run.

    ``engines[i]`` is the exchange engine bound to double-buffer slot
    ``i`` (fired at cycle position 0 of whichever buffer is current);
    ``plans[pos]`` is the stencil plan for cycle position *pos*;
    ``buffers`` are the two storage/array operands the plans read and
    write.  *rank* and *method* label the ``driver.*`` spans and
    counters.  ``calc_costs[pos]`` is the modelled kernel time of cycle
    position *pos*, and *hides_wait* says the method's own model hides
    wire wait behind the whole kernel (``yask_ol``): what the ledger is
    charged per step beside the fired exchange's price.

    The hook attributes are set by the driver after construction:

    ``pre_step(t, src)``
        before step *t* touches buffer *src* (heartbeat and crash
        check, checkpoint-due save, degradation vote); may return
        rebuilt engines, installed via :meth:`set_engines`.
    ``around_exchange(t, fire)``
        runs the exchange by calling ``fire()``, possibly repeatedly
        (envelope epoch, retry-with-backoff); returns its
        :class:`ExchangeResult`.
    """

    __slots__ = ("engines", "plans", "buffers", "period", "rank", "method",
                 "calc_costs", "hides_wait", "pre_step", "around_exchange")

    def __init__(
        self,
        engines: Sequence,
        plans: Sequence,
        buffers: Sequence,
        period: int,
        rank: Optional[int] = None,
        method: str = "",
        calc_costs: Optional[Sequence[float]] = None,
        hides_wait: bool = False,
    ) -> None:
        if len(engines) != len(buffers):
            raise ValueError("one exchange engine per double-buffer slot")
        if len(plans) != period:
            raise ValueError("one stencil plan per cycle position")
        self.engines = list(engines)
        self.plans = list(plans)
        self.buffers = list(buffers)
        self.period = int(period)
        self.rank = rank
        self.method = method
        self.calc_costs = (
            list(calc_costs) if calc_costs is not None else [0.0] * self.period
        )
        self.hides_wait = hides_wait
        self.pre_step: Optional[Callable[[int, int], Optional[Sequence]]] = None
        self.around_exchange: Optional[
            Callable[[int, Callable[[], ExchangeResult]], ExchangeResult]
        ] = None

    def set_engines(self, engines: Sequence) -> None:
        """Install rebuilt engines once the current ones' sends completed."""
        for eng in self.engines:
            eng.wait_sends()
        self.engines = list(engines)

    def run(self, start_step: int, timesteps: int, ledger: RankMetrics) -> int:
        """Replay steps ``[start_step, timesteps)``; returns the final
        source buffer index.

        Every step is charged to *ledger* as it completes, so a
        ``pre_step`` hook (the checkpoint save) reads current values: the
        modelled and measured calc, and at an exchange step the counts
        and the modelled pack / call / wait / move of the engine that
        fired.  The replay always starts from buffer 0, which is also
        where a checkpoint resume restores into.
        """
        plans = self.plans
        bufs = self.buffers
        period = self.period
        rank = self.rank
        method = self.method
        calc_costs = self.calc_costs
        pre_step = self.pre_step
        around = self.around_exchange
        totals = ledger.totals
        measured = ledger.measured
        span = _TRACER.span
        perf = time.perf_counter
        src, dst = 0, 1
        for t in range(start_step, timesteps):
            pos = t % period
            if pre_step is not None:
                rebuilt = pre_step(t, src)
                if rebuilt is not None:
                    self.set_engines(rebuilt)
            with span("driver.step", rank=rank, step=t):
                calc = calc_costs[pos]
                if pos == 0:
                    fire = self.engines[src].exchange
                    with span("driver.exchange", rank=rank, step=t,
                              method=method):
                        res = around(t, fire) if around is not None else fire()
                    # Charge what fired: its counts and its price.
                    price = res.breakdown
                    calc += res.first_touch
                    wait = price.wait
                    if self.hides_wait:
                        wait = max(0.0, wait - calc)
                    totals.pack += price.pack
                    totals.call += price.call
                    totals.wait += wait
                    totals.move += price.move
                    ledger.exchanges += 1
                    ledger.messages += res.messages_sent
                    ledger.wire_bytes += res.wire_bytes_sent
                    ledger.payload_bytes += res.payload_bytes_sent
                self.engines[dst].wait_sends()
                with span("driver.calc", rank=rank, step=t):
                    t0 = perf()
                    plans[pos].execute(bufs[src], bufs[dst])
                    measured.calc += perf() - t0
                totals.calc += calc
                ledger.timesteps += 1
            src, dst = dst, src
        for eng in self.engines:
            eng.wait_sends()
        return src

