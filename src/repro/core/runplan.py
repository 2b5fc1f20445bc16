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
  :class:`~repro.core.metrics.RankMetrics` -- per step the modelled
  calc, per fired exchange the counts and the price of the
  :class:`~repro.exchange.base.ExchangeResult` the engine that fired
  was bound with, and the measured phases.  Nothing re-derives a
  schedule to account for a run.
* **Stamps, not spans**: one ``perf_counter`` stamp at each calc and
  send-wait boundary here, and at each pack, post and wait boundary in
  the channel (:attr:`~repro.exchange.base.ExchangeChannel.fires`), is
  what the ledger's ``measured`` calc / pack / call / wait add up, in
  every run.  Per step the loop appends one record of them to the
  tracer's stamp log, which keeps nothing unless a trace is on; when the
  loop ends the tracer rebuilds the ``driver.*``, ``exchange.*`` and
  bound ``fabric.*`` spans from them (:func:`step_spans`).  Traced and
  untraced runs step through the same code.
* **Step hooks**: features attach as optional callables that are
  ``None`` when the feature is off (see :class:`RankRunPlan`).  A
  trace's ``driver.*`` counters are the ledgers' sums
  (:func:`repro.obs.counters`).

Run plans hold per-rank mutable state (the stencil plans' scratch
buffers); build one per simulated rank, never share across threads.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from repro.core.metrics import RankMetrics
from repro.exchange.base import Exchanger, ExchangeResult, fire_spans
from repro.obs import TRACER as _TRACER

__all__ = ["RankRunPlan", "make_engines", "step_spans"]


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
        before step *t* touches buffer *src* (crash and death check,
        checkpoint-due save, degradation vote); may return
        rebuilt engines, installed once the current ones' sends
        completed.
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

    def run(self, start_step: int, timesteps: int, ledger: RankMetrics) -> int:
        """Replay steps ``[start_step, timesteps)``; returns the final
        source buffer index.

        Every step is charged to *ledger* as it completes, so a
        ``pre_step`` hook (the checkpoint save) reads current values: the
        modelled calc, the measured phases, and at an exchange step the
        counts and the modelled pack / call / wait / move of the engine
        that fired.  The replay always starts from buffer 0, which is
        also where a checkpoint resume restores into.
        """
        plans = self.plans
        bufs = self.buffers
        period = self.period
        calc_costs = self.calc_costs
        pre_step = self.pre_step
        around = self.around_exchange
        totals = ledger.totals
        measured = ledger.measured
        perf = time.perf_counter
        log = _TRACER.stamp_log()
        src, dst = 0, 1
        try:
            for t in range(start_step, timesteps):
                pos = t % period
                if pre_step is not None:
                    rebuilt = pre_step(t, src)
                    if rebuilt is not None:
                        self._complete_sends(log, measured)
                        self.engines = list(rebuilt)
                calc = calc_costs[pos]
                t0 = exchanged = perf()
                fires = None
                if pos == 0:
                    engine = self.engines[src]
                    fire = engine.exchange
                    res = around(t, fire) if around is not None else fire()
                    exchanged = perf()
                    fires = engine.fires
                    for (_names, f0, f1, _sent, packed, posted, _began,
                         received, _n, end) in fires:
                        if end is None:  # the receive raised: no unpack
                            end = received
                        measured.wait += (f1 - f0) + (received - posted)
                        measured.pack += (packed - f1) + (end - received)
                        measured.call += posted - packed
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
                waiting = perf()
                sent = self.engines[dst].wait_sends()
                calcs = perf()
                plans[pos].execute(bufs[src], bufs[dst])
                done = perf()
                measured.wait += calcs - waiting
                measured.calc += done - calcs
                totals.calc += calc
                ledger.timesteps += 1
                log.append((t, t0, exchanged, fires, waiting, sent, calcs, done))
                src, dst = dst, src
            self._complete_sends(log, measured)
        finally:
            _TRACER.replay(self.rank, step_spans(log, self.method))
        return src

    def _complete_sends(self, log, measured) -> None:
        """Complete every engine's sends (before installing rebuilt
        engines, and when the run returns), stamped as a wait."""
        perf = time.perf_counter
        for eng in self.engines:
            t0 = perf()
            sent = eng.wait_sends()
            t1 = perf()
            measured.wait += t1 - t0
            log.append((None, t0, sent, t1))


def step_spans(log, method: str):
    """The spans a run loop's stamp *log* stands for, in pre-order
    (:meth:`repro.obs.Tracer.replay`): per step ``driver.step`` with
    ``driver.exchange`` (its channel's :func:`fire_spans` inside), the
    send wait and ``driver.calc``; between steps, the send waits that
    completed the engines."""
    for record in log:
        if record[0] is None:
            _none, t0, sent, t1 = record
            if sent is not None:
                yield ("fabric.send_wait", 0, t0, t1, None, {"n": sent})
            continue
        t, t0, exchanged, fires, waiting, sent, calcs, done = record
        yield ("driver.step", 0, t0, done, t, {})
        if fires is not None:
            yield ("driver.exchange", 1, t0, exchanged, t, {"method": method})
            for fire in fires:
                yield from fire_spans(fire, 2)
        if sent is not None:
            yield ("fabric.send_wait", 1, waiting, calcs, None, {"n": sent})
        yield ("driver.calc", 1, calcs, done, t, {})
