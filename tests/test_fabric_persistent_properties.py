"""Property-based coverage of the bound fabric requests (hypothesis).

Random message plans -- any peers (self-sends included), any tags, zero
to 4096 byte messages, one to three steps, two alternating handles per
rank over the same edges -- must deliver every payload into the right
buffer, count one send and one receive per message with the plan's
bytes, and leave nothing queued: on
a plain fabric, on a verified one, and on a verified one whose drawn
:class:`FaultPlan` drops, corrupts, duplicates and delays items while
every rank heals by re-firing inside its epoch.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.faults import FaultError, FaultInjector, FaultPlan  # noqa: E402
from repro.simmpi import SimFabric, run_spmd  # noqa: E402
from tests.conftest import wire_copy


@st.composite
def plans(draw):
    nranks = draw(st.integers(min_value=2, max_value=4))
    rank = st.integers(min_value=0, max_value=nranks - 1)
    edges = draw(
        st.lists(
            st.tuples(rank, rank, st.integers(min_value=0, max_value=40)),
            min_size=1, max_size=10, unique=True,
        )
    )
    size = st.one_of(
        st.sampled_from([0, 1, 7, 4096]),
        st.integers(min_value=0, max_value=4096),
    )
    messages = [(src, dst, tag, draw(size)) for src, dst, tag in edges]
    steps = draw(st.integers(min_value=1, max_value=3))
    return nranks, messages, steps


#: None: plain fabric.  Else the injector's plan (a fault-free plan is
#: verify_wire: sealed and verified, nothing injected).
fault_plans = st.one_of(
    st.none(),
    st.builds(
        FaultPlan,
        seed=st.integers(min_value=0, max_value=2**16),
        drop=st.sampled_from([0.0, 0.2]),
        corrupt=st.sampled_from([0.0, 0.2]),
        duplicate=st.sampled_from([0.0, 0.2]),
        delay=st.sampled_from([0.0, 0.1]),
        delay_s=st.just(1e-4),
    ),
)


def _healed(fire, max_retries=4):
    """Re-fire *fire* inside the open epoch until it stops detecting
    faults; one retry heals a cut, the margin is for nothing."""
    for _ in range(max_retries):
        try:
            return fire()
        except FaultError:
            continue
    return fire()


@settings(max_examples=60, deadline=None)
@given(plan=plans(), faults=fault_plans)
def test_random_plans_deliver_count_and_drain(plan, faults):
    nranks, messages, steps = plan
    rng = np.random.default_rng(len(messages) * 31 + steps)
    payload = [
        [rng.integers(0, 256, size=n, dtype=np.uint8) for *_, n in messages]
        for _ in range(steps)
    ]

    def fn(comm):
        rank = comm.rank
        mine_out = [m for m, msg in enumerate(messages) if msg[0] == rank]
        mine_in = [m for m, msg in enumerate(messages) if msg[1] == rank]
        handles = []
        for _ in range(2):  # the ping-pong pair: same edges, own buffers
            send = {m: np.zeros(messages[m][3], np.uint8) for m in mine_out}
            recv = {m: np.full(messages[m][3], 255, np.uint8) for m in mine_in}
            request = comm.fabric.bind_request(
                rank,
                [(messages[m][1], messages[m][2], send[m]) for m in mine_out],
                [(messages[m][0], messages[m][2], recv[m]) for m in mine_in], wire_copy,
            )
            handles.append((request, send, recv))
        for step in range(steps):
            cut, send, recv = handles[step % 2]
            for m in mine_out:
                send[m][:] = payload[step][m]
            comm.set_epoch(step)

            def fire():
                comm.fabric.post_send_batch(cut)
                comm.fabric.complete_recv_batch(cut)
                comm.fabric.wait_send_batch(cut)

            _healed(fire)
            comm.set_epoch(None)
            for m in mine_in:
                np.testing.assert_array_equal(recv[m], payload[step][m])

    fab = SimFabric(nranks, timeout=10.0)
    injector = None
    if faults is not None:
        injector = FaultInjector(faults)
        fab.enable_envelope(injector)
    run_spmd(nranks, fn, fabric=fab)
    expected_msgs = steps * len(messages)
    expected_bytes = steps * sum(n for *_, n in messages)
    total = fab.total_stats()
    assert total.sends == total.recvs == expected_msgs
    assert total.bytes_sent == total.bytes_received == expected_bytes
    assert fab.pending_messages == 0
    if injector is not None:
        events = injector.event_counts()
        assert events.get("duplicate_discarded", 0) == events.get(
            "injected_duplicate", 0
        )
        # Every drop is retransmitted once, and every corruption that
        # had a bit to flip (an empty payload has none).
        drops = events.get("injected_drop", 0)
        corrupts = events.get("injected_corrupt", 0)
        assert drops <= events.get("retransmit", 0) <= drops + corrupts
