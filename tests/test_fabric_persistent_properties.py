"""Property-based coverage of the bound fabric requests (hypothesis).

Random message plans -- any peers (self-sends included), any tags, zero
to 4096 byte messages, 1-4 partitions, bulk or phased steps, two
alternating handles per rank over the same edges -- must deliver every
payload into the right buffer, count one send and one receive per
message (partition) with the plan's bytes, and leave nothing queued.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.simmpi import SimFabric, partition_bounds, run_spmd  # noqa: E402


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
    partitions = draw(st.integers(min_value=1, max_value=4))
    phased = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    return nranks, messages, partitions, phased


@settings(max_examples=40, deadline=None)
@given(plan=plans())
def test_random_plans_deliver_count_and_drain(plan):
    nranks, messages, partitions, phased = plan
    rng = np.random.default_rng(len(messages) * 31 + partitions)
    payload = [
        [rng.integers(0, 256, size=n, dtype=np.uint8) for *_, n in messages]
        for _ in phased
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
                [(messages[m][0], messages[m][2], recv[m]) for m in mine_in],
                partitions,
            )
            handles.append((request, send, recv))
        for step, phase in enumerate(phased):
            request, send, recv = handles[step % 2]
            for m in mine_out:
                send[m][:] = payload[step][m]
            if phase:
                request.start()
                if rank % 2:  # odd ranks release last partitions first
                    counts = request.partitions
                    for i in reversed(range(len(mine_out))):
                        request.pready(i, counts[i] - 1)
                request.pready_all()
                request.complete()
            else:
                cut = request.bulk
                comm.fabric.post_send_batch(cut)
                comm.fabric.complete_recv_batch(cut)
                comm.fabric.wait_send_batch(cut)
            for m in mine_in:
                np.testing.assert_array_equal(recv[m], payload[step][m])

    fab = SimFabric(nranks, timeout=10.0)
    run_spmd(nranks, fn, fabric=fab)
    per_phased_step = sum(
        len(partition_bounds(n, partitions)) for *_, n in messages
    )
    expected_msgs = sum(
        per_phased_step if phase else len(messages) for phase in phased
    )
    expected_bytes = len(phased) * sum(n for *_, n in messages)
    total = fab.total_stats()
    assert total.sends == total.recvs == expected_msgs
    assert total.bytes_sent == total.bytes_received == expected_bytes
    assert fab.pending_messages == 0
