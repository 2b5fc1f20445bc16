"""Simulated MPI: fabric, communicators, launcher."""

import numpy as np
import pytest

from repro.simmpi import SimFabric, run_spmd
from repro.simmpi.comm import CartComm, SimComm


class TestPointToPoint:
    def test_ring(self):
        def ring(comm):
            n = comm.size
            data = np.full(8, float(comm.rank))
            out = np.empty(8)
            reqs = [
                comm.Irecv(out, (comm.rank - 1) % n, tag=1),
                comm.Isend(data, (comm.rank + 1) % n, tag=1),
            ]
            comm.Waitall(reqs)
            return out[0]

        res = run_spmd(4, ring)
        assert res == [3.0, 0.0, 1.0, 2.0]

    def test_tags_disambiguate(self):
        def fn(comm):
            if comm.rank == 0:
                comm.Isend(np.array([1.0]), 1, tag=5)
                comm.Isend(np.array([2.0]), 1, tag=6)
                return None
            a, b = np.empty(1), np.empty(1)
            # receive in reverse tag order
            rb = comm.Irecv(b, 0, tag=6)
            ra = comm.Irecv(a, 0, tag=5)
            comm.Waitall([rb, ra])
            return (a[0], b[0])

        res = run_spmd(2, fn)
        assert res[1] == (1.0, 2.0)

    def test_message_order_preserved_same_tag(self):
        def fn(comm):
            if comm.rank == 0:
                for v in (1.0, 2.0, 3.0):
                    comm.Send(np.array([v]), 1, tag=0)
                return None
            got = []
            for _ in range(3):
                buf = np.empty(1)
                comm.Recv(buf, 0, tag=0)
                got.append(buf[0])
            return got

        assert run_spmd(2, fn)[1] == [1.0, 2.0, 3.0]

    def test_dtype_preserved_via_bytes(self):
        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.arange(4, dtype=np.int32), 1, tag=0)
                return None
            buf = np.empty(4, dtype=np.int32)
            comm.Recv(buf, 0, tag=0)
            return buf.tolist()

        assert run_spmd(2, fn)[1] == [0, 1, 2, 3]

    def test_size_mismatch_raises(self):
        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.empty(4), 1, tag=0)
            else:
                buf = np.empty(8)
                comm.Recv(buf, 0, tag=0)

        with pytest.raises(RuntimeError):
            run_spmd(2, fn)

    def test_stats(self):
        fab = SimFabric(2)

        def fn(comm):
            if comm.rank == 0:
                comm.Send(np.empty(16), 1, tag=0)
            else:
                comm.Recv(np.empty(16), 0, tag=0)

        run_spmd(2, fn, fabric=fab)
        assert fab.stats[0].sends == 1
        assert fab.stats[0].bytes_sent == 128
        assert fab.stats[1].recvs == 1
        assert fab.total_stats().bytes_received == 128


class TestBarrierAndErrors:
    def test_barrier_synchronises(self):
        order = []

        def fn(comm):
            if comm.rank == 0:
                import time

                time.sleep(0.02)
            comm.Barrier()
            order.append(comm.rank)

        run_spmd(3, fn)
        assert len(order) == 3

    def test_rank_exception_propagates(self):
        def fn(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.Barrier()

        with pytest.raises(RuntimeError, match="rank 1"):
            run_spmd(2, fn)

    def test_invalid_rank_checked(self):
        def fn(comm):
            comm.Send(np.empty(1), 99, tag=0)

        with pytest.raises(RuntimeError):
            run_spmd(2, fn)


class TestCartesian:
    def test_coords_roundtrip(self):
        def fn(comm):
            cart = comm.Create_cart((2, 2, 2))
            return cart.coords_to_rank(cart.coords) == comm.rank

        assert all(run_spmd(8, fn))

    def test_axis1_fastest(self):
        def fn(comm):
            cart = comm.Create_cart((4, 2))
            return cart.coords

        res = run_spmd(8, fn)
        assert res[0] == (0, 0)
        assert res[1] == (1, 0)
        assert res[4] == (0, 1)

    def test_periodic_wrap(self):
        def fn(comm):
            cart = comm.Create_cart((2, 2, 2))
            return cart.neighbor_rank((-1, 0, 0))

        res = run_spmd(8, fn)
        assert res[0] == 1  # wraps

    def test_nonperiodic_edge(self):
        def fn(comm):
            cart = comm.Create_cart((2,), periods=[False])
            return cart.neighbor_rank((-1,))

        assert run_spmd(2, fn)[0] is None

    def test_wrong_total(self):
        def fn(comm):
            comm.Create_cart((3, 3))

        with pytest.raises(RuntimeError):
            run_spmd(8, fn)


class TestValidation:
    def test_fabric_size(self):
        with pytest.raises(ValueError):
            SimFabric(0)

    def test_comm_rank_bounds(self):
        fab = SimFabric(2)
        with pytest.raises(ValueError):
            SimComm(fab, 5)

    def test_recv_requires_ndarray(self):
        fab = SimFabric(1)
        comm = SimComm(fab, 0)
        with pytest.raises(TypeError):
            comm.Irecv([1, 2, 3], 0, 0)

    def test_recv_requires_contiguous(self):
        fab = SimFabric(1)
        comm = SimComm(fab, 0)
        arr = np.empty((4, 4))[:, ::2]
        with pytest.raises(ValueError):
            comm.Irecv(arr, 0, 0)


class TestPartitionedChannels:
    """The partitioned epoch of a bound request (the MPI-4 analogue)."""

    def _pair(self, n=64, partitions=4, timeout=None):
        fab = SimFabric(2, timeout=timeout)
        src = np.arange(n, dtype=np.float64)
        dst = np.zeros(n, dtype=np.float64)
        psend = fab.bind_request(0, [(1, 3, src)], [], partitions)
        precv = fab.bind_request(1, [], [(0, 3, dst)], partitions)
        return fab, src, dst, psend, precv

    @staticmethod
    def _epoch(psend, precv):
        precv.start()
        psend.start()
        psend.pready_all()
        precv.complete()
        psend.complete()

    def test_roundtrip_pready_all(self):
        fab, src, dst, psend, precv = self._pair()
        self._epoch(psend, precv)
        np.testing.assert_array_equal(dst, src)
        assert fab.stats[0].sends == fab.stats[1].recvs == 4
        assert fab.stats[0].bytes_sent == fab.stats[1].bytes_received == 512
        assert fab.pending_messages == 0

    def test_partitions_released_independently(self):
        # Partitions marked ready out of order still land in the right
        # sub-views; parrived flips per-partition as bytes hit the wire.
        _fab, src, dst, psend, precv = self._pair(partitions=4)
        precv.start()
        psend.start()
        assert not precv.parrived(0, 2)
        psend.pready(0, 2)
        assert precv.parrived(0, 2)
        assert not precv.parrived(0, 0)
        psend.pready(0, 0)
        psend.pready(0, 1)
        psend.pready(0, 3)
        precv.complete()
        psend.complete()
        np.testing.assert_array_equal(dst, src)

    def test_missing_partition_blocks_completion(self):
        # The overlap guarantee: a receive epoch must NOT complete until
        # every partition was marked ready -- a dropped surface message
        # cannot let the surface sweep run early.
        from repro.simmpi import DeadlockError
        from repro.simmpi.fabric import partition_tag

        _fab, _src, dst, psend, precv = self._pair(timeout=0.2)
        precv.start()
        psend.start()
        psend.pready(0, 0)
        psend.pready(0, 1)
        psend.pready(0, 3)  # partition 2 never released
        with pytest.raises(DeadlockError, match=f"tag={partition_tag(3, 2)}"):
            precv.complete()
        assert not dst.any()  # nothing delivered early either

    def test_epoch_ordering_enforced(self):
        _fab, _src, _dst, psend, precv = self._pair()
        with pytest.raises(RuntimeError, match="before start"):
            psend.pready(0, 0)
        with pytest.raises(RuntimeError, match="before start"):
            psend.complete()
        with pytest.raises(RuntimeError, match="before start"):
            precv.parrived(0, 0)
        psend.start()
        with pytest.raises(RuntimeError, match="already started"):
            psend.start()
        psend.pready(0, 0)
        with pytest.raises(RuntimeError, match="already marked ready"):
            psend.pready(0, 0)
        psend.pready_all()  # releases the other three exactly once
        with pytest.raises(RuntimeError, match="already marked ready"):
            psend.pready(0, 1)
        assert _fab.pending_messages == 4

    def test_restartable_epochs(self):
        _fab, src, dst, psend, precv = self._pair(partitions=3)
        for step in range(3):
            src[:] = step
            self._epoch(psend, precv)
            np.testing.assert_array_equal(dst, src)

    def test_partition_views_cover_uneven_sizes(self):
        # 80 bytes over 4 partitions: equal byte splits computed the
        # same way on both ends, never empty unless the buffer is.
        _fab, src, dst, psend, precv = self._pair(n=10, partitions=4)
        assert psend.partitions == [4]
        assert precv.partitions == [4]
        self._epoch(psend, precv)
        np.testing.assert_array_equal(dst, src)

    def test_partition_tag_disjoint_from_plain_tags(self):
        from repro.simmpi.fabric import partition_tag

        tags = {partition_tag(t, p) for t in (0, 7, 1023) for p in range(4)}
        assert len(tags) == 12
        assert all(t >= 1 << 20 for t in tags)
        with pytest.raises(ValueError):
            partition_tag(1 << 20, 0)
        with pytest.raises(ValueError):
            partition_tag(-1, 0)
        with pytest.raises(ValueError):
            partition_tag(0, -1)

    def test_verified_fabric_refuses_partitioned(self):
        # ... requests only when the two ends disagree on the split, at
        # negotiation, like a plain fabric; a matching one it carries,
        # every partition an edge of its own with its own sequence.
        from repro.simmpi import SplitMismatchError, partition_tag

        fab = SimFabric(2, timeout=5.0)
        fab.enable_envelope()
        data, out = np.arange(8.0), np.zeros(8)
        sender = fab.bind_request(0, [(1, 3, data)], [], 2)
        with pytest.raises(SplitMismatchError, match="split disagreement"):
            fab.bind_request(1, [], [(0, 3, out)], 4)
        receiver = fab.bind_request(1, [], [(0, 3, out)], 2)
        for step in (1, 2):
            data += 1.0
            sender.start()
            receiver.start()
            sender.pready(0, 1)
            assert receiver.parrived(0, 1) and not receiver.parrived(0, 0)
            sender.pready_all()
            receiver.complete()
            sender.complete()
            np.testing.assert_array_equal(out, data)
            assert [
                fab._guard.delivered[(0, 1, partition_tag(3, p))][0]
                for p in (0, 1)
            ] == [step, step]
        assert fab.pending_messages == 0
