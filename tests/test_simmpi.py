"""Simulated MPI: fabric, communicators, launcher."""

import numpy as np
import pytest

from repro.simmpi import SimFabric, run_spmd
from repro.simmpi.comm import SimComm


class TestPointToPoint:
    def test_tags_disambiguate(self):
        def fn(comm):
            fabric = comm.fabric
            if comm.rank == 0:
                sent = [fabric.post_send(0, 1, tag, np.array([v]))
                        for tag, v in ((5, 1.0), (6, 2.0))]
                for entry in sent:
                    fabric.wait_send(entry)
                return None
            a, b = np.empty(1), np.empty(1)
            # receive in reverse tag order
            comm.Recv(b, 0, tag=6)
            comm.Recv(a, 0, tag=5)
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
    def test_axis1_fastest(self):
        def fn(comm):
            cart = comm.Create_cart((4, 2))
            return cart.coords

        res = run_spmd(8, fn)
        assert res[0] == (0, 0)
        assert res[1] == (1, 0)
        assert res[4] == (0, 1)

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
            comm.Recv([1, 2, 3], 0, 0)

    def test_recv_requires_contiguous(self):
        fab = SimFabric(1)
        comm = SimComm(fab, 0)
        arr = np.empty((4, 4))[:, ::2]
        with pytest.raises(ValueError):
            comm.Recv(arr, 0, 0)
