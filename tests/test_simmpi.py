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
