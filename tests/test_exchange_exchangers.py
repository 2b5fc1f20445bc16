"""Exchanger engines: correctness of every ghost-zone exchange.

The oracle: after one exchange, the extended array's ghost shell must
equal the periodic wrap of the global domain (np.pad mode="wrap" of the
assembled global array, restricted to this rank's window).
"""

import functools
from collections import namedtuple

import numpy as np
import pytest

from repro.brick.convert import bricks_to_extended, extended_to_bricks
from repro.brick.decomp import BrickDecomp
from repro.core.driver import run_executed
from repro.core.problem import StencilProblem
from repro.exchange import schedule_template
from repro.exchange.layout_ex import LayoutExchanger, layout_template
from repro.exchange.memmap_ex import MemMapExchanger, memmap_template
from repro.exchange.mpitypes import MPITypesExchanger
from repro.exchange.pack import PackExchanger
from repro.hardware.profiles import theta_knl
from repro.simmpi.fabric import SimFabric
from repro.simmpi.launcher import run_spmd
from repro.stencil import cbackend
from repro.stencil.spec import SEVEN_POINT

RANK_DIMS = (2, 2, 2)
SUB = (16, 16, 16)
G = 8
GLOBAL = tuple(s * d for s, d in zip(SUB, RANK_DIMS))


#: One rank's outcome: the ExchangeResult, the extended array's bytes
#: after the exchange, and the live mapping count (MemMap only).
Outcome = namedtuple("Outcome", "result image maps")


def _exchange(ex):
    return ex.exchange()


def _plan(cart, base, decomp=None, asn=None, page=None):
    """This rank's plan of method base *base*: the schedule template of
    the geometry, instantiated by Cartesian arithmetic."""
    return schedule_template(base, SUB, G, 8, decomp, asn, page).for_rank(
        cart.rank, cart.dims, cart.periods
    )


def _spmd(fn, envelope):
    fabric = SimFabric(8)
    if envelope:
        fabric.enable_envelope()
    return run_spmd(8, fn, fabric=fabric)


def _global_data(seed=0):
    rng = np.random.default_rng(seed)
    return rng.random(tuple(reversed(GLOBAL)))


def _expected_extended(global_arr, coords):
    """This rank's extended array after a perfect exchange."""
    wrapped = np.pad(global_arr, [(G, G)] * 3, mode="wrap")
    lo = [c * s for c, s in zip(coords, SUB)]
    slc = tuple(
        slice(l, l + s + 2 * G) for l, s in zip(reversed(lo), reversed(SUB))
    )
    return wrapped[slc]


def _run_array_exchanger(make, seed=0, fire=_exchange, envelope=False):
    global_arr = _global_data(seed)

    def fn(comm):
        cart = comm.Create_cart(RANK_DIMS)
        lo = [c * s for c, s in zip(cart.coords, SUB)]
        own = tuple(
            slice(l, l + s) for l, s in zip(reversed(lo), reversed(SUB))
        )
        arr = np.zeros(tuple(s + 2 * G for s in reversed(SUB)))
        arr[tuple(slice(G, G + s) for s in reversed(SUB))] = global_arr[own]
        ex = make(cart, arr)
        result = fire(ex)
        expected = _expected_extended(global_arr, cart.coords)
        np.testing.assert_array_equal(arr, expected)
        return Outcome(result, arr.tobytes(), 0)

    return _spmd(fn, envelope)


def _run_brick_exchanger(
    mode, seed=0, page_size=4096, layout=None, fire=_exchange, envelope=False
):
    global_arr = _global_data(seed)
    profile = theta_knl()

    def fn(comm):
        cart = comm.Create_cart(RANK_DIMS)
        d = BrickDecomp(SUB, (8, 8, 8), G, layout=layout)
        if mode == "memmap":
            storage, asn = d.mmap_alloc(page_size)
            plan = _plan(cart, mode, d, asn, page_size)
            ex = MemMapExchanger(cart, plan, storage, profile)
        else:
            storage, asn = d.allocate()
            ex = LayoutExchanger(cart, _plan(cart, mode, d, asn), storage, profile)
        lo = [c * s for c, s in zip(cart.coords, SUB)]
        own = tuple(
            slice(l, l + s) for l, s in zip(reversed(lo), reversed(SUB))
        )
        ext = np.zeros(tuple(s + 2 * G for s in reversed(SUB)))
        ext[tuple(slice(G, G + s) for s in reversed(SUB))] = global_arr[own]
        extended_to_bricks(ext, d, storage, asn)
        result = fire(ex)
        got = bricks_to_extended(d, storage, asn)
        expected = _expected_extended(global_arr, cart.coords)
        np.testing.assert_array_equal(got, expected)
        if mode == "memmap":
            ex.close()
        out = Outcome(result, got.tobytes(), getattr(ex, "mapping_count", 0))
        storage.close()
        return out

    return _spmd(fn, envelope)


class TestArrayExchangers:
    def test_pack_fills_ghosts(self):
        profile = theta_knl()
        results = _run_array_exchanger(
            lambda cart, arr: PackExchanger(
                cart, _plan(cart, "yask"), arr, SUB, G, profile
            )
        )
        r = results[0].result
        assert r.messages_sent == 26
        assert r.breakdown.pack > 0
        assert r.padding_fraction == 0.0

    def test_mpi_types_fills_ghosts(self):
        profile = theta_knl()
        results = _run_array_exchanger(
            lambda cart, arr: MPITypesExchanger(
                cart, _plan(cart, "mpi_types"), arr, SUB, G, profile
            )
        )
        r = results[0].result
        assert r.messages_sent == 26
        assert r.breakdown.pack == 0.0  # packing is inside MPI
        assert r.breakdown.wait > 0


class TestBrickExchangers:
    def test_layout_pack_free(self):
        r = _run_brick_exchanger("layout")[0].result
        assert r.breakdown.pack == 0.0
        assert r.messages_sent > 26  # more messages, no copies

    def test_basic_more_messages(self):
        basic = _run_brick_exchanger("basic")[0].result
        layout = _run_brick_exchanger("layout")[0].result
        assert basic.messages_sent > layout.messages_sent
        assert basic.payload_bytes_sent == layout.payload_bytes_sent

    def test_memmap_one_message_per_neighbor(self):
        r, _, maps = _run_brick_exchanger("memmap")[0]
        assert r.messages_sent == 26
        assert r.breakdown.pack == 0.0
        assert maps > 0

    def test_memmap_64k_pages_pad(self):
        r = _run_brick_exchanger("memmap", page_size=65536)[0].result
        assert r.padding_fraction > 0
        assert r.wire_bytes_sent % 65536 == 0

    def test_memmap_4k_pages_free_on_theta(self):
        """8^3 double bricks are exactly one 4 KiB page: zero waste."""
        r = _run_brick_exchanger("memmap", page_size=4096)[0].result
        assert r.padding_fraction == 0.0

    def test_all_schemes_same_payload(self):
        pay = set()
        for mode in ("layout", "basic", "memmap"):
            r = _run_brick_exchanger(mode)[0].result
            pay.add(r.payload_bytes_sent)
        assert len(pay) == 1


def _channel(ex):
    channel = ex.make_channel()
    result = channel.exchange()
    # A channel's sends complete where its buffers are next written or
    # freed: the caller closes (MemMap: unmaps) them next.
    channel.wait_sends()
    return result


_ARRAY_CLASSES = {
    "yask": PackExchanger,
    "mpi_types": MPITypesExchanger,
}


class TestThreeWaysToFire:
    """The synchronous ``exchange()`` and ``channel.exchange()`` fire the
    same channel of the same plan, on a plain and on a verified fabric:
    from the same field they leave the same bytes, return the same
    :class:`ExchangeResult` and (MemMap) hold the same mappings."""

    @staticmethod
    def _run(method, fire, envelope=False):
        if method in _ARRAY_CLASSES:
            profile = theta_knl()
            return _run_array_exchanger(
                lambda cart, arr: _ARRAY_CLASSES[method](
                    cart, _plan(cart, method), arr, SUB, G, profile
                ),
                seed=3, fire=fire, envelope=envelope,
            )
        return _run_brick_exchanger(method, seed=3, fire=fire, envelope=envelope)

    @pytest.mark.parametrize(
        "method",
        ["layout", "basic", "memmap", "yask", "mpi_types"],
    )
    def test_one_outcome(self, method):
        runs = [
            self._run(method, fire, envelope)
            for envelope in (False, True)
            for fire in (_exchange, _channel)
        ]
        for other in runs[1:]:
            for mine, theirs in zip(runs[0], other):
                assert theirs.image == mine.image
                assert theirs.result == mine.result
                assert theirs.maps == mine.maps
                assert theirs.result.messages_sent > 0


class TestExchangerValidation:
    def test_layout_rejects_padded_storage(self):
        d = BrickDecomp(SUB, (8, 8, 8), G)
        with pytest.raises(ValueError):
            layout_template(d, d.assignment(d.alignment_for_page(65536)))

    def test_memmap_rejects_plain_storage(self):
        def fn(comm):
            cart = comm.Create_cart(RANK_DIMS)
            d = BrickDecomp(SUB, (8, 8, 8), G)
            storage, asn = d.allocate()
            with pytest.raises(ValueError):
                MemMapExchanger(
                    cart, _plan(cart, "memmap", d, asn, 4096), storage, theta_knl()
                )

        run_spmd(8, fn)

    def test_memmap_template_rejects_misaligned_assignment(self):
        d = BrickDecomp(SUB, (8, 8, 8), G)
        with pytest.raises(ValueError, match="page-aligned"):
            memmap_template(d, d.assignment(1), 65536)

    def test_pack_shape_validation(self):
        def fn(comm):
            cart = comm.Create_cart(RANK_DIMS)
            with pytest.raises(ValueError):
                PackExchanger(
                    cart, _plan(cart, "yask"), np.zeros((4, 4, 4)), SUB, G,
                    theta_knl(),
                )

        run_spmd(8, fn)

    def test_plan_must_describe_the_buffer(self):
        """Binding pairs each planned message with its wire buffer: a
        plan of another rank, or of another geometry, is refused instead
        of being negotiated on the fabric."""

        def fn(comm):
            cart = comm.Create_cart(RANK_DIMS)
            d = BrickDecomp(SUB, (8, 8, 8), G)
            storage, asn = d.allocate()
            template = layout_template(d, asn)
            other = template.for_rank((cart.rank + 1) % 8, cart.dims)
            with pytest.raises(ValueError, match="plan of rank"):
                LayoutExchanger(cart, other, storage, theta_knl())
            padded, page_asn = d.mmap_alloc(4096)
            with pytest.raises(ValueError, match="does not describe"):
                # MemMap's page-padded window messages over Layout's
                # binding: one message per neighbor, several chunks each.
                LayoutExchanger(
                    cart, _plan(cart, "memmap", d, page_asn, 4096), padded,
                    theta_knl(),
                )
            padded.close()

        run_spmd(8, fn)


class TestRepeatedExchanges:
    def test_exchange_idempotent_on_static_data(self):
        """Exchanging twice without changing the data leaves it fixed."""
        global_arr = _global_data(2)
        profile = theta_knl()

        def fn(comm):
            cart = comm.Create_cart(RANK_DIMS)
            d = BrickDecomp(SUB, (8, 8, 8), G)
            storage, asn = d.mmap_alloc(4096)
            ex = MemMapExchanger(
                cart, _plan(cart, "memmap", d, asn, 4096), storage, profile
            )
            lo = [c * s for c, s in zip(cart.coords, SUB)]
            own = tuple(
                slice(l, l + s) for l, s in zip(reversed(lo), reversed(SUB))
            )
            ext = np.zeros(tuple(s + 2 * G for s in reversed(SUB)))
            ext[tuple(slice(G, G + s) for s in reversed(SUB))] = global_arr[own]
            extended_to_bricks(ext, d, storage, asn)
            ex.exchange()
            first = bricks_to_extended(d, storage, asn)
            ex.exchange()
            second = bricks_to_extended(d, storage, asn)
            np.testing.assert_array_equal(first, second)
            ex.close()
            storage.close()

        run_spmd(8, fn)


# ----------------------------------------------------------------------
# The data-movement tier: the C movers, end to end
# ----------------------------------------------------------------------
_TIER_STEPS = 3


def _tier_problem(periodic):
    return StencilProblem(
        (32, 32, 32), RANK_DIMS, SEVEN_POINT, brick_dim=(8, 8, 8), ghost=G,
        periodic=periodic,
    )


@functools.lru_cache(maxsize=None)
def _tier_answer(periodic):
    """The plain Layout run's field: what every method must leave."""
    return run_executed(
        _tier_problem(periodic), "layout", timesteps=_TIER_STEPS
    ).global_result.tobytes()


class TestBothCopyTiers:
    """Every method moves its bytes on the one data-movement path -- one
    gather, one scatter and one ``copy_list`` call per exchange side
    (the seal and the copy-and-check on a verified fabric) -- and leaves
    the same field.  (The class name is the id the test floor records.)"""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls made through each C mover."""
        counts = dict.fromkeys(
            ("gather", "scatter", "copy_list", "crc_list", "copy_crc_list"), 0
        )

        def count(name):
            binder = getattr(cbackend.Movers, name)

            def counting_binder(*args):
                call = binder(*args)

                def counted():
                    counts[name] += 1
                    return call()

                return counted

            monkeypatch.setattr(cbackend.Movers, name, counting_binder)

        for name in counts:
            count(name)
        return counts

    @pytest.mark.parametrize("verify_wire", [False, True], ids=["plain", "verified"])
    @pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "open"])
    @pytest.mark.parametrize(
        "method", ["yask", "mpi_types", "layout", "memmap"]
    )
    def test_same_field_same_ledger_one_call_per_side(
        self, method, periodic, verify_wire, calls
    ):
        if cbackend.mover_kernel().crc_refusal and verify_wire:
            pytest.skip(cbackend.mover_kernel().crc_refusal)
        problem = _tier_problem(periodic)
        want = _tier_answer(periodic)
        before = dict(calls)
        run = run_executed(
            problem, method, timesteps=_TIER_STEPS, verify_wire=verify_wire
        )
        made = {key: calls[key] - before[key] for key in calls}
        fired = problem.nranks * _TIER_STEPS  # exchanges, all ranks
        packs = method in ("yask", "mpi_types")
        # One call per side per fired cut; on a verified fabric the
        # wire's two calls are the seal and the copy-and-check instead
        # of the copy.
        assert made["gather"] == made["scatter"] == packs * fired
        assert made["copy_list"] == (not verify_wire) * fired
        assert made["crc_list"] == made["copy_crc_list"] == verify_wire * fired
        fold = f" (crc fold {cbackend.mover_kernel().crc_fold})"
        assert run.copy_backend == "cffi" + verify_wire * fold
        assert run.global_result.tobytes() == want
        ledger = run.metrics.ranks[0]
        assert (ledger.timesteps, ledger.exchanges) == (_TIER_STEPS, _TIER_STEPS)

    def test_a_declined_crc_mover_is_reported_not_silent(
        self, monkeypatch, empty_kernel_cache
    ):
        """A CPU (or toolchain) that cannot fold a CRC: a verified run
        seals and checks with ``zlib.crc32`` around the C copy, says so
        where the movers are reported, and computes the same field; a
        plain run never asked."""
        monkeypatch.setattr(cbackend, "_kernels", {})
        real = cbackend.Movers.__init__

        def no_pclmul(self, ffi, lib, guard):
            real(self, ffi, lib, guard)
            self.crc_refusal = "probe forced false"

        monkeypatch.setattr(cbackend.Movers, "__init__", no_pclmul)
        problem = _tier_problem(True)
        plain = run_executed(problem, "layout", timesteps=_TIER_STEPS)
        guarded = run_executed(
            problem, "layout", timesteps=_TIER_STEPS, verify_wire=True
        )
        assert plain.copy_backend == "cffi"
        assert guarded.copy_backend == "cffi (checksums on zlib: probe forced false)"
        assert guarded.global_result.tobytes() == plain.global_result.tobytes()
        assert guarded.fabric.total_stats() == plain.fabric.total_stats()

    def test_cffi_demand_refuses_a_float32_field(self):
        """No silent fallback: a field the C tier cannot address is
        refused before any rank starts."""
        problem = StencilProblem(
            (32, 32, 32), RANK_DIMS, SEVEN_POINT, brick_dim=(8, 8, 8), ghost=G,
            dtype=np.float32,
        )
        with pytest.raises(ValueError, match="float64"):
            run_executed(problem, "yask", timesteps=1)
