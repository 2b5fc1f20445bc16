"""The compiled kernels against the generic kernel and a hand-written
loop, and simulated collectives.  (The file and class names are the ids
the test floor records.)"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi import allreduce, broadcast, reduce_to_root, run_spmd
from repro.stencil import cbackend
from repro.stencil.brick_kernels import gather_halo_batch
from repro.stencil.kernels import apply_array_stencil
from repro.stencil.plan import ArrayStencilPlan, compile_brick_plan
from repro.stencil.spec import CUBE125, SEVEN_POINT, group_terms, star_stencil


class TestGeneratedArrayKernel:
    """The generated array box sweep."""

    @pytest.mark.parametrize("spec", [SEVEN_POINT, CUBE125])
    @pytest.mark.parametrize("margin", [0, 3])
    def test_bit_identical_to_generic(self, spec, margin):
        extent, g = (16, 16, 16), 8
        rng = np.random.default_rng(0)
        arr = rng.random(tuple(e + 2 * g for e in reversed(extent)))
        generic = np.zeros_like(arr)
        apply_array_stencil(arr, generic, spec, extent, g, margin=margin)
        fast = np.zeros_like(arr)
        plan = ArrayStencilPlan(spec, extent, g, margin=margin)
        assert plan.kernel_backend == cbackend.c_tier()
        plan.execute(arr, fast)
        np.testing.assert_array_equal(generic, fast)

    def test_margin_validation(self):
        with pytest.raises(ValueError, match="exceeds ghost width"):
            ArrayStencilPlan(SEVEN_POINT, (8, 8, 8), 8, margin=8)

    def test_dim_validation(self):
        with pytest.raises(ValueError, match="domain is 2-D"):
            ArrayStencilPlan(SEVEN_POINT, (8, 8), 8)


class TestGeneratedBatchKernel:
    """The generated stage-then-sweep brick kernel."""

    @pytest.mark.parametrize("spec", [SEVEN_POINT, CUBE125])
    def test_bit_identical_to_generic_loop(self, spec, small_decomp):
        from repro.brick.convert import extended_shape, extended_to_bricks

        d = small_decomp
        rng = np.random.default_rng(1)
        ext = rng.random(extended_shape(d))
        storage, asn = d.allocate()
        extended_to_bricks(ext, d, storage, asn)
        info = d.brick_info(asn)
        slots = d.compute_slots(asn)[:64]
        r = spec.radius
        halo = gather_halo_batch(storage, info, slots, r)

        # generic loop in the canonical order: per coefficient group,
        # each x pair summed first, the summands left to right, then
        # one multiply and one add
        acc = None
        np_bd = tuple(reversed(d.brick_dim))

        def window(off):
            return halo[(slice(None),) + tuple(
                slice(r + o, r + o + b) for o, b in zip(reversed(off), np_bd)
            )]

        for coeff, offsets in spec.groups:
            total = None
            for term in group_terms(offsets):
                summand = sum(map(window, term[1:]), window(term[0]))
                total = summand if total is None else total + summand
            term = coeff * total
            acc = term if acc is None else acc + term

        fast, _ = d.allocate()
        fast.data[:] = 9.99  # dirty destination
        plan = compile_brick_plan(spec, info, slots)
        assert plan.kernel_backend == cbackend.c_tier()
        plan.execute(storage, fast)
        np.testing.assert_array_equal(
            acc.reshape(len(slots), -1), fast.data[slots]
        )

    def test_radius_check(self, small_decomp):
        with pytest.raises(ValueError, match="radius"):
            compile_brick_plan(
                star_stencil(3, 9), small_decomp.brick_info(), np.arange(4)
            )


class TestCollectives:
    def test_allreduce_sum(self):
        def fn(comm):
            return allreduce(comm, np.array([float(comm.rank), 1.0]))

        for n in (1, 2, 3, 4, 7, 8):
            res = run_spmd(n, fn)
            expected = np.array([sum(range(n)), float(n)])
            for r in res:
                np.testing.assert_array_equal(r, expected)

    def test_allreduce_max(self):
        def fn(comm):
            return allreduce(comm, np.array([float(comm.rank)]), op=np.maximum)

        res = run_spmd(5, fn)
        assert all(r[0] == 4.0 for r in res)

    def test_reduce_to_root_only_root_gets_result(self):
        def fn(comm):
            return reduce_to_root(comm, np.array([1.0]), root=2)

        res = run_spmd(6, fn)
        assert res[2][0] == 6.0
        assert all(r is None for i, r in enumerate(res) if i != 2)

    def test_broadcast(self):
        def fn(comm):
            val = np.array([42.0]) if comm.rank == 1 else np.zeros(1)
            return broadcast(comm, val, root=1)

        res = run_spmd(6, fn)
        assert all(r[0] == 42.0 for r in res)

    def test_deterministic_reduction_order(self):
        """Tree reduction is deterministic: repeated runs bit-match."""

        def fn(comm):
            rng = np.random.default_rng(comm.rank)
            return allreduce(comm, rng.random(16))

        a = run_spmd(7, fn)
        b = run_spmd(7, fn)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2**31 - 1))
def test_allreduce_matches_serial_sum(nranks, seed):
    rng = np.random.default_rng(seed)
    values = rng.random((nranks, 4))

    def fn(comm):
        return allreduce(comm, values[comm.rank].copy())

    res = run_spmd(nranks, fn)
    # deterministic tree order: all ranks identical (exact), and close to
    # the serial sum
    for r in res[1:]:
        np.testing.assert_array_equal(res[0], r)
    np.testing.assert_allclose(res[0], values.sum(axis=0), rtol=1e-12)
