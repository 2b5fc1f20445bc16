#!/usr/bin/env python
"""Multi-field (multi-physics) simulation with interleaved brick storage.

The memory-intensive multi-physics scenario from the paper's introduction:
several coupled fields advance together, each needing its own ghost-zone
exchange every step.  The brick library interleaves fields inside each
brick (array-of-structure-of-arrays, Section 6), so ONE exchange moves
every field's surface at once -- no extra messages per field.

Here a two-field reaction-diffusion-style system (u diffuses with a 7-pt
stencil, v with a 125-pt stencil; both then relax toward each other) runs
over 8 simulated ranks using the MemMap exchange, and is validated against
a serial periodic reference.

    python examples/multifield_simulation.py
"""

import numpy as np

from repro.brick.convert import bricks_to_extended, extended_to_bricks
from repro.brick.decomp import BrickDecomp
from repro.exchange.memmap_ex import MemMapExchanger, memmap_template
from repro.hardware.profiles import theta_knl
from repro.simmpi import run_spmd
from repro.stencil.brick_kernels import apply_brick_stencil
from repro.stencil.kernels import owned_slices
from repro.stencil.reference import apply_periodic_reference
from repro.stencil.spec import CUBE125, SEVEN_POINT

GLOBAL = (32, 32, 32)
RANKS = (2, 2, 2)
SUB = tuple(g // r for g, r in zip(GLOBAL, RANKS))
GHOST = 8
STEPS = 2
COUPLING = 0.1


def serial_reference(u0, v0):
    """Oracle: the same coupled system on the unpartitioned domain."""
    u, v = u0.copy(), v0.copy()
    for _ in range(STEPS):
        du = apply_periodic_reference(u, SEVEN_POINT)
        dv = apply_periodic_reference(v, CUBE125)
        u, v = (
            du + COUPLING * (dv - du),
            dv + COUPLING * (du - dv),
        )
    return u, v


def rank_main(comm, u_global, v_global):
    cart = comm.Create_cart(RANKS)
    profile = theta_knl()
    # TWO fields interleaved in one storage: one exchange moves both.
    decomp = BrickDecomp(SUB, (8, 8, 8), GHOST, nfields=2)
    storage_a, asn = decomp.mmap_alloc(profile.page_size)
    storage_b, _ = decomp.mmap_alloc(profile.page_size)
    info = decomp.brick_info(asn)
    slots = decomp.compute_slots(asn)
    # The schedule is geometry, derived once; each buffer only binds it.
    plan = memmap_template(decomp, asn, profile.page_size).for_rank(
        cart.rank, cart.dims, cart.periods
    )
    exchangers = [
        MemMapExchanger(cart, plan, st, profile)
        for st in (storage_a, storage_b)
    ]
    storages = [storage_a, storage_b]

    lo = [c * s for c, s in zip(cart.coords, SUB)]
    own_global = tuple(
        slice(l, l + s) for l, s in zip(reversed(lo), reversed(SUB))
    )
    ext_shape = tuple(s + 2 * GHOST for s in reversed(SUB))
    own = owned_slices(SUB, GHOST)

    for fld, field_global in ((0, u_global), (1, v_global)):
        ext = np.zeros(ext_shape)
        ext[own] = field_global[own_global]
        extended_to_bricks(ext, decomp, storage_a, asn, fld=fld)

    vol = decomp.brick_volume
    src, dst = 0, 1
    messages = 0
    for _ in range(STEPS):
        # ONE exchange refreshes the ghosts of BOTH interleaved fields.
        result = exchangers[src].exchange()
        messages += result.messages_sent
        apply_brick_stencil(
            SEVEN_POINT, storages[src], storages[dst], info, slots,
            field_offset=0,
        )
        apply_brick_stencil(
            CUBE125, storages[src], storages[dst], info, slots,
            field_offset=vol,
        )
        # Pointwise coupling, computed on the owned bricks of dst.
        du = storages[dst].data[:, :vol]
        dv = storages[dst].data[:, vol:]
        u_new = du + COUPLING * (dv - du)
        dv[:] = dv + COUPLING * (du - dv)
        du[:] = u_new
        src, dst = dst, src

    u_out = bricks_to_extended(decomp, storages[src], asn, fld=0)[own].copy()
    v_out = bricks_to_extended(decomp, storages[src], asn, fld=1)[own].copy()
    for ex in exchangers:
        ex.close()
    for st in storages:
        st.close()
    return cart.coords, u_out, v_out, messages


def main() -> None:
    rng = np.random.default_rng(42)
    shape = tuple(reversed(GLOBAL))
    u0 = rng.random(shape)
    v0 = rng.random(shape)

    results = run_spmd(int(np.prod(RANKS)), rank_main, u0, v0)

    u = np.empty(shape)
    v = np.empty(shape)
    for coords, u_blk, v_blk, messages in results:
        lo = [c * s for c, s in zip(coords, SUB)]
        slc = tuple(
            slice(l, l + s) for l, s in zip(reversed(lo), reversed(SUB))
        )
        u[slc] = u_blk
        v[slc] = v_blk

    u_ref, v_ref = serial_reference(u0, v0)
    print(f"ranks: {len(results)}, steps: {STEPS}, fields: 2 (interleaved)")
    print(f"messages per rank per step: {messages // STEPS}"
          " (one exchange covers both fields)")
    print(f"u bit-exact: {np.array_equal(u, u_ref)}")
    print(f"v bit-exact: {np.array_equal(v, v_ref)}")
    assert np.array_equal(u, u_ref) and np.array_equal(v, v_ref)


if __name__ == "__main__":
    main()
