"""Property tests: BrickStorage snapshots round-trip bit-exactly.

Serialize a storage through the checkpoint store and deserialize into a
freshly allocated one: every byte of every saved slot range must come
back identical, across dtypes, arena kinds, and in the presence of
padded slots that are never part of any chunk.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.brick.storage import BrickStorage
from repro.ckpt import CheckpointStore, ChunkSpec, group_runs

DTYPES = ("float64", "float32", "int32", "int16")
ARENAS = ("plain", "mapped")


def _make_storage(arena_kind, nslots, brick_elems, dtype):
    alloc = (
        BrickStorage.allocate
        if arena_kind == "plain"
        else BrickStorage.mmap_alloc
    )
    return alloc(nslots, brick_elems, dtype=dtype)


def _fill(storage, seed):
    rng = np.random.default_rng(seed)
    raw = rng.integers(
        0, 256, size=storage.nslots * storage.brick_bytes, dtype=np.uint8
    )
    flat = storage.data.reshape(-1).view(np.uint8)
    flat[:] = raw
    return raw


def _specs(nslots, padded):
    """Carve the slot space into chunk ranges; *padded* slots (at the
    end) belong to no chunk, like MemMap alignment padding."""
    usable = nslots - padded
    mid = max(1, usable // 2)
    specs = [ChunkSpec("interior", 0, mid)]
    if usable - mid:
        specs.append(ChunkSpec("surface:a", mid, usable - mid))
    return specs


class TestSnapshotRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(DTYPES),
        st.sampled_from(ARENAS),
        st.integers(2, 9),
        st.integers(3, 65),
        st.integers(0, 2),
        st.integers(0, 2**31 - 1),
    )
    def test_serialize_deserialize_bit_exact(
        self, tmp_path_factory, dtype, arena_kind, nslots, brick_elems,
        padded, seed
    ):
        nslots += padded
        src = _make_storage(arena_kind, nslots, brick_elems, dtype)
        raw = _fill(src, seed)
        specs = _specs(nslots, padded)

        root = tmp_path_factory.mktemp("ckpt")
        store = CheckpointStore(root)
        runs = [
            run.chunk(src.slot_bytes, src.brick_bytes) for run in group_runs(specs)
        ]
        man = store.save(0, 0, runs, problem_key="prop")

        dst = _make_storage(arena_kind, nslots, brick_elems, dtype)
        sentinel = _fill(dst, seed + 1)
        state = store.read_state(0, man)
        for s in specs:
            dst.load_slot_bytes(s.start_slot, s.nslots, state[s.name])

        got = dst.data.reshape(-1).view(np.uint8)
        covered = sum(s.nslots for s in specs) * src.brick_bytes
        np.testing.assert_array_equal(got[:covered], raw[:covered])
        # Padded slots were not part of any chunk and must be untouched.
        np.testing.assert_array_equal(got[covered:], sentinel[covered:])
        # And the logical values agree, not just the bytes.
        np.testing.assert_array_equal(
            dst.data.reshape(-1)[: covered // src.dtype.itemsize],
            src.data.reshape(-1)[: covered // src.dtype.itemsize],
        )

    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from(DTYPES),
        st.sampled_from(ARENAS),
        st.integers(0, 2**31 - 1),
        st.lists(st.integers(0, 5), min_size=0, max_size=4),
    )
    def test_incremental_round_trip_with_dirty_subset(
        self, tmp_path_factory, dtype, arena_kind, seed, dirty_slots
    ):
        nslots, brick_elems = 6, 16
        src = _make_storage(arena_kind, nslots, brick_elems, dtype)
        _fill(src, seed)
        specs = [ChunkSpec(f"s{i}", i, 1) for i in range(nslots)]

        store = CheckpointStore(tmp_path_factory.mktemp("ckpt"))
        # Six one-slot runs, so the store dedups slot by slot.
        runs = [
            run.chunk(src.slot_bytes, src.brick_bytes)
            for spec in specs
            for run in group_runs([spec])
        ]
        parent = store.save(0, 0, runs, problem_key="prop")

        # Change a byte of each dirty slot, then snapshot against the parent.
        rng = np.random.default_rng(seed + 1)
        for slot in set(dirty_slots):
            src.slot_bytes(slot, 1)[0] ^= 0xFF
        man = store.save(0, 1, runs, problem_key="prop", parent=parent)

        dst = _make_storage(arena_kind, nslots, brick_elems, dtype)
        _fill(dst, rng.integers(0, 2**31))
        state = store.read_state(0, man)
        for s in specs:
            dst.load_slot_bytes(s.start_slot, s.nslots, state[s.name])
        np.testing.assert_array_equal(
            dst.data.reshape(-1).view(np.uint8),
            src.data.reshape(-1).view(np.uint8),
        )
        # Unchanged runs were referenced, changed ones written.
        written = {
            sec[0]
            for run in man["runs"]
            if run["epoch"] == 1
            for sec in run["sections"]
        }
        assert written == {f"s{slot}" for slot in dirty_slots}
        assert man["data_bytes"] == len(written) * src.brick_bytes
