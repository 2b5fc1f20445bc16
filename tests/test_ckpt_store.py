"""Checkpoint store unit tests: commits, incrementals, corruption, prune."""

import os
import shutil
import zlib

import numpy as np
import pytest

from repro.ckpt import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointStore,
    negotiate_epoch,
)
from repro.ckpt.store import read_head
from repro.simmpi.collectives import allreduce
from repro.simmpi.launcher import run_spmd

SIZES = {"interior": 512, "surface:a": 128, "surface:b": 128, "ghost:c": 64}
#: How the sections lie in storage: each tuple is one contiguous run.
RUNS = (("interior", "surface:a"), ("surface:b",), ("ghost:c",))


def _runs(seed, layout=RUNS):
    """The store's ``(section table, buffer)`` runs, filled from *seed*."""
    rng = np.random.default_rng(seed)
    return [
        (
            [(name, SIZES[name]) for name in names],
            rng.integers(0, 256, size=sum(SIZES[n] for n in names), dtype=np.uint8),
        )
        for names in layout
    ]


def _sections(runs):
    """``{section name: bytes}`` that *runs* hold."""
    out = {}
    for table, buf in runs:
        pos = 0
        for name, nbytes in table:
            out[name] = buf[pos : pos + nbytes].tobytes()
            pos += nbytes
    return out


def _forge(data, pos, target):
    """Set ``data[pos:pos + 4]`` so that ``zlib.crc32(data) == target``:
    CRC32 is affine in the data bits, so 32 free bits reach any value."""
    data[pos : pos + 4] = bytes(4)
    base = zlib.crc32(data)
    basis = {}  # top bit -> (CRC change, the free bits that make it)
    for bit in range(32):
        data[pos + bit // 8] ^= 1 << bit % 8
        value, bits = zlib.crc32(data) ^ base, 1 << bit
        data[pos + bit // 8] ^= 1 << bit % 8
        while value and value.bit_length() - 1 in basis:
            top = basis[value.bit_length() - 1]
            value, bits = value ^ top[0], bits ^ top[1]
        if value:
            basis[value.bit_length() - 1] = (value, bits)
    want, bits = target ^ base, 0
    while want:
        value, combo = basis[want.bit_length() - 1]
        want, bits = want ^ value, bits ^ combo
    for bit in range(32):
        if bits >> bit & 1:
            data[pos + bit // 8] ^= 1 << bit % 8


def _written_by(manifest):
    """``{section name: epoch whose file holds it}``."""
    return {
        s[0]: run["epoch"] for run in manifest["runs"] for s in run["sections"]
    }


class TestCommit:
    def test_full_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        runs = _runs(0)
        man = store.save(0, 0, runs, meta={"step": 0}, problem_key="k")
        assert man["mode"] == "full"
        assert man["data_bytes"] == sum(SIZES.values())
        # One chunk (one CRC, one manifest entry) per run, not per section.
        assert len(man["runs"]) == len(RUNS)
        state = store.read_state(0, store.manifest(0, 0))
        for name, data in _sections(runs).items():
            assert state[name] == data
        assert store.manifest(0, 0)["meta"] == {"step": 0}

    def test_commit_leaves_no_temp_files(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(0, 0, _runs(0))
        assert not list(tmp_path.rglob("*.tmp"))
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == [
            "ep00000000.snap"
        ]

    def test_manifest_is_the_commit_point(self, tmp_path):
        # The rename of the whole file commits it: a half-written temp
        # file (a simulated mid-commit crash) is invisible -- the epoch
        # is not listed and not negotiable.
        store = CheckpointStore(tmp_path)
        store.save(0, 0, _runs(0))
        tmp = store.snapshot_path(0, 1).with_name("ep00000001.snap.tmp")
        tmp.write_bytes(b"half-written")
        assert store.epochs(0) == [0]
        assert store.verified_epochs(0) == [0]
        store.prune(keep=1)
        assert not tmp.exists()

    def test_one_save_is_one_write_two_fsyncs_one_rename(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path)
        calls = {"fsync": 0, "replace": 0, "writev": 0}
        for name in calls:
            real = getattr(os, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(os, name, counted)
        store.save(0, 0, _runs(0), meta={"step": 0}, problem_key="k")
        assert calls == {"fsync": 2, "replace": 1, "writev": 1}

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        real = os.writev

        def short(fd, buffers):  # the kernel takes 100 bytes at a time
            first = memoryview(buffers[0]).cast("B")
            return real(fd, [first[:100]])

        monkeypatch.setattr(os, "writev", short)
        store = CheckpointStore(tmp_path)
        runs = _runs(0)
        store.save(0, 0, runs, problem_key="k")
        monkeypatch.setattr(os, "writev", real)
        assert store.read_state(0, store.manifest(0, 0)) == _sections(runs)

    def test_meta_jsonified(self, tmp_path):
        store = CheckpointStore(tmp_path)
        meta = {"step": np.int64(3), "vals": (np.float64(1.5), 2)}
        store.save(0, 0, _runs(0), meta=meta)
        doc = store.manifest(0, 0)
        assert doc["meta"] == {"step": 3, "vals": [1.5, 2]}

    def test_bad_inputs(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointError, match="epoch"):
            store.save(0, -1, [])
        with pytest.raises(CheckpointError, match="no manifest"):
            store.manifest(0, 42)
        with pytest.raises(CheckpointError, match="names 64 bytes"):
            store.save(0, 0, [([("ghost:c", 64)], np.zeros(65, np.uint8))])


class TestIncremental:
    def test_crc_dedup_of_unchanged_runs(self, tmp_path):
        # A save with a parent references every whole run whose bytes
        # equal the parent's -- at the epoch whose file holds them --
        # and writes the rest.
        store = CheckpointStore(tmp_path)
        runs = _runs(0)
        parent = store.save(0, 0, runs, problem_key="k")
        man = store.save(0, 1, runs, problem_key="k", parent=parent)
        assert (man["mode"], man["parent"], man["data_bytes"]) == ("incr", 0, 0)
        assert all(c["epoch"] == 0 for c in man["runs"])
        runs[1][1][0] ^= 0xFF
        man = store.save(0, 2, runs, problem_key="k", parent=man)
        assert man["data_bytes"] == SIZES["surface:b"]
        assert _written_by(man) == {
            "interior": 0, "surface:a": 0, "surface:b": 2, "ghost:c": 0
        }
        assert store.read_state(0, man) == _sections(runs)

    def test_crc_collision_is_written_not_referenced(self, tmp_path):
        # Other bytes forged to the parent run's CRC32: same section
        # table, same CRC, so only reading the parent's bytes back tells
        # them apart.  A reference would restore the stale bytes.
        store = CheckpointStore(tmp_path)
        runs = _runs(0)
        parent = store.save(0, 0, runs, problem_key="k")
        table, buf = runs[1]
        forged = bytearray(buf.tobytes())
        forged[0] ^= 0xFF
        _forge(forged, 8, zlib.crc32(buf))
        assert zlib.crc32(forged) == zlib.crc32(buf) and forged != buf.tobytes()
        changed = [runs[0], (table, np.frombuffer(forged, np.uint8)), runs[2]]
        man = store.save(0, 1, changed, problem_key="k", parent=parent)
        assert _written_by(man) == {
            "interior": 0, "surface:a": 0, "surface:b": 1, "ghost:c": 0
        }
        assert store.read_state(0, store.manifest(0, 1)) == _sections(changed)

    def test_parentless_incremental_degrades_to_full(self, tmp_path):
        # No parent: every run is written, even where an earlier
        # snapshot holds the same bytes.
        store = CheckpointStore(tmp_path)
        store.save(0, 0, _runs(0), problem_key="k")
        man = store.save(0, 1, _runs(0), problem_key="k")
        assert (man["mode"], man["parent"]) == ("full", None)
        assert man["data_bytes"] == sum(SIZES.values())
        assert set(_written_by(man).values()) == {1}

    def test_incremental_rejects_foreign_parent(self, tmp_path):
        store = CheckpointStore(tmp_path)
        parent = store.save(0, 0, _runs(0), problem_key="run-a")
        with pytest.raises(CheckpointError, match="different run"):
            store.save(0, 1, _runs(1), problem_key="run-b", parent=parent)


class TestCorruption:
    def test_single_flipped_byte_detected_in_any_chunk(self, tmp_path):
        store = CheckpointStore(tmp_path)
        man = store.save(0, 0, _runs(0), problem_key="k")
        path = store.snapshot_path(0, 0)
        with open(path, "rb") as fh:
            _, base = read_head(fh, path)
        # Flip one byte in the middle of each run -- and one inside the
        # manifest -- check detection, then restore the original byte.
        offsets = [base + r["offset"] + r["nbytes"] // 2 for r in man["runs"]]
        offsets.append(base // 2)
        pristine = path.read_bytes()
        for off in offsets:
            blob = bytearray(pristine)
            blob[off] ^= 0x01
            path.write_bytes(bytes(blob))
            with pytest.raises(CheckpointCorruptionError, match="CRC32"):
                store.read_state(0, store.manifest(0, 0))
            rows = store.verify()
            assert [r["ok"] for r in rows] == [False], off
            assert store.verified_epochs(0) == []
        path.write_bytes(pristine)
        assert store.verified_epochs(0) == [0]

    def test_truncated_data_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(0, 0, _runs(0))
        path = store.snapshot_path(0, 0)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointCorruptionError, match="truncated"):
            store.read_state(0, store.manifest(0, 0))

    def test_missing_referenced_data_file_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        parent = store.save(0, 0, _runs(0), problem_key="k")
        man = store.save(0, 1, _runs(0), problem_key="k", parent=parent)
        store.snapshot_path(0, 0).unlink()
        with pytest.raises(CheckpointCorruptionError, match="missing data"):
            store.read_state(0, man)

    def test_manifest_identity_mismatch_detected(self, tmp_path):
        # Rank 0's snapshot file under rank 5's name.
        store = CheckpointStore(tmp_path)
        store.save(0, 0, _runs(0))
        store.snapshot_path(5, 0).parent.mkdir()
        shutil.copy(store.snapshot_path(0, 0), store.snapshot_path(5, 0))
        with pytest.raises(CheckpointCorruptionError, match="identifies"):
            store.manifest(5, 0)


class TestMaintenance:
    def test_prune_keeps_reference_closure(self, tmp_path):
        store = CheckpointStore(tmp_path)
        runs = _runs(0)
        man = store.save(0, 0, runs, problem_key="k")
        for epoch in (1, 2, 3):
            man = store.save(0, epoch, runs, problem_key="k", parent=man)
        removed = store.prune(keep=1)
        # Epoch 3 is kept; its references point at epoch 0 (the writing
        # epoch), which must survive; 1 and 2 go.
        assert store.epochs(0) == [0, 3]
        assert removed
        state = store.read_state(0, store.manifest(0, 3))
        for name, data in _sections(runs).items():
            assert state[name] == data

    def test_prune_requires_keep(self, tmp_path):
        with pytest.raises(CheckpointError, match="at least one"):
            CheckpointStore(tmp_path).prune(keep=0)

    def test_verified_epochs_filter_by_problem_key(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(0, 0, _runs(0), problem_key="run-a")
        store.save(0, 1, _runs(1), problem_key="run-b")
        assert store.verified_epochs(0, "run-a") == [0]
        assert store.verified_epochs(0, "run-b") == [1]
        assert store.verified_epochs(0) == [0, 1]

    def test_latest_consistent_with_gaps(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for rank, epochs in ((0, (1, 2)), (1, (1,))):
            for e in epochs:
                store.save(rank, e, _runs(e))
        assert store.consistent_epochs(2) == [1]
        assert store.latest_consistent(2) == 1
        # A rank directory missing entirely means no consistent epoch.
        assert store.latest_consistent(3) == -1

    def test_ls_rows(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(0, 0, _runs(0))
        store.save(1, 0, _runs(1))
        store.save(0, 1, _runs(2))
        rows = store.ls_rows(nranks=2)
        assert [r["epoch"] for r in rows] == [0, 1]
        assert rows[0]["consistent"] and not rows[1]["consistent"]


def _format_one_store(root):
    """A store as format 1 wrote it: a manifest beside a payload file."""
    rank_dir = root / "rank0000"
    rank_dir.mkdir(parents=True)
    (rank_dir / "ep00000001.bin").write_bytes(bytes(64))
    (rank_dir / "ep00000001.json").write_text('{"format": 1}\n')
    return root


class TestFormatOneRefused:
    """One store format: every entry point refuses a format-1 store with
    the typed error (or a non-zero exit), none migrates it."""

    def test_store(self, tmp_path):
        with pytest.raises(CheckpointFormatError, match="format-1"):
            CheckpointStore(_format_one_store(tmp_path))

    def test_resume(self, tmp_path):
        from repro.core.driver import run_executed
        from repro.core.problem import StencilProblem
        from repro.stencil.spec import SEVEN_POINT

        problem = StencilProblem((16, 16, 16), (1, 1, 1), SEVEN_POINT, (8, 8, 8), 8)
        with pytest.raises(CheckpointFormatError):
            run_executed(
                problem, "layout", timesteps=2,
                checkpoint_dir=_format_one_store(tmp_path), resume=True,
            )

    @pytest.mark.parametrize("cmd", [["ls"], ["verify"], ["prune", "--keep", "1"]])
    def test_cli(self, tmp_path, capsys, cmd):
        from repro.cli import main

        root = _format_one_store(tmp_path)
        assert main(["ckpt", cmd[0], str(root), *cmd[1:]]) != 0
        assert "format-1" in capsys.readouterr().err
        assert (root / "rank0000" / "ep00000001.json").exists()

    def test_rebrick(self, tmp_path):
        from repro.core.geometry import RunGeometry
        from repro.core.problem import StencilProblem
        from repro.elastic import rebrick
        from repro.stencil.spec import SEVEN_POINT

        old = StencilProblem((32, 32, 32), (2, 1, 1), SEVEN_POINT, (8, 8, 8), 8)
        new = StencilProblem((32, 32, 32), (1, 1, 1), SEVEN_POINT, (8, 8, 8), 8)
        with pytest.raises(CheckpointFormatError):
            rebrick(
                CheckpointStore(_format_one_store(tmp_path / "old")),
                RunGeometry(old, "layout"), 1,
                CheckpointStore(tmp_path / "new"), RunGeometry(new, "layout"),
                seed=0,
            )


class TestNegotiation:
    @pytest.mark.parametrize(
        "per_rank,expected",
        [
            (((1, 2, 3), (1, 3)), 3),
            (((1, 2), (2, 3)), 2),
            (((1, 4), (3, 5)), -1),  # descent exhausts: no common epoch
            (((), (1,)), -1),
            (((2,), (2,)), 2),
        ],
    )
    def test_negotiate_epoch(self, per_rank, expected):
        def rank_fn(comm):
            return negotiate_epoch(comm, per_rank[comm.rank], allreduce)

        results = run_spmd(len(per_rank), rank_fn)
        assert results == [expected] * len(per_rank)
