"""Content-verified checkpoint store: per-rank snapshot files on disk.

One store is a directory tree::

    <root>/rank0000/ep00000002.bin    chunk payloads, concatenated
    <root>/rank0000/ep00000002.json   manifest (the commit record)

A *snapshot* is a set of named byte chunks (one per brick-storage
section, plus whatever metadata the driver attaches).  Every chunk
carries a CRC32 in the manifest, and the manifest itself is the commit
point of a write: payloads are written to a temp file, fsynced and
renamed first, then the manifest -- so a crash mid-write can never leave
a manifest that refers to missing or half-written data.  A manifest that
exists is, by construction, a complete snapshot (modulo later disk
corruption, which :meth:`CheckpointStore.verify` detects chunk by
chunk).

Incremental snapshots write only the chunks that changed since their
*parent* snapshot; an unchanged chunk is recorded as a reference to the
epoch whose ``.bin`` file physically holds its bytes (references always
point at the writing epoch, never at another reference, so restore
touches at most one file per source epoch and pruning needs no chain
walk).  Change detection is per-chunk CRC32 against the parent manifest;
callers that track dirty bricks can pass ``dirty_names`` to skip even
hashing chunks the run provably never touched.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "CheckpointStore",
    "CheckpointError",
    "CheckpointCorruptionError",
    "FORMAT_VERSION",
]

#: manifest schema version; bump on incompatible layout changes
FORMAT_VERSION = 1

_MODES = ("full", "incr")


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, found, or understood."""


class CheckpointCorruptionError(CheckpointError):
    """Stored bytes fail their manifest CRC32 (or are missing/truncated)."""


def _rank_dirname(rank: int) -> str:
    return f"rank{rank:04d}"


def _manifest_name(epoch: int) -> str:
    return f"ep{epoch:08d}.json"


def _data_name(epoch: int) -> str:
    return f"ep{epoch:08d}.bin"


def _jsonable(value):
    """Coerce numpy scalars (and nested containers) to plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()
    return value


class CheckpointStore:
    """Filesystem-backed snapshot store for one run (all ranks, one dir).

    The store is format-agnostic about what the chunks *mean*: it maps
    ``(rank, epoch)`` to named verified byte blobs plus a JSON ``meta``
    document.  The driver decides what goes in (see
    :mod:`repro.ckpt.snapshot`).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _rank_dir(self, rank: int) -> Path:
        return self.root / _rank_dirname(rank)

    def data_path(self, rank: int, epoch: int) -> Path:
        return self._rank_dir(rank) / _data_name(epoch)

    def manifest_path(self, rank: int, epoch: int) -> Path:
        return self._rank_dir(rank) / _manifest_name(epoch)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def save(
        self,
        rank: int,
        epoch: int,
        chunks: Sequence[Tuple[str, object]],
        meta: Optional[Mapping] = None,
        *,
        mode: str = "full",
        problem_key: str = "",
        parent: Optional[Mapping] = None,
        dirty_names: Optional[Iterable[str]] = None,
    ) -> dict:
        """Commit one rank snapshot; returns the manifest dict.

        *chunks* is a sequence of ``(name, buffer)`` pairs; each buffer
        must be C-contiguous and support the buffer protocol (a NumPy
        view is written zero-copy).  *parent* is the rank's previous
        manifest and is required for ``mode="incr"`` (a parentless
        incremental silently degrades to a full snapshot).  When
        *dirty_names* is given, chunks **not** named in it are assumed
        byte-identical to the parent and recorded as references without
        being hashed; chunks named in it are still CRC-deduplicated.
        """
        if mode not in _MODES:
            raise CheckpointError(f"unknown snapshot mode {mode!r}")
        if epoch < 0:
            raise CheckpointError(f"epoch must be >= 0, got {epoch}")
        if mode == "incr" and parent is None:
            mode = "full"
        parent_entries: Dict[str, dict] = {}
        if mode == "incr":
            if parent.get("problem_key") != problem_key:
                raise CheckpointError(
                    "incremental parent belongs to a different run"
                    f" (problem key {parent.get('problem_key')!r} !="
                    f" {problem_key!r})"
                )
            parent_entries = {c["name"]: c for c in parent["chunks"]}
        dirty = None if dirty_names is None else set(dirty_names)

        entries: List[dict] = []
        blobs: List[memoryview] = []
        offset = 0
        for name, buf in chunks:
            view = memoryview(buf)
            if not view.contiguous:
                raise CheckpointError(
                    f"chunk {name!r} is not contiguous; cannot snapshot"
                    " zero-copy"
                )
            view = view.cast("B")
            nbytes = view.nbytes
            prev = parent_entries.get(name)
            if prev is not None and prev["nbytes"] == nbytes:
                if dirty is not None and name not in dirty:
                    # Provably untouched since the parent: reference the
                    # epoch that physically wrote it, skip hashing.
                    entries.append(dict(prev, name=name))
                    continue
                crc = zlib.crc32(view)
                if crc == prev["crc32"]:
                    entries.append(dict(prev, name=name))
                    continue
            else:
                crc = zlib.crc32(view)
            entries.append(
                {
                    "name": name,
                    "nbytes": nbytes,
                    "crc32": crc,
                    "epoch": epoch,
                    "offset": offset,
                }
            )
            blobs.append(view)
            offset += nbytes

        manifest = {
            "format": FORMAT_VERSION,
            "rank": int(rank),
            "epoch": int(epoch),
            "mode": mode,
            "parent": int(parent["epoch"]) if mode == "incr" else None,
            "problem_key": problem_key,
            "data_bytes": offset,
            "meta": _jsonable(dict(meta or {})),
            "chunks": entries,
        }

        rank_dir = self._rank_dir(rank)
        rank_dir.mkdir(parents=True, exist_ok=True)
        # Atomic commit: payload first (write temp, fsync, rename), then
        # the manifest the same way.  The manifest rename is the commit
        # point; readers that find a manifest always find its bytes.
        data_path = rank_dir / _data_name(epoch)
        tmp = rank_dir / (_data_name(epoch) + ".tmp")
        with open(tmp, "wb") as fh:
            for blob in blobs:
                fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, data_path)
        man_path = rank_dir / _manifest_name(epoch)
        tmp = rank_dir / (_manifest_name(epoch) + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            # One write of the C encoder's output: ``json.dump(indent=)``
            # falls back to the Python encoder and writes token by token
            # (a 64-chunk manifest: ~1 600 writes, 4x the time).
            fh.write(json.dumps(manifest) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, man_path)
        self._fsync_dir(rank_dir)
        return manifest

    @staticmethod
    def _fsync_dir(path: Path) -> None:
        """Make the renames themselves durable (POSIX dirs need fsync)."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - not all FSs support it
            pass
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def manifest(self, rank: int, epoch: int) -> dict:
        """Load and structurally validate one manifest."""
        path = self.manifest_path(rank, epoch)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise CheckpointError(
                f"no manifest for rank {rank} epoch {epoch}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise CheckpointCorruptionError(
                f"manifest {path} is not valid JSON: {exc}"
            ) from exc
        if doc.get("format") != FORMAT_VERSION:
            raise CheckpointError(
                f"manifest {path} has format {doc.get('format')!r},"
                f" expected {FORMAT_VERSION}"
            )
        if doc.get("rank") != rank or doc.get("epoch") != epoch:
            raise CheckpointCorruptionError(
                f"manifest {path} identifies as rank {doc.get('rank')}"
                f" epoch {doc.get('epoch')}"
            )
        if not isinstance(doc.get("chunks"), list):
            raise CheckpointCorruptionError(f"manifest {path} has no chunks")
        return doc

    def read_state(
        self, rank: int, manifest: Mapping, verify: bool = True
    ) -> Dict[str, bytes]:
        """Read every chunk of *manifest*, following references.

        Returns ``{chunk name: bytes}``.  With *verify* (the default)
        every chunk is CRC32-checked; a single flipped byte anywhere in
        the closure raises :class:`CheckpointCorruptionError`.
        """
        by_epoch: Dict[int, List[Mapping]] = {}
        for entry in manifest["chunks"]:
            by_epoch.setdefault(int(entry["epoch"]), []).append(entry)
        out: Dict[str, bytes] = {}
        for src_epoch, entries in sorted(by_epoch.items()):
            path = self.data_path(rank, src_epoch)
            try:
                fh = open(path, "rb")
            except OSError as exc:
                raise CheckpointCorruptionError(
                    f"rank {rank} epoch {manifest['epoch']}: missing data"
                    f" file {path} (referenced for"
                    f" {[e['name'] for e in entries]})"
                ) from exc
            with fh:
                for entry in sorted(entries, key=lambda e: e["offset"]):
                    fh.seek(entry["offset"])
                    data = fh.read(entry["nbytes"])
                    if len(data) != entry["nbytes"]:
                        raise CheckpointCorruptionError(
                            f"chunk {entry['name']!r} truncated in {path}:"
                            f" wanted {entry['nbytes']} bytes,"
                            f" got {len(data)}"
                        )
                    if verify and zlib.crc32(data) != entry["crc32"]:
                        raise CheckpointCorruptionError(
                            f"chunk {entry['name']!r} of rank {rank} epoch"
                            f" {manifest['epoch']} fails CRC32"
                            f" (stored in {path.name})"
                        )
                    out[entry["name"]] = data
        return out

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def ranks(self) -> List[int]:
        out = []
        for child in sorted(self.root.glob("rank[0-9]*")):
            if child.is_dir():
                try:
                    out.append(int(child.name[4:]))
                except ValueError:  # pragma: no cover - stray dirs
                    continue
        return out

    def epochs(self, rank: int) -> List[int]:
        """Epochs with a committed manifest, ascending (not yet verified)."""
        out = []
        for path in self._rank_dir(rank).glob("ep[0-9]*.json"):
            try:
                out.append(int(path.stem[2:]))
            except ValueError:  # pragma: no cover - stray files
                continue
        return sorted(out)

    def verified_epochs(
        self, rank: int, problem_key: Optional[str] = None
    ) -> List[int]:
        """Epochs whose full chunk closure reads back CRC-clean.

        This is what a restarting rank feeds into the epoch negotiation:
        a snapshot that fails verification is as good as absent.
        """
        out = []
        for epoch in self.epochs(rank):
            try:
                man = self.manifest(rank, epoch)
                if problem_key is not None and man["problem_key"] != problem_key:
                    continue
                self.read_state(rank, man, verify=True)
            except CheckpointError:
                continue
            out.append(epoch)
        return out

    def consistent_epochs(
        self, nranks: Optional[int] = None, verified: bool = False
    ) -> List[int]:
        """Epochs present for *every* rank (world size *nranks*, or the
        set of rank directories found)."""
        ranks = list(range(nranks)) if nranks else self.ranks()
        if not ranks:
            return []
        lister = self.verified_epochs if verified else self.epochs
        common = set(lister(ranks[0]))
        for rank in ranks[1:]:
            common &= set(lister(rank))
            if not common:
                break
        return sorted(common)

    def latest_consistent(
        self, nranks: Optional[int] = None, verified: bool = False
    ) -> int:
        """Newest globally consistent epoch, or -1 when there is none."""
        epochs = self.consistent_epochs(nranks, verified=verified)
        return epochs[-1] if epochs else -1

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def verify(self) -> List[dict]:
        """CRC-verify every snapshot; one report row per (rank, epoch)."""
        rows = []
        for rank in self.ranks():
            for epoch in self.epochs(rank):
                row = {
                    "rank": rank,
                    "epoch": epoch,
                    "ok": True,
                    "mode": "",
                    "data_bytes": 0,
                    "error": "",
                }
                try:
                    man = self.manifest(rank, epoch)
                    row["mode"] = man.get("mode", "")
                    row["data_bytes"] = int(man.get("data_bytes", 0))
                    self.read_state(rank, man, verify=True)
                except CheckpointError as exc:
                    row["ok"] = False
                    row["error"] = str(exc)
                rows.append(row)
        return rows

    def prune(self, keep: int = 1) -> List[Path]:
        """Delete all but the newest *keep* epochs per rank.

        Epochs outside the kept set survive if a kept incremental still
        references their bytes (references point directly at the writing
        epoch, so the closure is one hop).  Returns the deleted paths.
        If any kept manifest is unreadable the rank is skipped -- pruning
        must never guess about liveness.
        """
        if keep < 1:
            raise CheckpointError("prune must keep at least one epoch")
        removed: List[Path] = []
        for rank in self.ranks():
            epochs = self.epochs(rank)
            kept = epochs[-keep:]
            closure = set(kept)
            try:
                for epoch in kept:
                    man = self.manifest(rank, epoch)
                    closure.update(
                        int(c["epoch"]) for c in man["chunks"]
                    )
            except CheckpointError:
                continue
            rank_dir = self._rank_dir(rank)
            for epoch in epochs:
                if epoch in closure:
                    continue
                for path in (
                    self.manifest_path(rank, epoch),
                    self.data_path(rank, epoch),
                ):
                    # Manifest first so a partial prune can't leave a
                    # manifest whose bytes are gone.
                    if path.exists():
                        path.unlink()
                        removed.append(path)
            for stray in rank_dir.glob("*.tmp"):
                stray.unlink()
                removed.append(stray)
        return removed

    def ls_rows(self, nranks: Optional[int] = None) -> List[dict]:
        """Per-epoch summary rows for the ``repro ckpt ls`` listing."""
        ranks = self.ranks()
        world = nranks or (len(ranks) or None)
        per_epoch: Dict[int, dict] = {}
        for rank in ranks:
            for epoch in self.epochs(rank):
                row = per_epoch.setdefault(
                    epoch,
                    {"epoch": epoch, "ranks": 0, "bytes": 0, "modes": set()},
                )
                row["ranks"] += 1
                try:
                    man = self.manifest(rank, epoch)
                except CheckpointError:
                    row["modes"].add("corrupt")
                    continue
                row["bytes"] += int(man.get("data_bytes", 0))
                row["modes"].add(man.get("mode", "?"))
        out = []
        for epoch in sorted(per_epoch):
            row = per_epoch[epoch]
            row["modes"] = "+".join(sorted(row["modes"]))
            row["consistent"] = bool(world and row["ranks"] == world)
            out.append(row)
        return out
