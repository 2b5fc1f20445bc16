"""Content-verified checkpoint store: one file per rank snapshot.

One store is a directory tree::

    <root>/rank0000/ep00000002.snap   header, manifest, payload runs

A *snapshot* is a set of named byte *sections* (brick-storage sections,
or one dense array) written as *runs*: a run is one contiguous buffer
of adjacent sections, stored as one chunk with one CRC32 and one
manifest entry whose offset table names the sections inside it.  The
file holds a 16-byte header (magic, manifest length, manifest CRC32),
the JSON manifest, then the payload runs, concatenated.

A commit is one write of the whole file to a temp name, ``fsync``,
``rename``, and an ``fsync`` of the directory: two fsyncs, and the
rename is the commit point.  A crash mid-write leaves at worst a
``.tmp``, which enumeration ignores and :meth:`CheckpointStore.prune`
sweeps, so a ``.snap`` that exists is a complete snapshot (modulo later
disk corruption, which :meth:`CheckpointStore.verify` detects run by
run, and the manifest's own CRC32 detects in the manifest).

A snapshot with a *parent* (the previous snapshot of the same buffer)
deduplicates whole runs: a run whose section table equals a whole run
of the parent and whose bytes equal the bytes that run stores is
recorded as a reference to the epoch whose file physically holds it
(references always point at the writing epoch, never at another
reference, so restore touches at most one file per source epoch and
pruning needs no chain walk).  Every other run is written.

Two invariants tie this format to what a restart reads (see
:func:`repro.ckpt.snapshot.snapshot_runs`): a snapshot holds exactly the
sections a restore at its step needs, and it holds them in one file.
A format-1 store (``ep*.json`` manifests beside ``ep*.bin`` payloads) is
refused with :class:`CheckpointFormatError`, not migrated.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "CheckpointStore",
    "CheckpointError",
    "CheckpointCorruptionError",
    "CheckpointFormatError",
    "FORMAT_VERSION",
]

#: manifest schema version; bump on incompatible layout changes
FORMAT_VERSION = 2

#: magic, manifest bytes, manifest CRC32
_HEADER = struct.Struct("<8sII")
_MAGIC = b"REPROCK2"

#: the buffers one ``os.writev`` call may take
_IOV_MAX = os.sysconf("SC_IOV_MAX")


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, found, or understood."""


class CheckpointCorruptionError(CheckpointError):
    """Stored bytes fail their CRC32 (or are missing/truncated)."""


class CheckpointFormatError(CheckpointError):
    """The store was written in a format this version does not read."""


def _rank_dirname(rank: int) -> str:
    return f"rank{rank:04d}"


def _snapshot_name(epoch: int) -> str:
    return f"ep{epoch:08d}.snap"


def _jsonable(value):
    """Coerce numpy scalars (and nested containers) to plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()
    return value


def encode_head(manifest: Mapping) -> bytes:
    """Header plus manifest: the bytes a snapshot file starts with."""
    body = json.dumps(manifest).encode()
    return _HEADER.pack(_MAGIC, len(body), zlib.crc32(body)) + body


def read_head(fh, path: Path) -> Tuple[dict, int]:
    """``(manifest, payload offset)`` of the open snapshot file *fh*."""
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise CheckpointCorruptionError(f"snapshot {path} is truncated in its header")
    magic, nbytes, crc = _HEADER.unpack(head)
    if magic != _MAGIC:
        raise CheckpointCorruptionError(f"{path} is not a format-2 snapshot file")
    body = fh.read(nbytes)
    if len(body) != nbytes or zlib.crc32(body) != crc:
        raise CheckpointCorruptionError(f"manifest of {path} fails CRC32")
    try:
        return json.loads(body), _HEADER.size + nbytes
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointCorruptionError(
            f"manifest of {path} is not valid JSON: {exc}"
        ) from exc


def _write_all(fd: int, buffers: List) -> None:
    """``os.writev`` *buffers* to *fd*, looping on short writes."""
    views = [memoryview(b) for b in buffers if len(b)]
    first = 0
    while first < len(views):
        n = os.writev(fd, views[first : first + _IOV_MAX])
        while n:
            size = views[first].nbytes
            if n < size:
                views[first] = views[first][n:]
                break
            n -= size
            first += 1


class CheckpointStore:
    """Filesystem-backed snapshot store for one run (all ranks, one dir).

    The store is format-agnostic about what the sections *mean*: it maps
    ``(rank, epoch)`` to named verified byte sections plus a JSON
    ``meta`` document.  The driver decides what goes in (see
    :mod:`repro.ckpt.snapshot`).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        for pattern in ("rank[0-9]*/ep[0-9]*.json", "rank[0-9]*/ep[0-9]*.bin"):
            old = next(self.root.glob(pattern), None)
            if old is not None:
                raise CheckpointFormatError(
                    f"{self.root} is a format-1 checkpoint store ({old.name});"
                    f" format {FORMAT_VERSION} keeps one .snap file per"
                    " snapshot and does not read it: start the run afresh"
                )

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _rank_dir(self, rank: int) -> Path:
        return self.root / _rank_dirname(rank)

    def snapshot_path(self, rank: int, epoch: int) -> Path:
        return self._rank_dir(rank) / _snapshot_name(epoch)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def save(
        self,
        rank: int,
        epoch: int,
        runs: Sequence[Tuple[Sequence[Tuple[str, int]], object]],
        meta: Optional[Mapping] = None,
        *,
        problem_key: str = "",
        parent: Optional[Mapping] = None,
    ) -> dict:
        """Commit one rank snapshot; returns the manifest dict.

        *runs* is a sequence of ``(sections, buffer)`` pairs: one
        C-contiguous buffer (written zero-copy) and the ``(name,
        nbytes)`` of the adjacent sections it holds, in order.  *parent*
        is the manifest of the rank's previous snapshot of the same
        bytes: a run whose section table and bytes equal a whole run of
        it is referenced, not written.  A CRC32 match is confirmed by
        reading the parent's run back, so a collision is written.
        Without a parent every run is written (``mode`` ``"full"``;
        ``"incr"`` with one).
        """
        if epoch < 0:
            raise CheckpointError(f"epoch must be >= 0, got {epoch}")
        # (name, nbytes) of every section -> a parent run holding exactly those
        whole: Dict[tuple, dict] = {}
        if parent is not None:
            if parent.get("problem_key") != problem_key:
                raise CheckpointError(
                    "parent snapshot belongs to a different run"
                    f" (problem key {parent.get('problem_key')!r} !="
                    f" {problem_key!r})"
                )
            for run in parent["runs"]:
                if sum(s[2] for s in run["sections"]) == run["nbytes"]:
                    whole[tuple((s[0], s[2]) for s in run["sections"])] = run

        entries: List[dict] = []
        blobs: List[memoryview] = []
        offset = 0
        for sections, buf in runs:
            view = memoryview(buf)
            if not view.contiguous:
                raise CheckpointError(
                    f"run {[n for n, _ in sections]} is not contiguous;"
                    " cannot snapshot zero-copy"
                )
            view = view.cast("B")
            table, pos = [], 0
            for name, nbytes in sections:
                table.append([name, pos, int(nbytes)])
                pos += nbytes
            if pos != view.nbytes:
                raise CheckpointError(
                    f"run {[n for n, _ in sections]} names {pos} bytes of a"
                    f" {view.nbytes}-byte buffer"
                )
            crc = zlib.crc32(view)
            prev = whole.get(tuple((s[0], s[2]) for s in table))
            if (
                prev is not None
                and prev["crc32"] == crc
                and self._stored(rank, prev) == view
            ):
                entries.append(dict(prev))
                continue
            entries.append(
                {
                    "epoch": epoch,
                    "offset": offset,
                    "nbytes": view.nbytes,
                    "crc32": crc,
                    "sections": table,
                }
            )
            blobs.append(view)
            offset += view.nbytes

        manifest = {
            "format": FORMAT_VERSION,
            "rank": int(rank),
            "epoch": int(epoch),
            "mode": "full" if parent is None else "incr",
            "parent": None if parent is None else int(parent["epoch"]),
            "problem_key": problem_key,
            "data_bytes": offset,
            "meta": _jsonable(dict(meta or {})),
            "runs": entries,
        }

        rank_dir = self._rank_dir(rank)
        rank_dir.mkdir(parents=True, exist_ok=True)
        # Atomic commit: the whole file to a temp name (one writev),
        # fsync, rename -- the commit point -- then the directory.
        path = rank_dir / _snapshot_name(epoch)
        tmp = rank_dir / (_snapshot_name(epoch) + ".tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            _write_all(fd, [encode_head(manifest), *blobs])
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
        self._fsync_dir(rank_dir)
        return manifest

    def _stored(self, rank: int, run: Mapping) -> Optional[bytes]:
        """The bytes *run* names, read from the file that holds them
        (None when that file cannot be read: the run is then written)."""
        path = self.snapshot_path(rank, run["epoch"])
        try:
            with open(path, "rb") as fh:
                _, base = read_head(fh, path)
                fh.seek(base + run["offset"])
                return fh.read(run["nbytes"])
        except (OSError, CheckpointError):
            return None

    @staticmethod
    def _fsync_dir(path: Path) -> None:
        """Make the rename itself durable (POSIX dirs need fsync)."""
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
        path = self.snapshot_path(rank, epoch)
        try:
            with open(path, "rb") as fh:
                doc, _ = read_head(fh, path)
        except OSError as exc:
            raise CheckpointError(
                f"no manifest for rank {rank} epoch {epoch}: {exc}"
            ) from exc
        if doc.get("format") != FORMAT_VERSION:
            raise CheckpointFormatError(
                f"manifest {path} has format {doc.get('format')!r},"
                f" expected {FORMAT_VERSION}"
            )
        if doc.get("rank") != rank or doc.get("epoch") != epoch:
            raise CheckpointCorruptionError(
                f"manifest {path} identifies as rank {doc.get('rank')}"
                f" epoch {doc.get('epoch')}"
            )
        if not isinstance(doc.get("runs"), list):
            raise CheckpointCorruptionError(f"manifest {path} has no runs")
        return doc

    def read_state(
        self, rank: int, manifest: Mapping, verify: bool = True
    ) -> Dict[str, memoryview]:
        """Read every section of *manifest*, following references.

        Returns ``{section name: bytes}`` (zero-copy slices of the runs
        read).  With *verify* (the default) every run is CRC32-checked;
        a single flipped byte anywhere in the closure raises
        :class:`CheckpointCorruptionError`.
        """
        by_epoch: Dict[int, List[Mapping]] = {}
        for entry in manifest["runs"]:
            by_epoch.setdefault(int(entry["epoch"]), []).append(entry)
        out: Dict[str, memoryview] = {}
        for src_epoch, entries in sorted(by_epoch.items()):
            path = self.snapshot_path(rank, src_epoch)
            try:
                fh = open(path, "rb")
            except OSError as exc:
                raise CheckpointCorruptionError(
                    f"rank {rank} epoch {manifest['epoch']}: missing data"
                    f" file {path} (referenced for"
                    f" {[s[0] for e in entries for s in e['sections']]})"
                ) from exc
            with fh:
                _, base = read_head(fh, path)
                for entry in sorted(entries, key=lambda e: e["offset"]):
                    fh.seek(base + entry["offset"])
                    data = fh.read(entry["nbytes"])
                    names = [s[0] for s in entry["sections"]]
                    if len(data) != entry["nbytes"]:
                        raise CheckpointCorruptionError(
                            f"run {names} truncated in {path}:"
                            f" wanted {entry['nbytes']} bytes,"
                            f" got {len(data)}"
                        )
                    if verify and zlib.crc32(data) != entry["crc32"]:
                        raise CheckpointCorruptionError(
                            f"run {names} of rank {rank} epoch"
                            f" {manifest['epoch']} fails CRC32"
                            f" (stored in {path.name})"
                        )
                    run = memoryview(data)
                    for name, start, nbytes in entry["sections"]:
                        out[name] = run[start : start + nbytes]
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
        """Epochs with a committed snapshot, ascending (not yet verified)."""
        out = []
        for path in self._rank_dir(rank).glob("ep[0-9]*.snap"):
            try:
                out.append(int(path.stem[2:]))
            except ValueError:  # pragma: no cover - stray files
                continue
        return sorted(out)

    def verified_epochs(
        self, rank: int, problem_key: Optional[str] = None
    ) -> List[int]:
        """Epochs whose full run closure reads back CRC-clean.

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

        Epochs outside the kept set survive if a kept snapshot still
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
                    closure.update(int(r["epoch"]) for r in man["runs"])
            except CheckpointError:
                continue
            rank_dir = self._rank_dir(rank)
            for epoch in epochs:
                if epoch not in closure:
                    path = self.snapshot_path(rank, epoch)
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
