"""The real MemMap mechanism: ``memfd_create`` + ``mmap(MAP_FIXED)``.

This is not a simulation.  Exactly as in the paper's Figure 5, the arena's
"physical resources" are the contents of an anonymous in-memory file
(created with :func:`os.memfd_create`); a stitched view reserves a
contiguous span of virtual addresses (an anonymous ``PROT_NONE`` mapping)
and then ``mmap``\\ s the requested file ranges over it with
``MAP_SHARED | MAP_FIXED`` -- one call per run of chunks that are
contiguous in the file as well, which leaves the kernel the same VMAs as
one call per chunk would.  The resulting NumPy array *aliases* the brick
storage: writing a brick changes what every view containing it sees, with
no data movement whatsoever.

Caveats handled here mirror the paper's Section 4 concerns: every range
must be page-aligned (callers pad regions to page multiples -- the Table 2
bandwidth waste), and each live view is charged ``len(chunks)`` -- its
requested chunks -- against the kernel's ``vm.max_map_count`` budget
(default 65530), which is exactly why Layout optimization is used to
minimise the number of mappings.  The charge is the paper's; it is an
upper bound on the live kernel VMAs once the kernel merges file-contiguous
neighbours.
"""

from __future__ import annotations

import ctypes
import mmap as _pymmap
import os
import sys
from typing import List, Sequence, Tuple

import numpy as np

from repro.faults.runtime import VMEM_FAULTS
from repro.vmem.arena import Arena

__all__ = ["MemfdArena", "RealStitchedView", "realmap_available"]

_PROT_NONE = 0
_PROT_READ = 1
_PROT_WRITE = 2
_MAP_SHARED = 0x01
_MAP_PRIVATE = 0x02
_MAP_FIXED = 0x10
_MAP_ANONYMOUS = 0x20
_MAP_FAILED = ctypes.c_void_p(-1).value


def _load_libc():
    libc = ctypes.CDLL(None, use_errno=True)
    libc.mmap.restype = ctypes.c_void_p
    libc.mmap.argtypes = [
        ctypes.c_void_p,
        ctypes.c_size_t,
        ctypes.c_int,
        ctypes.c_int,
        ctypes.c_int,
        ctypes.c_long,
    ]
    libc.munmap.restype = ctypes.c_int
    libc.munmap.argtypes = [ctypes.c_void_p, ctypes.c_size_t]
    return libc


_LIBC = None
_AVAILABLE = None


def realmap_available() -> bool:
    """True when this platform supports the real mapping path."""
    global _AVAILABLE, _LIBC
    if _AVAILABLE is None:
        # Probe into locals and publish once: rank threads race to this
        # first call, and none may read a half-done probe as "no memfd".
        available = False
        if sys.platform.startswith("linux") and hasattr(os, "memfd_create"):
            try:
                _LIBC = _load_libc()
                fd = os.memfd_create("repro-probe")
                os.close(fd)
                available = True
            except (OSError, AttributeError):  # pragma: no cover
                pass
        _AVAILABLE = available
    return _AVAILABLE


class MemfdArena(Arena):
    """Brick storage backed by an anonymous in-memory file."""

    def __init__(self, nbytes: int, page_size: int | None = None) -> None:
        sys_page = os.sysconf("SC_PAGE_SIZE")
        if page_size is None:
            page_size = sys_page
        if page_size % sys_page:
            raise ValueError(
                f"arena page size {page_size} must be a multiple of the"
                f" system page size {sys_page} for real mappings"
            )
        # Round the file up to the arena page size so the last section can
        # be mapped whole.
        nbytes = -(-nbytes // page_size) * page_size
        super().__init__(nbytes, page_size)
        if not realmap_available():  # pragma: no cover - platform dependent
            raise OSError("memfd_create/mmap(MAP_FIXED) not available here")
        self._fd = -1
        self._base = None
        self._buf = None
        VMEM_FAULTS.check("memfd_create")
        fd = os.memfd_create("repro-brick-storage")
        try:
            os.ftruncate(fd, nbytes)
            VMEM_FAULTS.check("arena_mmap")
            self._base = _pymmap.mmap(fd, nbytes, _pymmap.MAP_SHARED)
        except BaseException:
            # Don't leak the memfd when sizing or the base mapping fails:
            # nothing references it yet, so close it here.
            os.close(fd)
            raise
        self._fd = fd
        self._buf = np.frombuffer(memoryview(self._base), dtype=np.uint8)
        self._views: List[RealStitchedView] = []

    @property
    def buffer(self) -> np.ndarray:
        return self._buf

    @property
    def fd(self) -> int:
        return self._fd

    def make_view(self, chunks: Sequence[Tuple[int, int]]) -> "RealStitchedView":
        view = RealStitchedView(self, self.check_chunks(chunks))
        self._views.append(view)
        return view

    @property
    def mapping_count(self) -> int:
        """Requested chunks of this arena's live views, plus 1 base: the
        paper's ``vm.max_map_count`` charge, an upper bound on the kernel
        VMAs once the kernel merges file-contiguous neighbours."""
        return 1 + sum(len(v.chunks) for v in self._views if not v.closed)

    def close(self) -> None:
        for v in self._views:
            v.close()
        self._views.clear()
        if getattr(self, "_buf", None) is not None:
            self._buf = None  # release the exported buffer first
        if getattr(self, "_base", None) is not None:
            try:
                self._base.close()
                self._base = None
            except BufferError:
                # A numpy view of the base mapping is still alive somewhere;
                # leave the mapping to the garbage collector.
                pass
        if getattr(self, "_fd", -1) >= 0:
            os.close(self._fd)
            self._fd = -1

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


def _file_runs(chunks: List[Tuple[int, int]]) -> List[Tuple[int, int, int]]:
    """``(offset, length, nchunks)`` of each run of consecutive *chunks*
    that also follow each other in the file: one ``mmap`` maps a run."""
    runs: List[Tuple[int, int, int]] = []
    for off, length in chunks:
        if runs and runs[-1][0] + runs[-1][1] == off:
            start, size, n = runs[-1]
            runs[-1] = (start, size + length, n + 1)
        else:
            runs.append((off, length, 1))
    return runs


class RealStitchedView:
    """Aliased contiguous window over selected pages of a :class:`MemfdArena`:
    the page-aligned ``(offset, length)`` *chunks*, in order, as one
    NumPy array.  Writes through either side are visible to the other at
    once; there is no data movement to request."""

    def __init__(self, arena: MemfdArena, chunks: List[Tuple[int, int]]) -> None:
        self.chunks = list(chunks)
        self.nbytes = sum(length for _, length in self.chunks)
        self._arena = arena
        self.closed = False
        libc = _LIBC
        total = self.nbytes
        # Reserve a contiguous virtual span, then overlay each file run.
        VMEM_FAULTS.check("view_reserve")
        base = libc.mmap(
            None, total, _PROT_NONE, _MAP_PRIVATE | _MAP_ANONYMOUS, -1, 0
        )
        if base in (None, _MAP_FAILED):  # pragma: no cover - OOM only
            raise OSError(ctypes.get_errno(), "mmap reservation failed")
        self._base_addr = base
        # A mid-stitch failure must not leak the reserved span (or the
        # file pages already overlaid onto it): one munmap of the whole
        # reservation unmaps every chunk mapped so far in a single call.
        try:
            pos = 0
            for off, length, nchunks in _file_runs(chunks):
                for _ in range(nchunks):  # each requested chunk can fail
                    VMEM_FAULTS.check("view_map_chunk")
                addr = libc.mmap(
                    base + pos,
                    length,
                    _PROT_READ | _PROT_WRITE,
                    _MAP_SHARED | _MAP_FIXED,
                    arena.fd,
                    off,
                )
                if addr != base + pos:  # pragma: no cover - kernel failure
                    raise OSError(ctypes.get_errno(), "mmap MAP_FIXED failed")
                pos += length
            ctype_buf = (ctypes.c_byte * total).from_address(base)
            self._array = np.frombuffer(ctype_buf, dtype=np.uint8)
        except BaseException:
            self.closed = True
            self._array = None
            libc.munmap(base, total)
            raise

    def array(self, dtype=np.uint8) -> np.ndarray:
        """The view contents as one flat contiguous array of *dtype*."""
        if self.closed:
            raise ValueError("view is closed")
        return self._array.view(dtype)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._array = None
            _LIBC.munmap(self._base_addr, self.nbytes)

    def __enter__(self) -> "RealStitchedView":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return self.nbytes

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
