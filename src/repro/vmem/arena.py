"""Arena abstraction: a chunk of "physical" memory views are built over.

An arena owns one flat byte buffer (exposed as a NumPy array) and knows its
page size.  The two concrete arenas differ in what backs the buffer:

* :class:`NumpyArena` -- plain ``numpy`` allocation; cannot build views
  (used by the non-MemMap storage paths).
* :class:`~repro.vmem.realmap.MemfdArena` -- ``memfd_create`` file mapping;
  builds genuinely aliased views.
"""

from __future__ import annotations

import abc
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["Arena", "NumpyArena"]


class Arena(abc.ABC):
    """A page-granular byte buffer from which stitched views are carved."""

    def __init__(self, nbytes: int, page_size: int) -> None:
        if nbytes <= 0:
            raise ValueError("arena size must be positive")
        if page_size <= 0:
            raise ValueError("page size must be positive")
        if nbytes % page_size:
            raise ValueError(
                f"arena size {nbytes} must be a multiple of the page size {page_size}"
            )
        self.nbytes = int(nbytes)
        self.page_size = int(page_size)

    @property
    @abc.abstractmethod
    def buffer(self) -> np.ndarray:
        """The whole arena as a flat ``uint8`` array (the file content)."""

    @abc.abstractmethod
    def make_view(self, chunks: Sequence[Tuple[int, int]]):
        """Stitch page-aligned ``(offset, length)`` byte ranges into a view.

        Every offset and length must be page-multiples; ranges may repeat
        and may overlap (that is the point).  Returns a
        :class:`~repro.vmem.realmap.RealStitchedView`.
        """

    def check_chunks(self, chunks: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """Validate chunk alignment/bounds; returns normalised int pairs."""
        out = []
        for off, length in chunks:
            off, length = int(off), int(length)
            if length <= 0:
                raise ValueError(f"chunk length must be positive, got {length}")
            if off % self.page_size or length % self.page_size:
                raise ValueError(
                    f"chunk ({off}, {length}) not aligned to page size"
                    f" {self.page_size}"
                )
            if off < 0 or off + length > self.nbytes:
                raise ValueError(
                    f"chunk ({off}, {length}) outside arena of {self.nbytes} bytes"
                )
            out.append((off, length))
        if not out:
            raise ValueError("a view needs at least one chunk")
        return out

    def read_bytes(self, offset: int, nbytes: int) -> np.ndarray:
        """Zero-copy ``uint8`` view of an arbitrary byte range.

        Unlike :meth:`make_view` this needs no page alignment -- it is
        the checkpoint path's window onto the arena content, valid for
        every concrete arena because all of them expose ``buffer``.
        """
        offset, nbytes = int(offset), int(nbytes)
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise ValueError(
                f"byte range ({offset}, {nbytes}) outside arena of"
                f" {self.nbytes} bytes"
            )
        return self.buffer[offset : offset + nbytes]

    def write_bytes(self, offset: int, data) -> None:
        """Re-attach bytes into the arena at *offset* (checkpoint restore).

        Writing through ``buffer`` means mapping-capable arenas update
        the *backing* pages: stitched views built before or after the
        write alias the restored content with no further copies.
        """
        view = np.frombuffer(data, dtype=np.uint8)
        self.read_bytes(offset, view.nbytes)[:] = view

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release resources; the default has none."""

    def __enter__(self) -> "Arena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NumpyArena(Arena):
    """Plain in-process allocation without mapping capability.

    ``make_view`` is unsupported: storage allocated this way corresponds to
    the paper's ``BrickInfo::allocate`` (Layout mode), where communication
    sends brick ranges directly and no views exist.
    """

    def __init__(self, nbytes: int, page_size: int) -> None:
        super().__init__(nbytes, page_size)
        self._buf = np.zeros(nbytes, dtype=np.uint8)

    @property
    def buffer(self) -> np.ndarray:
        return self._buf

    def make_view(self, chunks: Sequence[Tuple[int, int]]):
        raise NotImplementedError(
            "NumpyArena cannot build stitched views; allocate the storage"
            " with mmap_alloc (a MemfdArena) for MemMap"
        )
