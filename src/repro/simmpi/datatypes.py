"""MPI derived datatypes (for the MPI_Types baseline).

MPI derived datatypes describe non-contiguous regions so the *library*
packs them internally (paper Section 7: "supports Packing internally
within MPI").  We implement the three types a ghost-zone exchange needs --
contiguous, vector, subarray -- with two faces:

* **executed**: ``extract``/``insert`` really move the data via NumPy
  slicing, one selection per call.  A persistent exchange does not call
  them per step: it commits its subarrays against the array once
  (:attr:`SubarrayType.slices` into
  :func:`repro.exchange.boxes.box_table`, bound by
  :func:`repro.exchange.boxes.stage_table`) and the engine's whole
  gather, and its whole scatter, is then one bound call per exchange --
  where buffer sizes, dtypes and contiguity are checked, once;
* **modelled**: ``segment_profile`` reports the number of contiguous
  segments and their run length, which the cost model multiplies by the
  profile's interpretive datatype-engine constants.
"""

from __future__ import annotations

import abc
import math
from typing import Tuple

import numpy as np

from repro.faults.errors import ExchangeConfigError

__all__ = ["Datatype", "ContiguousType", "VectorType", "SubarrayType"]


class Datatype(abc.ABC):
    """Description of a (possibly non-contiguous) element selection."""

    @property
    @abc.abstractmethod
    def count(self) -> int:
        """Total number of elements selected."""

    @abc.abstractmethod
    def segment_profile(self) -> Tuple[int, int]:
        """``(nsegments, run_elems)``: contiguous segment count and the
        typical segment length in elements."""

    @abc.abstractmethod
    def extract(self, arr: np.ndarray) -> np.ndarray:
        """Pack the selection of *arr* into a fresh contiguous buffer."""

    @abc.abstractmethod
    def insert(self, arr: np.ndarray, buf: np.ndarray) -> None:
        """Unpack contiguous *buf* into the selection of *arr*."""


class ContiguousType(Datatype):
    """``count`` consecutive elements starting at ``offset``."""

    def __init__(self, count: int, offset: int = 0) -> None:
        if count <= 0 or offset < 0:
            raise ExchangeConfigError(
                "count must be positive and offset non-negative"
            )
        self._count = int(count)
        self.offset = int(offset)

    @property
    def count(self) -> int:
        return self._count

    def segment_profile(self) -> Tuple[int, int]:
        return 1, self._count

    def extract(self, arr: np.ndarray) -> np.ndarray:
        flat = arr.reshape(-1)
        return flat[self.offset : self.offset + self._count].copy()

    def insert(self, arr: np.ndarray, buf: np.ndarray) -> None:
        flat = arr.reshape(-1)
        flat[self.offset : self.offset + self._count] = buf.reshape(-1)


class VectorType(Datatype):
    """``nblocks`` runs of ``blocklength`` elements, ``stride`` apart."""

    def __init__(
        self, nblocks: int, blocklength: int, stride: int, offset: int = 0
    ) -> None:
        if nblocks <= 0 or blocklength <= 0:
            raise ExchangeConfigError("nblocks and blocklength must be positive")
        if stride < blocklength:
            raise ExchangeConfigError("stride must be at least blocklength")
        self.nblocks = int(nblocks)
        self.blocklength = int(blocklength)
        self.stride = int(stride)
        self.offset = int(offset)

    @property
    def count(self) -> int:
        return self.nblocks * self.blocklength

    def segment_profile(self) -> Tuple[int, int]:
        if self.stride == self.blocklength:
            return 1, self.count
        return self.nblocks, self.blocklength

    def _index(self) -> np.ndarray:
        starts = self.offset + np.arange(self.nblocks) * self.stride
        return (starts[:, None] + np.arange(self.blocklength)[None, :]).reshape(-1)

    def extract(self, arr: np.ndarray) -> np.ndarray:
        return arr.reshape(-1)[self._index()].copy()

    def insert(self, arr: np.ndarray, buf: np.ndarray) -> None:
        arr.reshape(-1)[self._index()] = buf.reshape(-1)


class SubarrayType(Datatype):
    """An axis-aligned box of a larger array (MPI_Type_create_subarray).

    Shapes are in numpy axis order (last axis fastest).  This is the type
    the MPI_Types exchanger builds for every surface/ghost box.
    """

    def __init__(
        self,
        shape: Tuple[int, ...],
        subshape: Tuple[int, ...],
        start: Tuple[int, ...],
    ) -> None:
        if not (len(shape) == len(subshape) == len(start)):
            raise ExchangeConfigError(
                "shape/subshape/start dimensionality mismatch"
            )
        for full, sub, s in zip(shape, subshape, start):
            if sub <= 0 or s < 0 or s + sub > full:
                raise ExchangeConfigError(
                    f"subarray {subshape}@{start} does not fit in {shape}"
                )
        self.shape = tuple(int(x) for x in shape)
        self.subshape = tuple(int(x) for x in subshape)
        self.start = tuple(int(x) for x in start)

    @property
    def count(self) -> int:
        return math.prod(self.subshape)

    def segment_profile(self) -> Tuple[int, int]:
        # Trailing axes where the subarray spans the full array stay
        # contiguous; the first non-full axis (from the end) breaks runs.
        run = 1
        for full, sub in zip(reversed(self.shape), reversed(self.subshape)):
            run *= sub
            if sub != full:
                break
        nseg = max(1, self.count // run)
        return nseg, run

    @property
    def slices(self) -> Tuple[slice, ...]:
        """The selection as numpy slices of an array of ``shape``."""
        return tuple(slice(s, s + sub) for s, sub in zip(self.start, self.subshape))

    def _check(self, arr: np.ndarray) -> None:
        if arr.shape != self.shape:
            raise ExchangeConfigError(
                f"expected array of shape {self.shape}, got {arr.shape}"
            )

    def extract(self, arr: np.ndarray) -> np.ndarray:
        self._check(arr)
        return np.ascontiguousarray(arr[self.slices]).reshape(-1)

    def insert(self, arr: np.ndarray, buf: np.ndarray) -> None:
        self._check(arr)
        if buf.size != self.count or buf.dtype != arr.dtype:
            raise ExchangeConfigError(
                f"a {buf.size}-element {buf.dtype} buffer does not hold the"
                f" {self.count} {arr.dtype} elements of subarray"
                f" {self.subshape}@{self.start}"
            )
        arr[self.slices] = buf.reshape(self.subshape)
