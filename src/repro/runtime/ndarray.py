"""NDArrays and storages — the runtime value model.

Two execution modes share one type (DESIGN.md §5):

* **concrete** — ``data`` is a NumPy array and kernels compute real values
  (tests, examples, small models);
* **abstract** — ``data`` is None; the array carries only shape/dtype, and
  kernels contribute cost but skip arithmetic (paper-scale benchmarks: an
  8B-parameter module compiles and executes its real instruction stream
  without materializing 16 GB of weights).

:class:`Storage` models a raw allocation.  After memory planning (Alg. 3)
many tensors *instantiate* from one storage; the memory profiler accounts
storage allocations, which is exactly the quantity Table 2 reports.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .. import dtypes


class Storage:
    """A raw memory region of ``size`` bytes on a device."""

    _counter = 0

    def __init__(self, size: int, concrete: bool):
        self.size = int(size)
        self.concrete = concrete
        Storage._counter += 1
        self.id = Storage._counter

    def __repr__(self) -> str:  # pragma: no cover
        return f"Storage(#{self.id}, {self.size}B)"


class NDArray:
    """A shaped, typed runtime tensor (possibly abstract)."""

    def __init__(
        self,
        shape: Sequence[int],
        dtype: str,
        data: Optional[np.ndarray] = None,
        storage: Optional[Storage] = None,
    ):
        self.shape: Tuple[int, ...] = tuple(int(d) for d in shape)
        self.dtype = dtypes.check_dtype(dtype)
        self.data = data
        self.storage = storage
        if data is not None:
            if tuple(data.shape) != self.shape:
                raise ValueError(
                    f"data shape {data.shape} does not match {self.shape}"
                )

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_numpy(array: np.ndarray) -> "NDArray":
        array = np.asarray(array)
        if array.ndim > 0 and not array.flags["C_CONTIGUOUS"]:
            # NOTE: ascontiguousarray would promote 0-d scalars to 1-d.
            array = np.ascontiguousarray(array)
        return NDArray(array.shape, dtypes.from_numpy(array.dtype), data=array)

    @staticmethod
    def abstract(shape: Sequence[int], dtype: str) -> "NDArray":
        return NDArray(shape, dtype)

    @staticmethod
    def trusted(shape: Tuple[int, ...], dtype: str,
                storage: Optional[Storage]) -> "NDArray":
        """An abstract array from a tuple of ints and a checked dtype,
        without the constructor's conversions (replay plans build these
        for every call)."""
        array = NDArray.__new__(NDArray)
        array.shape, array.dtype, array.data, array.storage = (
            shape, dtype, None, storage)
        return array

    @staticmethod
    def empty(shape: Sequence[int], dtype: str, concrete: bool,
              storage: Optional[Storage] = None) -> "NDArray":
        data = None
        if concrete:
            data = np.zeros(tuple(int(d) for d in shape), dtypes.to_numpy(dtype))
        return NDArray(shape, dtype, data=data, storage=storage)

    # -- properties -----------------------------------------------------------

    @property
    def is_concrete(self) -> bool:
        return self.data is not None

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def num_elements(self) -> int:
        count = 1
        for d in self.shape:
            count *= d
        return count

    def size_bytes(self) -> int:
        return self.num_elements() * dtypes.itemsize(self.dtype)

    def numpy(self) -> np.ndarray:
        if self.data is None:
            raise ValueError("abstract NDArray has no data")
        return self.data

    def __repr__(self) -> str:  # pragma: no cover
        mode = "concrete" if self.is_concrete else "abstract"
        return f"NDArray({self.shape}, {self.dtype!r}, {mode})"


class ShapeTuple:
    """A runtime first-class shape value (result of ``make_shape``)."""

    def __init__(self, values: Sequence[int]):
        self.values: Tuple[int, ...] = tuple(int(v) for v in values)

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, idx: int) -> int:
        return self.values[idx]

    def __eq__(self, other) -> bool:
        return isinstance(other, ShapeTuple) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ShapeTuple{self.values}"
