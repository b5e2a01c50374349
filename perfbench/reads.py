"""Distinct-read recorder for a spectrum array.

`ReadRecorder` stands in for `DenseSignal.values` during a traced run. Index
reads (`rec[idx]`, also after `reshape`/`ravel`) return the real values and
log the grid positions they touched in a shared `ReadLog`: a boolean mask
for distinct reads and a count of all values read. Every access that cannot
be attributed to positions -- ufuncs, NumPy functions, `__array__`, `copy`,
`astype`, basic slices -- logs all it could have seen, which for a
whole-array access is all N positions.

The recorder's own buffer is a read-only, zero-stride NaN array, so an access
that slips past every hook (say `np.asarray(rec)`) reads NaN, not the
spectrum. The traced output then differs from the untraced one, and the
benchmark reports the bypass instead of undercounting reads.
"""
from __future__ import annotations

import numpy as np

__all__ = ["ReadLog", "ReadRecorder"]


class ReadLog:
    """Reads of one N-point array: which positions, and how many values."""

    def __init__(self, size: int) -> None:
        self.mask = np.zeros(size, dtype=bool)
        self.reads = 0

    @property
    def distinct(self) -> int:
        return int(np.count_nonzero(self.mask))

    def mark(self, positions) -> None:
        self.mask[positions] = True
        self.reads += int(np.size(positions))

    def mark_all(self) -> None:
        self.mask[:] = True
        self.reads += self.mask.size


def _poison(shape: tuple[int, ...]) -> np.ndarray:
    cell = np.full(1, complex(np.nan, np.nan))
    return np.lib.stride_tricks.as_strided(
        cell, shape=shape, strides=(0,) * len(shape), writeable=False
    )


class ReadRecorder(np.ndarray):
    """Index-recording view of a C-ordered array (see the module docstring)."""

    def __new__(cls, data: np.ndarray, log: ReadLog | None = None,
                pos: np.ndarray | None = None) -> "ReadRecorder":
        data = np.ascontiguousarray(data)
        obj = _poison(data.shape).view(cls)
        obj._data = data
        obj.log = ReadLog(data.size) if log is None else log
        obj._pos = np.arange(data.size, dtype=np.int64).reshape(data.shape) if pos is None else pos
        return obj

    def __array_finalize__(self, obj) -> None:
        # Views made by methods not overridden here keep the NaN buffer and
        # no data, so reading them cannot return spectrum values.
        self._data = None
        self.log = getattr(obj, "log", None)
        self._pos = None

    def _mark_all(self) -> None:
        if self.log is not None:
            self.log.mark_all()

    def __getitem__(self, key):
        if self._data is None:
            self._mark_all()
            return np.asarray(super().__getitem__(key))
        self.log.mark(self._pos[key])
        return self._data[key]

    def reshape(self, *shape, **kwargs) -> "ReadRecorder":
        if self._data is None:
            return super().reshape(*shape, **kwargs)
        return ReadRecorder(
            self._data.reshape(*shape, **kwargs),
            self.log,
            self._pos.reshape(*shape, **kwargs),
        )

    def ravel(self, order: str = "C") -> "ReadRecorder":
        if order != "C":
            self._mark_all()
            return super().ravel(order)
        return self.reshape(-1)

    def _plain(self) -> np.ndarray:
        self._mark_all()
        return self._data if self._data is not None else self.view(np.ndarray)

    def copy(self, order: str = "C") -> np.ndarray:
        return self._plain().copy(order)

    def astype(self, *args, **kwargs) -> np.ndarray:
        return self._plain().astype(*args, **kwargs)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        arr = self._plain()
        return arr if dtype is None else arr.astype(dtype, copy=False)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = tuple(_unwrap(x) for x in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(_unwrap(x) for x in kwargs["out"])
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        return func(*_unwrap(args), **_unwrap(kwargs))


def _unwrap(obj):
    """Replace every recorder inside obj by its plain data, marking it read."""
    if isinstance(obj, ReadRecorder):
        return obj._plain()
    if type(obj) in (list, tuple):
        return type(obj)(_unwrap(x) for x in obj)
    if type(obj) is dict:
        return {key: _unwrap(val) for key, val in obj.items()}
    return obj
