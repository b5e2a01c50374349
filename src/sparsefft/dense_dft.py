"""Orthonormal d-dimensional FFT on power-of-two grids, backed by np.fft.

The forward kernel is exp(-2*pi*i * <i,j>/n) and the inverse flips the sign,
both with a single 1/sqrt(N) normalization (numpy's norm="ortho"). Every
transformed axis must have power-of-two length, as everywhere else in the
library. The independent check is tests/oracles.direct_transform, a
direct summation that shares no code with numpy's transform.

fft_axes takes an optional `out` array that np.fft writes the result into
(numpy >= 2.0). Passing the input itself transforms it in place, which is
how the bucket-table kernel inverts its rows without a second table; the
result has the same bits as the allocating call.
"""
from __future__ import annotations

import numpy as np

from .core import DenseSignal, ParameterError, is_power_of_two

__all__ = ["fft_axes", "forward_dft", "inverse_dft"]


def _transform(
    arr: np.ndarray,
    axes: tuple[int, ...],
    inverse: bool,
    out: np.ndarray | None = None,
) -> np.ndarray:
    for axis in axes:
        m = arr.shape[axis]
        if not is_power_of_two(m):
            raise ParameterError(f"axis {axis} has non power-of-two length {m}")
    fn = np.fft.ifftn if inverse else np.fft.fftn
    return fn(arr, axes=axes, norm="ortho", out=out)


def fft_axes(
    values: np.ndarray,
    axes: tuple[int, ...],
    inverse: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Orthonormal transform along the listed axes, batched over the rest.

    out, when given, is a complex128 array of the input's shape that
    receives the result and is returned; it may be `values` itself.
    """
    return _transform(np.asarray(values, dtype=np.complex128), tuple(axes), inverse, out)


def forward_dft(x: DenseSignal) -> DenseSignal:
    """Time domain to frequency domain, 1/sqrt(N) normalization."""
    if x.domain != "time":
        raise ParameterError(f"forward transform expects a time signal, got {x.domain!r}")
    return DenseSignal(x.n, x.d, _transform(x.values, tuple(range(x.d)), False), "frequency")


def inverse_dft(xhat: DenseSignal) -> DenseSignal:
    """Frequency domain back to time domain; exact inverse of forward_dft."""
    if xhat.domain != "frequency":
        raise ParameterError(
            f"inverse transform expects a frequency signal, got {xhat.domain!r}"
        )
    values = _transform(xhat.values, tuple(range(xhat.d)), True)
    return DenseSignal(xhat.n, xhat.d, values, "time")
