"""Approximate spectrum evaluation for sparse signals on coarse boxes.

Given a sparse time-domain signal x, computes x-hat on the box
|i|_inf <= b/2 without touching the full grid: convolve x with a flat
window, sample the result on the (n/2b)-spaced lattice, and take a
(2b)^d-point FFT. Each output is within ||x||_2 / N^c of the true value.

The permuted-grid variant evaluates x-hat on {Sigma(i - q)} by resampling
x through the substitution x*_j = omega^(q.j) * x_{Sigma^{-T} j}, which
turns the permuted evaluation set back into a plain box.

A narrow output box cannot always carry a window sharp enough for the
requested accuracy (the ring length caps the window shape), so the scheme
computes internally on the smallest wide-enough box and folds the result
back onto the requested one. When even the widest usable box falls short,
or the box is as fine as the grid itself (2b >= n), a dense FFT answers
exactly.

This module is not on the recovery path: hashing_measurements subtracts chi
exactly in bucket space, from the filter's time-domain table. The module and
FlatWindow stay only because the recovery benchmark (perfbench/) imports
this module in its tracer and smoke tests; they can be deleted together
with that import.
"""
from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from .core import ParameterError, SparseApprox, bucket_side
from .dense_dft import fft_grid, forward_dft
from .filters import (
    FlatWindow,
    build_flat_window,
    max_window_beta,
    required_window_beta,
)
from .permutation import SpectrumPermutation

__all__ = ["semi_equispaced_fft", "shifted_semi_equispaced"]


@lru_cache(maxsize=32)
def _cached_window(n: int, d: int, b: int, c: int) -> tuple[FlatWindow, np.ndarray]:
    fw = build_flat_window(n, d, b, c)
    return fw, fw.g_dense_axis()


def _signed_box_sources(n: int, two_b: int) -> np.ndarray:
    """Grid residues for box positions read as signed offsets in [-b, b)."""
    p = np.arange(two_b, dtype=np.int64)
    signed = ((p + two_b // 2) % two_b) - two_b // 2
    return signed % n


def _dense_box(x: SparseApprox, two_b: int) -> np.ndarray:
    """Exact fallback: full-grid FFT, then gather the box."""
    xhat = forward_dft(x.to_dense(domain="time"))
    src = _signed_box_sources(x.n, two_b)
    return xhat.values[np.ix_(*([src] * x.d))]


def _effective_side(n: int, d: int, b: int, c: int) -> int:
    """Smallest power-of-two axis side >= b whose window meets accuracy c.

    Doubling starts at 2*b so every signed offset the caller may read,
    |i| <= b, stays inside the wider box's valid half-region. The caller
    falls back to a dense FFT when the result reaches the grid itself.
    """
    need = required_window_beta(n**d, c)
    if max_window_beta(n, b) >= need:
        return b
    side = 2 * b
    while 2 * side < n and max_window_beta(n, side) < need:
        side *= 2
    return side


def _windowed_box(x: SparseApprox, b: int, c: int) -> np.ndarray:
    """Window x in time, sample on the (n/2b)-lattice, FFT to the box."""
    n, d = x.n, x.d
    two_b = 2 * b
    _, g_dense = _cached_window(n, d, b, c)
    spacing = n // two_b
    sample_times = np.arange(two_b, dtype=np.int64) * spacing
    y = np.zeros((two_b,) * d, dtype=np.complex128)
    for coords, val in zip(x.coords_array().tolist(), x.values.tolist()):
        positions = []
        weights = []
        for axis in range(d):
            w = g_dense[(sample_times - coords[axis]) % n]
            nz = np.flatnonzero(w)
            positions.append(nz)
            weights.append(w[nz])
        if d == 1:
            y[positions[0]] += val * weights[0]
        else:
            y[np.ix_(*positions)] += val * reduce(np.multiply.outer, weights)
    return fft_grid(y, inverse=False) / float(two_b) ** (d / 2.0)


def semi_equispaced_fft(x: SparseApprox, B: int, c: int) -> np.ndarray:
    """Evaluate x-hat near zero; out[i mod 2b] is valid for |i|_inf <= b/2.

    Returns the full (2b,)^d array of box values; entries outside the
    half-box are only guaranteed when the internal box was widened, so
    callers must not rely on them.
    """
    if c < 2:
        raise ParameterError(f"precision exponent must be >= 2, got c={c}")
    n, d = x.n, x.d
    b = bucket_side(B, d)
    two_b = 2 * b
    if len(x) == 0:
        return np.zeros((two_b,) * d, dtype=np.complex128)
    if two_b >= n or b < 8:
        return _dense_box(x, two_b)
    side = _effective_side(n, d, b, c)
    if 2 * side >= n:
        return _dense_box(x, two_b)
    fine = _windowed_box(x, side, c)
    if side == b:
        return fine
    pos = np.arange(two_b, dtype=np.int64)
    src = np.where(pos <= b, pos, pos - two_b) % (2 * side)
    return fine[np.ix_(*([src] * d))]


def shifted_semi_equispaced(
    x: SparseApprox, perm: SpectrumPermutation, B: int, c: int
) -> np.ndarray:
    """Evaluate x-hat on the permuted box {Sigma(i - q) : |i|_inf <= b/2}.

    out[i mod 2b] approximates x-hat at Sigma(i - q), with the same validity
    region and error bound as semi_equispaced_fft.
    """
    n, d = x.n, x.d
    if perm.n != n or perm.d != d:
        raise ParameterError("permutation grid does not match the signal grid")
    b = bucket_side(B, d)
    if len(x) == 0:
        return np.zeros((2 * b,) * d, dtype=np.complex128)

    # x*_j = omega^(q.j) x_{Sigma^{-T} j}: support moves to Sigma^T t and the
    # value picks up the phase omega^((Sigma q) . t).
    coords = x.coords_array()
    sq = (perm.sigma @ perm.q) % n
    expo = (coords @ sq) % n
    phases = np.exp(2j * np.pi * expo / n)
    moved = np.ravel_multi_index(((coords @ perm.sigma) % n).T, (n,) * d)
    return semi_equispaced_fft(SparseApprox.from_flat(n, d, moved, x.values * phases), B, c)
