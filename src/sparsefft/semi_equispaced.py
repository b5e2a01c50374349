"""Exact spectrum values of a sparse signal on a coarse box.

With b = B^(1/d), `semi_equispaced_fft` returns x-hat at every signed offset
i in [-b, b)^d, as a (2b,)^d array indexed by i mod 2b, and
`shifted_semi_equispaced` returns x-hat at Sigma(i - q) on the same box.
Both answer exactly, to rounding, from one dense transform of the whole
grid (`_dense_box`), however sparse x is.

This module is not on the recovery path: hashing_measurements subtracts chi
exactly in bucket space, from the filter's time-domain table. It stays only
because the recovery benchmark (perfbench/) imports it in its tracer and
smoke tests, and it goes when the benchmark drops that import (ROADMAP:
the bench refresh, then the deletion of what the recovery path never
calls).
"""
from __future__ import annotations

import numpy as np

from .core import ParameterError, SparseApprox, bucket_side
from .dense_dft import forward_dft
from .permutation import SpectrumPermutation

__all__ = ["semi_equispaced_fft", "shifted_semi_equispaced"]


def _signed_box_sources(n: int, two_b: int) -> np.ndarray:
    """Grid residues for box positions read as signed offsets in [-b, b)."""
    p = np.arange(two_b, dtype=np.int64)
    signed = ((p + two_b // 2) % two_b) - two_b // 2
    return signed % n


def _dense_box(x: SparseApprox, two_b: int) -> np.ndarray:
    """Full-grid FFT, then gather the box."""
    xhat = forward_dft(x.to_dense(domain="time"))
    src = _signed_box_sources(x.n, two_b)
    return xhat.values[np.ix_(*([src] * x.d))]


def semi_equispaced_fft(x: SparseApprox, B: int) -> np.ndarray:
    """x-hat on the box: out[i mod 2b] = x-hat(i) for every signed offset
    i in [-b, b)^d, b = B^(1/d)."""
    two_b = 2 * bucket_side(B, x.d)
    if len(x) == 0:
        return np.zeros((two_b,) * x.d, dtype=np.complex128)
    return _dense_box(x, two_b)


def shifted_semi_equispaced(
    x: SparseApprox, perm: SpectrumPermutation, B: int
) -> np.ndarray:
    """x-hat on the permuted box: out[i mod 2b] = x-hat(Sigma(i - q)) for
    every signed offset i in [-b, b)^d."""
    n, d = x.n, x.d
    if perm.n != n or perm.d != d:
        raise ParameterError("permutation grid does not match the signal grid")
    # x*_j = omega^(q.j) x_{Sigma^{-T} j}: support moves to Sigma^T t and the
    # value picks up the phase omega^((Sigma q) . t), which turns the
    # permuted box back into a plain one.
    coords = x.coords_array()
    sq = (perm.sigma @ perm.q) % n
    expo = (coords @ sq) % n
    phases = np.exp(2j * np.pi * expo / n)
    moved = np.ravel_multi_index(((coords @ perm.sigma) % n).T, (n,) * d)
    return semi_equispaced_fft(SparseApprox.from_flat(n, d, moved, x.values * phases), B)
