"""Independent reference implementations the test suite checks against.

Everything here is written from the mathematical definitions with plain
index arithmetic and lookup tables, deliberately avoiding numpy's FFT (which
backs the library's dense_dft), folding tricks, and cached filter
machinery. Costs are quadratic or worse, so keep the grids small.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from sparsefft import DenseSignal, GridIndex, SparseApprox
from sparsefft.permutation import Hashing


@lru_cache(maxsize=32)
def root_table(n: int) -> np.ndarray:
    """exp(2*pi*i*m/n) for m = 0..n-1."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def all_indices(n: int, d: int) -> np.ndarray:
    """Every grid index as an (n^d, d) int64 array, row-major order."""
    return np.indices((n,) * d).reshape(d, -1).T.astype(np.int64)


def direct_transform(values: np.ndarray, n: int, d: int, inverse: bool = False) -> np.ndarray:
    """O(N^2) evaluation of the orthonormal transform by direct summation.

    Phases come from an integer dot product mod n and a root lookup table,
    chunked over output rows so the (N, N) phase matrix never materializes.
    """
    N = n**d
    idx = all_indices(n, d)
    flat = np.asarray(values, dtype=np.complex128).reshape(N)
    table = root_table(n)
    sign = 1 if inverse else -1
    out = np.empty(N, dtype=np.complex128)
    chunk = max(1, (1 << 22) // N)
    for start in range(0, N, chunk):
        rows = idx[start : start + chunk]
        expo = (sign * (rows @ idx.T)) % n
        out[start : start + chunk] = table[expo] @ flat
    return (out / np.sqrt(N)).reshape((n,) * d)


def exact_spectrum_at(x: SparseApprox, points: np.ndarray) -> np.ndarray:
    """x-hat at the given (m, d) frequency points, by direct summation."""
    n, d = x.n, x.d
    N = n**d
    coords = x.coords_array()
    vals = x.values_array()
    if coords.size == 0:
        return np.zeros(len(points), dtype=np.complex128)
    table = root_table(n)
    expo = (-(np.asarray(points, dtype=np.int64) % n) @ coords.T) % n
    return table[expo] @ vals / np.sqrt(N)


def brute_bucket_sums(
    y_time: np.ndarray, hashing: Hashing, a: GridIndex
) -> np.ndarray:
    """Bucket values u_h = sum_j G(pi(j) - (n/b) h) y_j w^(a . Sigma j).

    y_time is the dense time-domain residual; the sum runs over every grid
    index for every bucket, with G read from the hashing's per-axis window.
    """
    n, d, b = hashing.n, hashing.d, hashing.b
    idx = all_indices(n, d)
    pi = hashing.perm.forward_array(idx)
    table = root_table(n)
    expo = (idx @ (hashing.perm.sigma.T @ a.to_array())) % n
    phased = y_time.reshape(-1) * table[expo]
    g_axis = hashing.filter.g_axis
    out = np.empty((b,) * d, dtype=np.complex128)
    for h in all_indices(b, d):
        off = (pi - (n // b) * h) % n
        out[tuple(h)] = (g_axis[off].prod(axis=1) * phased).sum()
    return out


def random_sparse_time(
    n: int, d: int, k: int, rng: np.random.Generator, min_mag: float = 0.5
) -> SparseApprox:
    """k distinct time-domain spikes with magnitudes in [min_mag, min_mag + 1)."""
    N = n**d
    flat = rng.choice(N, size=k, replace=False)
    coords = np.stack(np.unravel_index(flat, (n,) * d), axis=1)
    entries = {}
    for row in coords:
        mag = min_mag + rng.random()
        phase = rng.random() * 2 * np.pi
        entries[GridIndex.from_array(n, row)] = mag * np.exp(1j * phase)
    return SparseApprox(n, d, entries)


def dense_time(x: SparseApprox) -> DenseSignal:
    """The sparse map as a dense time-domain signal."""
    return x.to_dense(domain="time")


def modulation_of(pair, shift: GridIndex) -> GridIndex:
    """The measurement modulation a*(1, w) for probe pair a and shift w."""
    alpha, beta = pair.alpha, pair.beta
    n = alpha.n
    coords = (alpha.to_array() + beta.to_array() * shift.to_array()) % n
    return GridIndex.from_array(n, coords)
