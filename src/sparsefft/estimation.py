"""Median-of-repetitions value estimation at candidate locations.

Each repetition hashes the residual under a fresh permutation and reads one
bucket per candidate: u at h(f), unwound by the filter gain at f's own
offset and the modulation phase. The repetitions are batched: every
repetition's (permutation, modulation) is drawn first, their spectrum
samples go into one (r_max, P) table, and one fold and one batched IFFT
give all r_max bucket tables. The coordinatewise median over repetitions
is within twice the typical per-repetition error of the true value, so a
handful of repetitions drives the failure probability down geometrically.
Estimates at or below the magnitude threshold nu are discarded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DenseSignal,
    GridIndex,
    ParameterError,
    SparseApprox,
    Tunables,
    capped_bucket_count,
    is_power_of_two,
    unit_roots,
)
from .filters import cached_bucket_filter
from .hashing_measurements import (
    _chi_buckets,
    _fold_and_invert,
    _gather_spectrum,
    _support_grid,
    _support_row,
    _support_values,
)
from .permutation import Hashing, sample_permutation

__all__ = ["EstimateBatch", "coordinatewise_median", "quantile", "estimate_values"]


def coordinatewise_median(values) -> complex | np.ndarray:
    """Median of the real parts plus i times the median of the imaginary
    parts, taken along axis 0. For any complex a,
    |result - a| <= 2 * median_i |values_i - a|.

    A 1-D input gives a complex scalar; an (s, m) table gives the m column
    medians as a complex array, each equal to the scalar median of its column.
    """
    arr = np.asarray(values, dtype=np.complex128)
    if arr.size == 0:
        raise ParameterError("median of an empty list")
    out = np.empty(arr.shape[1:], dtype=np.complex128)
    out.real = np.median(arr.real, axis=0)
    out.imag = np.median(arr.imag, axis=0)
    return complex(out) if out.ndim == 0 else out


def quantile(values, gamma: float) -> float:
    """The ceil(gamma * s)-th largest element of a nonempty list."""
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ParameterError("quantile of an empty list")
    if not 0.0 < gamma <= 1.0:
        raise ParameterError(f"gamma must lie in (0, 1], got {gamma}")
    rank = math.ceil(gamma * arr.size)
    return float(np.sort(arr)[arr.size - rank])


@dataclass
class EstimateBatch:
    """Estimates w_f at every requested location, and the kept subset."""

    n: int
    d: int
    estimates: dict[GridIndex, complex] = field(default_factory=dict)
    kept: dict[GridIndex, complex] = field(default_factory=dict)
    samples: int = 0

    def kept_sparse(self) -> SparseApprox:
        return SparseApprox(self.n, self.d, self.kept)


def _estimation_buckets(
    n: int, d: int, k: int, epsilon: float, alpha: float, scale: float
) -> int:
    """Smallest B = b^d (b a power of two, 4 <= b <= n/2) with
    B >= scale * k / (epsilon * alpha^(2d)); see `capped_bucket_count`."""
    return capped_bucket_count(n, d, scale * max(k, 1) / (epsilon * alpha ** (2 * d)))


def estimate_values(
    xhat: DenseSignal,
    chi: SparseApprox,
    L,
    k: int,
    epsilon: float,
    nu: float,
    r_max: int,
    *,
    rng: np.random.Generator,
    alpha: float = 0.25,
    tunables: Tunables | None = None,
    b_override: int | None = None,
) -> EstimateBatch:
    """Estimate the residual (x - chi) at each location in L.

    Draws r_max fresh hashings from rng; each bins the spectrum alone and
    consumes |supp(G-hat)| spectrum reads, tallied in the result. All r_max
    binnings share one fold and one batched IFFT. chi is subtracted exactly
    at the buckets read, without touching the spectrum. kept holds exactly
    the estimates with |w_f| > nu.
    """
    if xhat.domain != "frequency":
        raise ParameterError("estimation expects a frequency-domain signal")
    if chi.n != xhat.n or chi.d != xhat.d:
        raise ParameterError("chi does not live on the signal grid")
    if k < 1 or epsilon <= 0 or nu < 0 or r_max < 1:
        raise ParameterError("need k >= 1, epsilon > 0, nu >= 0, r_max >= 1")
    n, d = xhat.n, xhat.d
    tun = tunables or Tunables()

    locations = list(dict.fromkeys(L))
    batch = EstimateBatch(n=n, d=d)
    if not locations:
        return batch
    for f in locations:
        if f.n != n or f.d != d:
            raise ParameterError(f"location {f} does not live on the signal grid")

    if b_override is not None:
        if not is_power_of_two(b_override) or not 4 <= b_override <= n:
            raise ParameterError(f"invalid bucket override b={b_override}")
        B = b_override**d
    else:
        B = _estimation_buckets(n, d, k, epsilon, alpha, tun.bucket_scale)
    F = 2 * d
    filt = cached_bucket_filter(n, d, B, F)
    b = filt.b

    coords = np.stack([f.to_array() for f in locations])
    m = coords.shape[0]
    hashings, zs = [], []
    for _ in range(r_max):
        perm = sample_permutation(n, d, rng)
        zs.append(rng.integers(0, n, size=d))
        hashings.append(Hashing(perm=perm, B=B, F=F, filter=filt))

    grid = _support_grid(filt)
    gv = _support_values(filt)
    samples = np.empty((r_max, grid.shape[0]), dtype=np.complex128)
    for rep, (hashing, z) in enumerate(zip(hashings, zs)):
        samples[rep] = _gather_spectrum(xhat, hashing, grid, z[None, :])[0]
        samples[rep] *= _support_row(hashing, grid, gv)
    u = _fold_and_invert(samples, filt)
    batch.samples += r_max * filt.support_size

    w = np.empty((r_max, m), dtype=np.complex128)
    for rep, (hashing, z) in enumerate(zip(hashings, zs)):
        perm = hashing.perm
        pi = perm.forward_array(coords)
        buckets = ((2 * pi * b + n) // (2 * n)) % b
        flat = np.zeros(m, dtype=np.int64)
        for ax in range(d):
            flat = flat * b + buckets[:, ax]
        read = u[rep, flat]
        if len(chi):
            read = read - _chi_buckets(chi, hashing, z[None, :], buckets)[0]
        offsets = (pi - (n // b) * buckets) % n
        gain = filt.g_at(offsets)
        sig_f = (coords @ perm.sigma.T) % n
        expo = (sig_f @ z) % n
        w[rep] = read / gain * unit_roots(n, -1)[expo]

    for f, est in zip(locations, coordinatewise_median(w).tolist()):
        batch.estimates[f] = est
        if abs(est) > nu:
            batch.kept[f] = est
    return batch
