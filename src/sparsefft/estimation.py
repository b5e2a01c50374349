"""Median-of-repetitions value estimation at candidate locations.

Each repetition hashes the residual under a fresh permutation and reads one
bucket per candidate: u at h(f), unwound by the filter gain at f's own
offset and the modulation phase. The coordinatewise median over repetitions
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
    is_power_of_two,
    next_power_of_two,
)
from .filters import cached_bucket_filter
from .hashing_measurements import _chi_buckets, hash_to_bins
from .permutation import Hashing, sample_permutation

__all__ = ["EstimateBatch", "coordinatewise_median", "quantile", "estimate_values"]


def coordinatewise_median(values) -> complex:
    """Median of the real parts plus i times the median of the imaginary
    parts. For any complex a, |result - a| <= 2 * median_i |values_i - a|."""
    arr = np.asarray(values, dtype=np.complex128).reshape(-1)
    if arr.size == 0:
        raise ParameterError("median of an empty list")
    return complex(np.median(arr.real), np.median(arr.imag))


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
    B >= scale * k / (epsilon * alpha^(2d))."""
    target = scale * max(k, 1) / (epsilon * alpha ** (2 * d))
    b = next_power_of_two(max(4, math.ceil(target ** (1.0 / d))))
    b = min(b, max(4, n // 2))
    return b**d


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
    consumes |supp(G-hat)| spectrum reads, tallied in the result. chi is
    subtracted exactly at the buckets read, without touching the spectrum.
    kept holds exactly the estimates with |w_f| > nu.
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
    spectrum_only = SparseApprox.empty(n, d)
    w = np.empty((r_max, m), dtype=np.complex128)
    for rep in range(r_max):
        perm = sample_permutation(n, d, rng)
        z = GridIndex.from_array(n, rng.integers(0, n, size=d))
        hashing = Hashing(perm=perm, B=B, F=F, filter=filt)
        u = hash_to_bins(xhat, spectrum_only, hashing, z).reshape(-1)
        batch.samples += filt.support_size

        pi = perm.forward_array(coords)
        buckets = ((2 * pi * b + n) // (2 * n)) % b
        flat = np.zeros(m, dtype=np.int64)
        for ax in range(d):
            flat = flat * b + buckets[:, ax]
        read = u[flat]
        if len(chi):
            read = read - _chi_buckets(chi, hashing, z.to_array()[None, :], buckets)[0]
        offsets = (pi - (n // b) * buckets) % n
        gain = filt.g_at(offsets)
        sig_f = (coords @ perm.sigma.T) % n
        expo = (sig_f @ z.to_array()) % n
        w[rep] = read / gain * np.exp(-2j * np.pi * expo / n)

    for col, f in enumerate(locations):
        est = coordinatewise_median(w[:, col])
        batch.estimates[f] = est
        if abs(est) > nu:
            batch.kept[f] = est
    return batch
