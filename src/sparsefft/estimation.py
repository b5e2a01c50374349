"""Median-of-repetitions value estimation at candidate locations.

Each repetition hashes the residual into B buckets under a fresh
permutation and reads one bucket per candidate: u at h(f), unwound by the
filter gain at f's own offset and the modulation phase. The caller picks B
and the filter order F (a `core.StagePlan`'s B_est and F_est). The
repetitions are batched: every repetition's (permutation, modulation) is
drawn first, and one call to the bucket-table primitive
(hashing_measurements._bucket_tables) gives all r_max bucket tables. chi is
subtracted only at the buckets read, one column per location, by the
library's one chi product (hashing_measurements._subtract_chi), which the
measurement tables go through too. The coordinatewise median over
repetitions is within twice the typical per-repetition error of the true
value, so a handful of repetitions drives the failure probability down
geometrically.
Locations are row-major flat int64 indices; an EstimateBatch holds them and
their estimates as aligned arrays. Estimates at or below the magnitude
threshold nu (by np.hypot, which equals abs()) are left out of `kept`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DenseSignal,
    ParameterError,
    SparseApprox,
    _first_seen,
    unit_roots,
)
from .filters import cached_bucket_filter
from .hashing_measurements import _bucket_tables, _subtract_chi
from .permutation import Hashing, sample_permutation

__all__ = ["EstimateBatch", "coordinatewise_median", "estimate_values"]


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


@dataclass
class EstimateBatch:
    """Estimates w_f at every requested location, and the kept subset.

    locations are the distinct requested flat indices in first-seen order
    and estimates[t] belongs to locations[t].
    """

    locations: np.ndarray
    estimates: np.ndarray
    kept: SparseApprox
    samples: int = 0


def estimate_values(
    xhat: DenseSignal,
    chi: SparseApprox,
    L,
    B: int,
    nu: float,
    r_max: int,
    *,
    F: int,
    rng: np.random.Generator,
) -> EstimateBatch:
    """Estimate the residual (x - chi) at each flat index in L.

    Draws r_max fresh B-bucket, order-F hashings from rng; each bins the
    spectrum alone and consumes |supp(G-hat)| spectrum reads, tallied in the
    result. All r_max binnings share one fold and one batched IFFT. chi is
    subtracted exactly at the buckets read, without touching the spectrum.
    kept holds exactly the estimates with |w_f| > nu. A non-finite estimate
    (a NaN or infinite sample read) is a ParameterError.
    """
    if xhat.domain != "frequency":
        raise ParameterError("estimation expects a frequency-domain signal")
    if chi.n != xhat.n or chi.d != xhat.d:
        raise ParameterError("chi does not live on the signal grid")
    if not nu >= 0 or r_max < 1:
        raise ParameterError("need nu >= 0, r_max >= 1")
    n, d = xhat.n, xhat.d

    L = np.asarray(L, dtype=np.int64)
    if L.ndim != 1:
        raise ParameterError(f"locations must be a 1-D array of flat indices, got {L.shape}")
    locations = _first_seen(L)
    if not locations.size:
        return EstimateBatch(locations, np.zeros(0, np.complex128), SparseApprox(n, d))
    if locations.min() < 0 or locations.max() >= xhat.N:
        raise ParameterError("a location does not live on the signal grid")

    mask = n - 1  # n is a power of two, so "& mask" is "mod n"
    filt = cached_bucket_filter(n, d, B, F)
    b = filt.b

    coords = np.stack(np.unravel_index(locations, (n,) * d), axis=-1)
    hashings, zs = [], []
    for _ in range(r_max):
        hashings.append(Hashing(sample_permutation(n, d, rng), filt))
        zs.append(rng.integers(0, n, size=d)[None, :])
    u = _bucket_tables(xhat, filt, hashings, zs)

    w = np.empty((r_max, coords.shape[0]), dtype=np.complex128)
    for rep, (hashing, z) in enumerate(zip(hashings, zs)):
        perm = hashing.perm
        pi = perm.forward_array(coords)
        cells = hashing.bucket_of_images(pi)
        read = u[rep, np.ravel_multi_index(cells.T, (b,) * d)]
        _subtract_chi(read[None], chi, hashing, z, cells)
        gain = filt.g_at((pi - (n // b) * cells) & mask)
        expo = (((coords @ perm.sigma.T) & mask) @ z[0]) & mask
        w[rep] = read / gain * unit_roots(n, -1)[expo]

    estimates = coordinatewise_median(w)
    if not np.isfinite(estimates).all():
        raise ParameterError(
            "an estimate is not finite: the spectrum holds a NaN or infinite sample"
        )
    keep = np.hypot(estimates.real, estimates.imag) > nu
    kept = SparseApprox.from_flat(n, d, locations[keep], estimates[keep])
    return EstimateBatch(locations, estimates, kept, r_max * filt.support_size)
