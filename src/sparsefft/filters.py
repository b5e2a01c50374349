"""Bucketing filters and flat windows.

Both constructions are tensor products of 1-D windows, so each filter stores
per-axis tables and evaluates d-dimensional values as products of gathers.

The bucket filter is the F-fold self-convolution of a width-(b+1) frequency
box: in time domain a normalized Dirichlet kernel raised to the F-th power,
(sin(pi*L*j/n) / (L*sin(pi*j/n)))**F with L = b+1. It is 1 at the origin,
nonnegative for even F, at least 0.47**F on the plateau |j| <= n/(2b), decays
like (2/(1+(b/n)|j|))**F, and its spectrum is supported on |v| <= F*b/2.
That spectrum is built from exact integer counts, sqrt(n) * counts / L**F,
where counts is the F-fold self-convolution of ones(L) taken as F-1
prefix-sum window sums: O(F^2 * b) int64 work instead of an O(F * b^2)
float convolution, and values within 2 ulp of the exact rationals. The
counts must stay below 2**63, so (b+1)**(F-1) >= 2**63 is rejected (F = 4
allows b up to 2**20, F = 6 up to 4096). The filter tables are read-only:
cached_bucket_filter shares them between calls.

The flat window is a frequency box of half-width b - b/4 blurred by the
spectrum of a Kaiser time kernel whose main lobe fits inside b/4 bins:
exactly 1 on |v| <= b/2, exactly 0 beyond |v| > b, in [0, 1] across the
transition band. The kernel shape beta controls how far the spectrum can
be pushed below the target N^-(c+1) deviation; the ring length caps beta
at sqrt((2*pi*R*V/n)^2 - pi^2) with R = n/2 - 1 and V = b/4, so callers
needing more accuracy than a given b affords must widen b. Both rules are
exposed as max_window_beta and required_window_beta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ParameterError, bucket_side, is_power_of_two
from .dense_dft import fft_grid

__all__ = [
    "BucketFilter",
    "FlatWindow",
    "build_bucket_filter",
    "build_flat_window",
    "cached_bucket_filter",
    "max_window_beta",
    "required_window_beta",
]


def max_window_beta(n: int, b: int) -> float:
    """Largest Kaiser shape a width-b window can carry on a ring of n points.

    The kernel occupies the whole ring (half-width R = n/2 - 1) and its
    spectral main lobe must fit inside the b/4 transition bins, which bounds
    the shape at sqrt((2*pi*R*V/n)^2 - pi^2) with V = b/4.
    """
    R = n // 2 - 1
    V = b // 4
    reach = 2.0 * math.pi * R * V / n
    return math.sqrt(max(reach * reach - math.pi**2, 0.0))


def required_window_beta(N: int, c: int) -> float:
    """Kaiser shape needed to push spectral deviation below N**-(c+1).

    Calibrated against measured spectra: deviation tracks 0.4 * exp(-beta),
    so beta = log(0.4 * N**(c+1)) meets the target with a small margin.
    """
    return math.log(0.4) + (c + 1) * math.log(max(N, 4))


def _dirichlet(n: int, L: int) -> np.ndarray:
    """sin(pi*L*j/n) / (L*sin(pi*j/n)) on j = 0..n-1, with the j=0 limit 1."""
    j = np.arange(n)
    theta = np.pi * j / n
    num = np.sin(L * theta)
    den = L * np.sin(theta)
    out = np.ones(n, dtype=np.float64)
    np.divide(num, den, out=out, where=j > 0)
    return out


def _signed_range(n: int, halfwidth: int) -> np.ndarray:
    """Contiguous signed offsets: -w..w, or one full ring period if too wide."""
    if 2 * halfwidth + 1 >= n:
        return np.arange(-(n // 2), n - (n // 2), dtype=np.int64)
    return np.arange(-halfwidth, halfwidth + 1, dtype=np.int64)


@dataclass
class BucketFilter:
    """Per-axis tables for one bucketing filter (see module docstring).

    `g_axis` holds the length-n time-domain window (g_axis[0] == 1).
    `support` is the contiguous signed offset range where its orthonormal
    spectrum ghat is nonzero, the set a bucketing measurement has to touch,
    and `ghat_support` holds ghat on those offsets, aligned with `support`.
    """

    n: int
    d: int
    B: int
    F: int
    g_axis: np.ndarray
    ghat_support: np.ndarray
    support: np.ndarray

    @property
    def b(self) -> int:
        return bucket_side(self.B, self.d)

    @property
    def support_size(self) -> int:
        """Number of frequency samples one bucketing pass reads."""
        return len(self.support) ** self.d

    @property
    def plateau_gain(self) -> float:
        """Smallest gain a coefficient has in its own bucket: g at the
        plateau's edge n/(2b) on every axis."""
        return float(self.g_axis[self.n // (2 * self.b)]) ** self.d

    def g_at(self, offsets: np.ndarray) -> np.ndarray:
        """Vectorized g over an (..., d) array of integer offsets."""
        gathered = self.g_axis[np.asarray(offsets, dtype=np.int64) & (self.n - 1)]
        return gathered.prod(axis=-1)


def _box_power_counts(L: int, F: int) -> np.ndarray:
    """counts[m] = number of ways to write m as a sum of F integers in [0, L),
    for m = 0..F*(L-1): the F-fold self-convolution of ones(L), exactly.

    Each of the F-1 window sums of width L is a difference of prefix sums,
    so the whole table costs O(F^2 * L) int64 operations. The counts of F-1
    terms sum to L**(F-1), the largest prefix sum formed, so the caller must
    keep that below 2**63.
    """
    counts = np.ones(L, dtype=np.int64)
    for _ in range(F - 1):
        prefix = np.zeros(len(counts) + 2 * L - 1, dtype=np.int64)
        np.cumsum(counts, out=prefix[L : L + len(counts)])
        prefix[L + len(counts) :] = prefix[L + len(counts) - 1]
        counts = prefix[L:] - prefix[:-L]
    return counts


def build_bucket_filter(n: int, d: int, B: int, F: int) -> BucketFilter:
    """Construct the B-bucket sharpness-F filter for the (n, d) grid.

    The spectrum is sqrt(n) * counts / L**F with L = b+1, where counts is
    the exact integer F-fold self-convolution of a length-L box
    (_box_power_counts), folded onto the ring in integers. Building it costs
    O(F^2 * b) int64 work plus the length-n Dirichlet power; before the
    sqrt(n) scale each value is the correctly rounded quotient whenever
    L**F < 2**53. The counts are int64, so L**(F-1) >= 2**63 is a
    ParameterError (2 * L**(F-1) when b = n): F = 2 never overflows, F = 4
    allows b up to 2**20 and F = 6 up to 4096. The returned tables are
    read-only, since cached_bucket_filter shares them.
    """
    if not is_power_of_two(n):
        raise ParameterError(f"grid side must be a power of two, got n={n}")
    if F % 2 != 0 or F < 2 * d:
        raise ParameterError(f"F must be even and >= 2d, got F={F}, d={d}")
    b = bucket_side(B, d)
    if b < 4:
        raise ParameterError(f"need at least 4 buckets per axis, got b={b}")
    if b > n:
        raise ParameterError(f"more buckets than frequencies: b={b} > n={n}")
    # The largest integer formed is a count of F-1 terms (at most
    # L**(F-1)) or a folded count: at most L**(F-1) as well, since the last
    # term is then fixed mod n, except when b = n, where it can be 0 or n.
    L = b + 1
    if L ** (F - 1) * (2 if b == n else 1) >= 2**63:
        raise ParameterError(
            f"filter spectrum counts overflow int64: (b+1)**(F-1) is too "
            f"large for b={b}, F={F}"
        )

    g_axis = _dirichlet(n, L) ** F

    # Spectrum: the exact counts, folded onto the ring, then scaled once.
    counts = _box_power_counts(L, F)
    half = (len(counts) - 1) // 2  # F*b/2
    support = _signed_range(n, half)
    folded = np.zeros(len(support), dtype=np.int64)
    positions = np.arange(-half, half + 1, dtype=np.int64)
    np.add.at(folded, (positions - support[0]) % n, counts)
    ghat_support = folded / float(L**F)
    ghat_support *= math.sqrt(n)
    for table in (g_axis, ghat_support, support):
        table.flags.writeable = False

    return BucketFilter(
        n=n,
        d=d,
        B=B,
        F=F,
        g_axis=g_axis,
        ghat_support=ghat_support,
        support=support,
    )


@lru_cache(maxsize=16)
def cached_bucket_filter(n: int, d: int, B: int, F: int) -> BucketFilter:
    """Shared bucket filters for repeated hashings (their tables are
    read-only)."""
    return build_bucket_filter(n, d, B, F)


@dataclass
class FlatWindow:
    """Per-axis tables for one flat window.

    `offsets`/`g_vals` give the compactly supported time-domain window;
    `ghat_ideal_axis` is the reference spectrum: exactly 1 on |v| <= b/2,
    exactly 0 for |v| > b, in [0, 1] on the transition band.
    """

    n: int
    d: int
    b: int
    c: int
    offsets: np.ndarray
    g_vals: np.ndarray
    ghat_ideal_axis: np.ndarray

    def g_dense_axis(self) -> np.ndarray:
        """Length-n time-domain window with zeros outside the support."""
        dense = np.zeros(self.n, dtype=np.float64)
        dense[self.offsets % self.n] = self.g_vals
        return dense


def build_flat_window(n: int, d: int, b: int, c: int) -> FlatWindow:
    """Construct the width-b flat window at precision exponent c."""
    if not is_power_of_two(n):
        raise ParameterError(f"grid side must be a power of two, got n={n}")
    if not is_power_of_two(b) or b < 8:
        raise ParameterError(f"b must be a power of two >= 8, got b={b}")
    if b > n:
        raise ParameterError(f"window wider than the ring: b={b} > n={n}")
    if c < 2:
        raise ParameterError(f"precision exponent must be >= 2, got c={c}")

    N = n**d
    V = b // 4
    h_box = b - V
    R = n // 2 - 1
    beta = min(required_window_beta(N, c), max_window_beta(n, b))

    # Time domain: Dirichlet (box of half-width h_box) times a Kaiser kernel
    # spanning the ring, normalized so the spectrum is exactly 1 at frequency
    # zero. R = n/2 - 1 keeps the signed offsets collision-free mod n.
    offsets = _signed_range(n, R)
    t = offsets.astype(np.float64)
    L_box = 2 * h_box + 1
    theta = np.pi * offsets / n
    num = np.sin(L_box * theta)
    den = L_box * np.sin(theta)
    dirichlet = np.ones(offsets.shape, dtype=np.float64)
    np.divide(num, den, out=dirichlet, where=offsets != 0)
    kaiser = np.i0(beta * np.sqrt(np.maximum(1.0 - (t / R) ** 2, 0.0))) / np.i0(beta)
    g_vals = dirichlet * kaiser
    g_vals /= g_vals.sum() / math.sqrt(n)

    # Ideal spectrum: box of half-width h_box blurred by the Kaiser kernel's
    # spectrum restricted to |v| <= V (clipped nonnegative, unit mass).
    # Suffix sums of the blur give the transition ramp, so the plateau
    # |v| <= h_box - V = b/2 is exactly 1, everything past h_box + V = b is
    # exactly 0, and the ramp is monotone in [0, 1].
    kernel_dense = np.zeros(n, dtype=np.float64)
    kernel_dense[offsets % n] = kaiser
    kernel_hat = fft_grid(kernel_dense).real
    blur = np.maximum(np.roll(kernel_hat, V)[: 2 * V + 1], 0.0)
    blur /= blur.sum()
    ramp = np.minimum(np.cumsum(blur[::-1])[::-1], 1.0)
    ideal = np.zeros(n, dtype=np.float64)
    ideal[np.arange(-(h_box - V), h_box - V + 1, dtype=np.int64) % n] = 1.0
    for j in range(1, 2 * V + 1):
        ideal[(h_box - V + j) % n] = ramp[j]
        ideal[-(h_box - V + j) % n] = ramp[j]

    return FlatWindow(
        n=n,
        d=d,
        b=b,
        c=c,
        offsets=offsets,
        g_vals=g_vals,
        ghat_ideal_axis=ideal,
    )
