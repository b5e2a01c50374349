"""Bucketing filters.

A bucket filter is a tensor product of 1-D windows, so it stores per-axis
tables and evaluates d-dimensional values as products of gathers.

The bucket filter is the F-fold self-convolution of a width-(b+1) frequency
box: in time domain a normalized Dirichlet kernel raised to the F-th power,
(sin(pi*L*j/n) / (L*sin(pi*j/n)))**F with L = b+1. It is 1 at the origin,
nonnegative for even F, at least 0.47**F on the plateau |j| <= n/(2b), decays
like (2/(1+(b/n)|j|))**F, and its spectrum is supported on |v| <= F*b/2.
That spectrum is built from exact integer counts, sqrt(n) * counts / L**F,
where counts is the F-fold self-convolution of ones(L) taken as F-1
prefix-sum window sums: O(F^2 * b) int64 work instead of an O(F * b^2)
float convolution, and values within 2 ulp of the exact rationals. The
counts must stay below 2**63 (core._filter_side, the rule that says which
filters exist). The filter tables are read-only: cached_bucket_filter
shares them between calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ParameterError, _filter_side, _pass_width, bucket_side, is_power_of_two

__all__ = ["BucketFilter", "build_bucket_filter", "cached_bucket_filter"]


def _dirichlet(n: int, L: int) -> np.ndarray:
    """sin(pi*L*j/n) / (L*sin(pi*j/n)) on j = 0..n-1, with the j=0 limit 1."""
    j = np.arange(n)
    theta = np.pi * j / n
    num = np.sin(L * theta)
    den = L * np.sin(theta)
    out = np.ones(n, dtype=np.float64)
    np.divide(num, den, out=out, where=j > 0)
    return out


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
    L**F < 2**53. `core._filter_side` decides which (n, d, B, F) have a
    filter (a ParameterError for any other, count overflow included). The
    returned tables are read-only, since cached_bucket_filter shares them.
    """
    if not is_power_of_two(n):
        raise ParameterError(f"grid side must be a power of two, got n={n}")
    b = _filter_side(n, d, B, F)
    L = b + 1
    g_axis = _dirichlet(n, L) ** F

    # Spectrum: the exact counts, folded onto the ring, then scaled once.
    # The support is the pass width's contiguous signed offsets: -F*b/2 ..
    # F*b/2, or one full ring period once that spans it.
    counts = _box_power_counts(L, F)
    half = (len(counts) - 1) // 2  # F*b/2
    width = _pass_width(n, b, F)
    support = np.arange(-(width // 2), width - width // 2, dtype=np.int64)
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

