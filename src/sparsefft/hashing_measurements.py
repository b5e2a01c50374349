"""Bucketed measurements of a sparse residual from spectrum samples.

Every bucket table in the library comes from one primitive, _bucket_tables:
for a hashing and a modulation a it reads the spectrum on the filter's
compact support, weights the samples by the filter, folds them onto the
[b]^d ring, and takes one B-point inverse FFT. Bucket h(i) then holds
sum_j G_{o_i(j)} x_j omega^(a . Sigma j) up to filter leakage. Any number of
(hashing, modulation) rows share one sample table, one fold and one batched
IFFT. The chi term is subtracted exactly in bucket space, from the filter's
time-domain table (_chi_buckets), so it reads no spectrum samples.

The callers are hash_to_bins (one row), acquire_measurements (one call per
hashing, to bound memory) and estimation.estimate_values (one call for all
its repetitions). acquire_measurements fills the full table the recovery
loop consumes: r_max hashings, c_max probe pairs each (redrawn until
digit-balanced), and one measurement per shift vector in the location
ladder. Probes and shifts are plain int64 arrays: MeasurementSet.alphas and
.betas are (r_max, c_max, d), .shifts is (S, d). All later subtraction of
recovered mass goes through update_residual_measurements, which applies the
same exact rule to the stored tables and keeps the sample counter frozen.

The primitive is built to make few passes over memory:

- the spectrum gather runs in chunks of _GATHER_CHUNK = 2^16 entries, so
  the int64 index temporaries (8 bytes each, 512 KiB per chunk) stay in
  cache instead of streaming a multi-megabyte index array through memory;
- samples land straight in the preallocated table and are weighted there
  in place, then folded onto [b]^d in one pass (one pad, one reshape, one
  sum per axis, one roll) before the batched IFFT;
- every root of unity is a lookup in core.unit_roots, so no call evaluates
  a complex exponential.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import (
    DenseSignal,
    GridIndex,
    ParameterError,
    RecoveryParams,
    SparseApprox,
    unit_roots,
)
from .dense_dft import fft_axes
from .filters import BucketFilter, cached_bucket_filter
from .location import _balanced_axes
from .permutation import Hashing, sample_permutation

__all__ = [
    "MeasurementSet",
    "hash_to_bins",
    "acquire_measurements",
    "update_residual_measurements",
]

_GATHER_CHUNK = 1 << 16  # spectrum entries gathered per index batch


def _support_grid(filt: BucketFilter) -> np.ndarray:
    """All filter-support offsets as one (P, d) signed integer array."""
    supp = filt.support
    if filt.d == 1:
        return supp[:, None].copy()
    mesh = np.meshgrid(*([supp] * filt.d), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _support_values(filt: BucketFilter) -> np.ndarray:
    """Filter value per support offset, flattened row-major over the grid."""
    sv = filt.support_values()
    return sv if filt.d == 1 else reduce(np.multiply.outer, [sv] * filt.d).ravel()


def _support_row(hashing: Hashing, grid: np.ndarray, gv: np.ndarray) -> np.ndarray:
    """Filter values gv times the omega^(i . Sigma q) modulation, per offset."""
    n = hashing.n
    sq = (hashing.perm.sigma @ hashing.perm.q.to_array()) % n
    expo = (grid @ sq) % n
    return gv * unit_roots(n, 1)[expo]


def _fold_and_invert(y: np.ndarray, filt: BucketFilter) -> np.ndarray:
    """(M, support-grid) weighted samples -> (M, B) bucket values.

    Folds every support axis onto residues mod b in one pass: one zero pad
    (only when the support width is not a multiple of b), one reshape to
    (M, chunks, b, ..., chunks, b), and one sum per chunk axis in axis
    order, which adds each entry's terms in the same order as folding one
    axis at a time. The leading support offset becomes one roll.
    """
    d, b = filt.d, filt.b
    M = y.shape[0]
    width = len(filt.support)
    chunks = -(-width // b)
    y = y.reshape((M,) + (width,) * d)
    pad = chunks * b - width
    if pad:
        y = np.pad(y, [(0, 0)] + [(0, pad)] * d)
    y = y.reshape((M,) + (chunks, b) * d)
    for axis in range(1, d + 1):
        y = y.sum(axis=axis)
    shift = int(filt.support[0]) % b
    axes = tuple(range(1, d + 1))
    if shift:
        y = np.roll(y, (shift,) * d, axis=axes)
    u = fft_axes(y, axes, inverse=True)
    u *= float(b) ** (d / 2.0)
    return u.reshape(M, b**d)


def _gather_spectrum(
    xhat: DenseSignal,
    hashing: Hashing,
    grid: np.ndarray,
    mods: np.ndarray,
    out: np.ndarray,
) -> None:
    """Write the spectrum samples x-hat[Sigma^T (i - a)] for every offset i
    and modulation a into the (M, P) array out.

    Gathers one fancy index per chunk of whole modulations, each chunk about
    _GATHER_CHUNK entries, so its index temporaries stay cache-resident."""
    n, d = xhat.n, xhat.d
    sigma = hashing.perm.sigma
    # n is a power of two, so "& mask" is "mod n" (also for negative
    # differences) and a row-major stride of n is a shift by log2(n) bits.
    mask, bits = n - 1, n.bit_length() - 1
    base = (grid @ sigma) & mask
    shift = (np.asarray(mods, dtype=np.int64) @ sigma) & mask
    xflat = xhat.values.reshape(-1)
    P = base.shape[0]
    step = max(1, _GATHER_CHUNK // max(P, 1))
    for lo in range(0, shift.shape[0], step):
        hi = min(lo + step, shift.shape[0])
        flat = (base[None, :, 0] - shift[lo:hi, 0, None]) & mask
        for ax in range(1, d):
            flat <<= bits
            flat |= (base[None, :, ax] - shift[lo:hi, ax, None]) & mask
        out[lo:hi] = xflat[flat]


def _bucket_tables(
    xhat: DenseSignal,
    filt: BucketFilter,
    hashings: list[Hashing],
    mods: list[np.ndarray],
) -> np.ndarray:
    """Bucket values of x-hat for every (hashing, modulation) row.

    mods[h] is an (M_h, d) array of modulations for hashings[h], and every
    hashing uses filt. The rows are gathered hashing-major into one
    (sum M_h, P) sample table, weighted in place by their hashing's filter
    row, and folded and inverted together, giving a (sum M_h, B) array.
    Reads P = filt.support_size samples per row; the caller accounts them.
    """
    grid = _support_grid(filt)
    gv = _support_values(filt)
    samples = np.empty((sum(len(m) for m in mods), grid.shape[0]), dtype=np.complex128)
    lo = 0
    for hashing, m in zip(hashings, mods):
        rows = samples[lo : lo + len(m)]
        _gather_spectrum(xhat, hashing, grid, m, rows)
        rows *= _support_row(hashing, grid, gv)
        lo += len(m)
    return _fold_and_invert(samples, filt)


def _chi_buckets(
    chi: SparseApprox,
    hashing: Hashing,
    mods: np.ndarray,
    cells: np.ndarray | None = None,
) -> np.ndarray:
    """Exact bucket contributions of chi under each modulation.

    Entry t adds G(pi(t) - (n/b) j) * chi_t * omega^(a . Sigma t) to bucket j
    under modulation a. Returns an (M, B) array over every bucket, or
    (M, m) at the bucket coordinates `cells` (an (m, d) array), which costs
    O(m * |chi| * d) and builds no (|chi|, B) table. Reads no samples.
    """
    n, d, b = hashing.n, hashing.d, hashing.b
    coords = chi.coords_array()
    pi = hashing.perm.forward_array(coords)
    g_axis = hashing.filter.g_axis
    if cells is None:
        centers = (n // b) * np.arange(b, dtype=np.int64)
        weights = g_axis[(pi[:, 0, None] - centers) % n]
        for ax in range(1, d):
            extra = g_axis[(pi[:, ax, None] - centers) % n]
            weights = (weights[:, :, None] * extra[:, None, :]).reshape(len(coords), -1)
    else:
        offsets = (pi[:, None, :] - (n // b) * cells[None, :, :]) % n
        weights = g_axis[offsets].prod(axis=-1)
    sig_t = (coords @ hashing.perm.sigma.T) % n
    expo = (mods @ sig_t.T) % n
    return (unit_roots(n, 1)[expo] * chi.values) @ weights


def hash_to_bins(
    xhat: DenseSignal, chi: SparseApprox, hashing: Hashing, a: GridIndex
) -> np.ndarray:
    """One bucketing pass over the residual, returning a (b,)*d array.

    Reads |supp(G-hat)| spectrum samples; the caller accounts for them.
    """
    if xhat.domain != "frequency":
        raise ParameterError("hash_to_bins expects a frequency-domain signal")
    if xhat.n != hashing.n or xhat.d != hashing.d:
        raise ParameterError("hashing grid does not match the signal grid")
    if chi.n != xhat.n or chi.d != xhat.d:
        raise ParameterError("chi does not live on the signal grid")
    if len(chi) > 4 * max(hashing.B, 64):
        warnings.warn(
            f"chi has {len(chi)} entries against B={hashing.B} buckets; "
            "subtraction will dominate the running time",
            RuntimeWarning,
            stacklevel=2,
        )
    mods = a.to_array()[None, :]
    u = _bucket_tables(xhat, hashing.filter, [hashing], [mods])[0]
    if len(chi):
        u = u - _chi_buckets(chi, hashing, mods)[0]
    return u.reshape((hashing.b,) * hashing.d)


@dataclass(eq=False)
class MeasurementSet:
    """Every bucket value the recovery loop is allowed to look at.

    buckets[r, t, w] is the [b]^d table (flattened row-major) for hashing r,
    probe pair t = (alphas[r, t], betas[r, t]), and shift shifts[w]; it was
    taken under the modulation alphas[r, t] + betas[r, t] * shifts[w] mod n.
    alphas and betas are (r_max, c_max, d) and shifts is (S, d), all int64;
    shift 0 is the unshifted reference. The sample counter tracks spectrum
    reads and is immune to residual updates.
    """

    params: RecoveryParams
    hashings: list[Hashing]
    alphas: np.ndarray
    betas: np.ndarray
    shifts: np.ndarray
    group_bases: tuple[int, ...]
    buckets: np.ndarray
    sample_counter: int = 0
    # Largest bucket magnitude right after acquisition; relative floors for
    # mu = 0 inputs and zero pruning are anchored to it.
    initial_scale: float = 0.0
    # The spectrum measurements were taken from; estimation stages read it
    # when they draw fresh hashings.
    source: DenseSignal | None = None

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def d(self) -> int:
        return self.params.d

    @property
    def delta(self) -> int:
        return self.params.delta

    def shift_slot(self, g: int, s: int) -> int:
        """Flat index of the shift for digit group g (1-based) and axis s."""
        return 1 + (g - 1) * self.d + s


def _digit_ladder(n: int, d: int, delta: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Shift vectors 0, then n/(Delta^(g-1) * base_g) e_s per digit group,
    as an (S, d) array.

    The last group uses the leftover base n / Delta^(G-1), which keeps every
    shift integral and covers all log2(n) bits.
    """
    groups = 0
    reach = 1
    while reach < n:
        reach *= delta
        groups += 1
    groups = max(groups, 1)
    bases = []
    shifts = [np.zeros((1, d), dtype=np.int64)]
    for g in range(1, groups + 1):
        base = delta if g < groups else n // delta ** (groups - 1)
        bases.append(base)
        shifts.append((n // (delta ** (g - 1) * base)) * np.eye(d, dtype=np.int64))
    return tuple(bases), np.concatenate(shifts)


def _sample_balanced_probes(
    n: int, d: int, c_max: int, delta: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform probe pairs as (alphas, betas), two (c_max, d) arrays, redrawn
    until every axis is digit-balanced.

    Draws alpha_t, beta_t, alpha_{t+1}, ... with one rng call per index, so
    the random stream matches drawing the pairs one by one."""
    for _ in range(1000):
        draws = np.array([rng.integers(0, n, size=d) for _ in range(2 * c_max)])
        if _balanced_axes(draws[1::2], delta).all():
            return draws[0::2], draws[1::2]
    raise RuntimeError(
        f"no digit-balanced probe set of size {c_max} found for delta={delta}"
    )


def _modulations(
    alphas: np.ndarray, betas: np.ndarray, shifts: np.ndarray, n: int
) -> np.ndarray:
    """Modulation vectors a*(1, w) = alpha + beta*w mod n for every
    (probe, shift), probe-major: (c, d) probes and (S, d) shifts give a
    (c * S, d) array."""
    mods = (alphas[:, None, :] + betas[:, None, :] * shifts[None, :, :]) % n
    return mods.reshape(-1, shifts.shape[1])


def acquire_measurements(
    xhat: DenseSignal, params: RecoveryParams, rng: np.random.Generator
) -> MeasurementSet:
    """Sample hashings and probes, then fill every bucket table from x-hat."""
    if xhat.domain != "frequency":
        raise ParameterError("acquisition expects a frequency-domain signal")
    if xhat.n != params.n or xhat.d != params.d:
        raise ParameterError("parameter grid does not match the signal grid")
    n, d = params.n, params.d
    delta = params.delta
    if delta >= n:
        raise ParameterError(f"digit base {delta} needs a grid side above {delta}")
    bases, shifts = _digit_ladder(n, d, delta)
    filt = cached_bucket_filter(n, d, params.B, params.F)

    hashings = []
    alphas = np.empty((params.r_max, params.c_max, d), dtype=np.int64)
    betas = np.empty_like(alphas)
    for r in range(params.r_max):
        hashings.append(Hashing(sample_permutation(n, d, rng), filt))
        alphas[r], betas[r] = _sample_balanced_probes(n, d, params.c_max, delta, rng)

    S = len(shifts)
    buckets = np.empty((params.r_max, params.c_max, S, params.B), dtype=np.complex128)
    counter = 0
    for r, hashing in enumerate(hashings):
        mods = _modulations(alphas[r], betas[r], shifts, n)
        buckets[r] = _bucket_tables(xhat, filt, [hashing], [mods]).reshape(
            params.c_max, S, params.B
        )
        counter += mods.shape[0] * filt.support_size
    return MeasurementSet(
        params=params,
        hashings=hashings,
        alphas=alphas,
        betas=betas,
        shifts=shifts,
        group_bases=bases,
        buckets=buckets,
        sample_counter=counter,
        initial_scale=float(np.abs(buckets).max()) if buckets.size else 0.0,
        source=xhat,
    )


def update_residual_measurements(
    mset: MeasurementSet, chi_delta: SparseApprox
) -> MeasurementSet:
    """Subtract chi_delta's bucket contributions from every stored table.

    The contribution of entry t to bucket j under (hashing, modulation a) is
    G(pi(t) - (n/b) j) * chi_t * omega^(a . Sigma t); it is computed exactly
    from the filter tables, so no spectrum reads happen and repeated updates
    stay consistent with refreshing from scratch.
    """
    if chi_delta.n != mset.n or chi_delta.d != mset.d:
        raise ParameterError("chi_delta does not live on the measurement grid")
    if len(chi_delta) == 0:
        return mset
    for r, hashing in enumerate(mset.hashings):
        mods = _modulations(mset.alphas[r], mset.betas[r], mset.shifts, mset.n)
        increment = _chi_buckets(chi_delta, hashing, mods)
        mset.buckets[r] -= increment.reshape(mset.buckets[r].shape)
    return mset
