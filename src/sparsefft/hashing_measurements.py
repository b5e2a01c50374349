"""Bucketed measurements of a sparse residual from spectrum samples.

hash_to_bins reduces the grid to B buckets: weight the sampled spectrum by
the bucket filter on its compact support, fold onto the [b]^d ring, and take
one B-point inverse FFT. Bucket h(i) then holds
sum_j G_{o_i(j)} (x - chi)_j omega^(a . Sigma j) up to filter leakage. The
chi term is subtracted exactly in bucket space, from the filter's time-domain
table (_chi_buckets), so it reads no spectrum samples.

acquire_measurements fills the full table the recovery loop consumes: r_max
hashings, c_max probe pairs each (redrawn until digit-balanced), and one
measurement per shift vector in the location ladder. All later subtraction
of recovered mass goes through update_residual_measurements, which applies
the same exact rule to the stored tables and keeps the sample counter frozen.
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
    ProbePair,
    RecoveryParams,
    SparseApprox,
    star,
)
from .dense_dft import fft_axes
from .filters import cached_bucket_filter
from .location import check_balanced
from .permutation import Hashing, sample_permutation

__all__ = [
    "MeasurementSet",
    "hash_to_bins",
    "acquire_measurements",
    "update_residual_measurements",
]

_GATHER_CHUNK = 4_000_000  # complex entries per batched spectrum gather


def _support_grid(hashing: Hashing) -> np.ndarray:
    """All filter-support offsets as one (P, d) signed integer array."""
    supp = hashing.filter.support
    if hashing.d == 1:
        return supp[:, None].copy()
    mesh = np.meshgrid(*([supp] * hashing.d), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _support_row(hashing: Hashing, grid: np.ndarray) -> np.ndarray:
    """Filter value times the omega^(i . Sigma q) modulation, per offset."""
    n = hashing.n
    sv = hashing.filter.support_values()
    axes = [sv] * hashing.d
    gv = axes[0] if hashing.d == 1 else reduce(np.multiply.outer, axes).ravel()
    sq = (hashing.perm.sigma @ hashing.perm.q.to_array()) % n
    expo = (grid @ sq) % n
    return gv * np.exp(2j * np.pi * expo / n)


def _fold_axis(arr: np.ndarray, axis: int, b: int, first: int) -> np.ndarray:
    """Collapse one support axis onto residues mod b (first = leading offset)."""
    a = np.moveaxis(arr, axis, -1)
    width = a.shape[-1]
    chunks = -(-width // b)
    pad = chunks * b - width
    if pad:
        a = np.pad(a, [(0, 0)] * (a.ndim - 1) + [(0, pad)])
    s = a.reshape(a.shape[:-1] + (chunks, b)).sum(axis=-2)
    s = np.roll(s, first, axis=-1)
    return np.moveaxis(s, -1, axis)


def _fold_and_invert(y: np.ndarray, hashing: Hashing) -> np.ndarray:
    """(M, support-grid) weighted samples -> (M, B) bucket values."""
    d, b = hashing.d, hashing.b
    first = int(hashing.filter.support[0])
    width = len(hashing.filter.support)
    y = y.reshape((y.shape[0],) + (width,) * d)
    for axis in range(1, d + 1):
        y = _fold_axis(y, axis, b, first)
    u = fft_axes(y, tuple(range(1, d + 1)), inverse=True)
    return (u * float(b) ** (d / 2.0)).reshape(y.shape[0], b**d)


def _gather_spectrum(
    xhat: DenseSignal, hashing: Hashing, grid: np.ndarray, mods: np.ndarray
) -> np.ndarray:
    """Spectrum samples x-hat[Sigma^T (i - a)] for every offset i and
    modulation a, gathered in one fancy index per chunk of modulations."""
    n, d = xhat.n, xhat.d
    sigma = hashing.perm.sigma
    base = (grid @ sigma) % n
    shift = (np.asarray(mods, dtype=np.int64) @ sigma) % n
    strides = np.array([n ** (d - 1 - ax) for ax in range(d)], dtype=np.int64)
    xflat = xhat.values.reshape(-1)
    P = base.shape[0]
    out = np.empty((shift.shape[0], P), dtype=np.complex128)
    step = max(1, _GATHER_CHUNK // max(P, 1))
    for lo in range(0, shift.shape[0], step):
        hi = min(lo + step, shift.shape[0])
        flat = np.zeros((hi - lo, P), dtype=np.int64)
        for ax in range(d):
            flat += ((base[None, :, ax] - shift[lo:hi, ax, None]) % n) * strides[ax]
        out[lo:hi] = xflat[flat]
    return out


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
    return (np.exp(2j * np.pi * expo / n) * chi.values_array()) @ weights


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
    grid = _support_grid(hashing)
    row = _support_row(hashing, grid)
    mods = a.to_array()[None, :]
    samples = _gather_spectrum(xhat, hashing, grid, mods)
    u = _fold_and_invert(samples * row, hashing)[0]
    if len(chi):
        u = u - _chi_buckets(chi, hashing, mods)[0]
    return u.reshape((hashing.b,) * hashing.d)


@dataclass(eq=False)
class MeasurementSet:
    """Every bucket value the recovery loop is allowed to look at.

    buckets[r, t, w] is the [b]^d table (flattened row-major) for hashing r,
    probe pair t, and shift slot w; slot 0 is the unshifted reference. The
    sample counter tracks spectrum reads and is immune to residual updates.
    """

    params: RecoveryParams
    hashings: list[Hashing]
    probes: list[list[ProbePair]]
    shifts: list[GridIndex]
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

    def reference(self, r: int) -> np.ndarray:
        """Unshifted measurements m[r, :, 0] as a (c_max, B) view."""
        return self.buckets[r, :, 0]


def _digit_ladder(n: int, d: int, delta: int) -> tuple[tuple[int, ...], list[GridIndex]]:
    """Shift vectors 0, then n/(Delta^(g-1) * base_g) e_s per digit group.

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
    shifts = [GridIndex.zero(n, d)]
    for g in range(1, groups + 1):
        base = delta if g < groups else n // delta ** (groups - 1)
        bases.append(base)
        step = n // (delta ** (g - 1) * base)
        for s in range(d):
            shifts.append(GridIndex.unit(n, d, s).scaled(step))
    return tuple(bases), shifts


def _sample_balanced_probes(
    n: int, d: int, c_max: int, delta: int, rng: np.random.Generator
) -> list[ProbePair]:
    """Uniform probe pairs, redrawn until every axis is digit-balanced."""
    for _ in range(1000):
        probes = [
            ProbePair(
                GridIndex.from_array(n, rng.integers(0, n, size=d)),
                GridIndex.from_array(n, rng.integers(0, n, size=d)),
            )
            for _ in range(c_max)
        ]
        if all(check_balanced(probes, s, delta) for s in range(d)):
            return probes
    raise RuntimeError(
        f"no digit-balanced probe set of size {c_max} found for delta={delta}"
    )


def _modulations(
    probes: list[ProbePair], shifts: list[GridIndex], n: int, d: int
) -> np.ndarray:
    """Modulation vectors a*(1, w) for every (probe, shift), probe-major."""
    ones = GridIndex.ones(n, d)
    rows = [
        star(p, ProbePair(ones, w)).to_array() for p in probes for w in shifts
    ]
    return np.stack(rows).astype(np.int64)


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
    probe_sets = []
    for _ in range(params.r_max):
        hashings.append(
            Hashing(perm=sample_permutation(n, d, rng), B=params.B, F=params.F, filter=filt)
        )
        probe_sets.append(_sample_balanced_probes(n, d, params.c_max, delta, rng))

    S = len(shifts)
    buckets = np.empty((params.r_max, params.c_max, S, params.B), dtype=np.complex128)
    counter = 0
    for r, (hashing, probes) in enumerate(zip(hashings, probe_sets)):
        grid = _support_grid(hashing)
        row = _support_row(hashing, grid)
        mods = _modulations(probes, shifts, n, d)
        samples = _gather_spectrum(xhat, hashing, grid, mods)
        buckets[r] = _fold_and_invert(samples * row, hashing).reshape(
            params.c_max, S, params.B
        )
        counter += mods.shape[0] * filt.support_size
    return MeasurementSet(
        params=params,
        hashings=hashings,
        probes=probe_sets,
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
    for r, (hashing, probes) in enumerate(zip(mset.hashings, mset.probes)):
        mods = _modulations(probes, mset.shifts, mset.n, mset.d)
        increment = _chi_buckets(chi_delta, hashing, mods)
        mset.buckets[r] -= increment.reshape(mset.buckets[r].shape)
    return mset
