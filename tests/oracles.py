"""Independent reference implementations the test suite checks against.

Most of this is written from the mathematical definitions with plain index
arithmetic and lookup tables, deliberately avoiding numpy's FFT (which
backs the library's dense_dft), folding tricks, and cached filter
machinery. Costs are quadratic or worse, so keep the grids small.

The reference_* functions are different: they are the straightforward
versions of optimized library kernels (per-digit location vote, the
angle-based vote of one digit, per-axis fold, per-repetition estimation,
per-draw probe sampling, the adjugate inverse of a permutation matrix).
The optimized kernels must match them exactly, with np.array_equal, so
they share the library's arithmetic on purpose; the one exception is chi's
contribution to an estimate, which reference_estimate sums directly
(chi_bucket_sums), so with a nonempty chi it matches to rounding only.

Two helpers name objects the recovery path never builds whole, because it
reads the spectrum only at hashed, permuted points: hash_to_bins is one
(hashing, modulation) bucket table, computed by the library's own
_bucket_tables so that the brute-force sums can check it, with chi's
contribution summed directly (chi_bucket_sums), and apply_P is the dense
permuted and modulated spectrum, written from its definition for the
permutation identity. chi_bucket_sums shares no code with the library's
chi product, so the oracles that subtract chi check it.

main_stage is the derived main stage with some fields replaced, the way a
test picks geometry the plan would not derive.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np

from sparsefft import DenseSignal, ParameterError, RecoveryParams, SparseApprox, StagePlan
from sparsefft.dense_dft import fft_axes
from sparsefft.estimation import coordinatewise_median
from sparsefft.filters import BucketFilter
from sparsefft.hashing_measurements import _bucket_tables
from sparsefft.permutation import Hashing, SpectrumPermutation, sample_permutation


def main_stage(n: int, d: int, k: int, **fields) -> StagePlan:
    """`RecoveryParams.derive(n, d, k).main` with each given field replaced;
    a field given as None keeps its derived value."""
    main = RecoveryParams.derive(n, d, k).main
    return replace(main, **{name: value for name, value in fields.items() if value is not None})


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
    vals = x.values
    if coords.size == 0:
        return np.zeros(len(points), dtype=np.complex128)
    table = root_table(n)
    expo = (-(np.asarray(points, dtype=np.int64) % n) @ coords.T) % n
    return table[expo] @ vals / np.sqrt(N)


def brute_bucket_sums(
    y_time: np.ndarray, hashing: Hashing, a: np.ndarray
) -> np.ndarray:
    """Bucket values u_h = sum_j G(pi(j) - (n/b) h) y_j w^(a . Sigma j)
    for a (d,) modulation a.

    y_time is the dense time-domain residual; the sum runs over every grid
    index for every bucket, with G read from the hashing's per-axis window.
    """
    n, d, b = hashing.n, hashing.d, hashing.b
    idx = all_indices(n, d)
    pi = hashing.perm.forward_array(idx)
    table = root_table(n)
    expo = (idx @ (hashing.perm.sigma.T @ np.asarray(a))) % n
    phased = y_time.reshape(-1) * table[expo]
    g_axis = hashing.filter.g_axis
    out = np.empty((b,) * d, dtype=np.complex128)
    for h in all_indices(b, d):
        off = (pi - (n // b) * h) % n
        out[tuple(h)] = (g_axis[off].prod(axis=1) * phased).sum()
    return out


def chi_bucket_sums(
    chi: SparseApprox, hashing: Hashing, a: np.ndarray, cells: np.ndarray
) -> np.ndarray:
    """chi's contribution sum_t G(pi(t) - (n/b) j) chi_t w^(a . Sigma t) to
    the bucket at each coordinate j of the (m, d) cells under the (d,)
    modulation a, summed directly over chi's entries, as an (m,) array."""
    n, b = hashing.n, hashing.b
    coords = chi.coords_array()
    pi = hashing.perm.forward_array(coords)
    expo = (coords @ ((hashing.perm.sigma.T @ a) % n)) % n
    phased = chi.values * np.exp(2j * np.pi * expo / n)
    off = (pi[None, :, :] - (n // b) * cells[:, None, :]) % n
    return (hashing.filter.g_axis[off].prod(axis=2) * phased).sum(axis=1)


def hash_to_bins(
    xhat: DenseSignal, chi: SparseApprox, hashing: Hashing, a: np.ndarray
) -> np.ndarray:
    """One bucketing pass over the residual xhat - chi under the (d,)
    integer modulation a, as a (b,)*d array: the library's bucket kernel on
    one row, then chi's exact bucket contributions (chi_bucket_sums)
    subtracted at every bucket."""
    if xhat.domain != "frequency":
        raise ParameterError("hash_to_bins expects a frequency-domain signal")
    mods = np.asarray(a, dtype=np.int64).reshape(1, hashing.d) % hashing.n
    u = _bucket_tables(xhat, hashing.filter, [hashing], [mods])[0]
    if len(chi):
        u = u - chi_bucket_sums(chi, hashing, mods[0], all_indices(hashing.b, hashing.d))
    return u.reshape((hashing.b,) * hashing.d)


def apply_P(perm: SpectrumPermutation, a: np.ndarray, xhat: DenseSignal) -> DenseSignal:
    """Permute and modulate a dense spectrum; a is a (d,) integer vector.

    Entry i of the result is xhat[Sigma^T (i - a)] * omega^(i . Sigma q),
    which in time domain shuffles samples to pi(i) and modulates them by
    omega^(a . Sigma i).
    """
    if xhat.domain != "frequency":
        raise ParameterError("apply_P expects a frequency-domain signal")
    n, d = xhat.n, xhat.d
    coords = all_indices(n, d)
    src = ((coords - np.asarray(a, dtype=np.int64)) @ perm.sigma) % n
    values = xhat.values[tuple(src.T)] * root_table(n)[(coords @ (perm.sigma @ perm.q)) % n]
    return DenseSignal(n=n, d=d, values=values.reshape((n,) * d), domain="frequency")


def random_sparse_time(
    n: int, d: int, k: int, rng: np.random.Generator, min_mag: float = 0.5
) -> SparseApprox:
    """k distinct time-domain spikes with magnitudes in [min_mag, min_mag + 1)."""
    flat = rng.choice(n**d, size=k, replace=False)
    values = []
    for _ in range(k):
        mag = min_mag + rng.random()
        phase = rng.random() * 2 * np.pi
        values.append(mag * np.exp(1j * phase))
    return SparseApprox.from_flat(n, d, flat, values)


def flat_of(coords: np.ndarray, n: int) -> np.ndarray:
    """Row-major flat indices of an (m, d) coordinate array, by plain
    arithmetic."""
    out = []
    for row in np.asarray(coords).tolist():
        flat = 0
        for c in row:
            flat = flat * n + c
        out.append(flat)
    return np.array(out, dtype=np.int64)


def dense_time(x: SparseApprox) -> DenseSignal:
    """The sparse map as a dense time-domain signal."""
    return x.to_dense(domain="time")


def reference_locate(mset, r: int) -> np.ndarray:
    """Per-digit location vote over every bucket of hashing r: the decoded
    flat indices in bucket order, each once.

    The straightforward decoder: for every digit group and every candidate
    digit, rotate each probe's corrected ratio by that digit's root and
    count the probes landing within ratio_tolerance of 1, over all B
    buckets, including those that already failed an earlier group. A
    probe casts no vote when its reference is at most the set's cut, its mu
    floor as the plateau edge of a bucket reads it: plateau gain *
    mu_floor_rel * initial_scale.
    """
    params = mset.params
    tun = params.tunables
    n, d, B = mset.n, mset.d, params.B
    c_max = mset.betas.shape[1]
    ref = mset.buckets[r, :, 0, :]
    cut = mset.hashings[r].filter.plateau_gain * tun.mu_floor_rel * mset.initial_scale
    invalid = np.abs(ref) <= cut
    safe_ref = np.where(invalid, 1.0, ref)
    alive = np.ones(B, dtype=bool)
    fvec = np.zeros((B, d), dtype=np.int64)
    min_votes = tun.vote_fraction * c_max - 1e-9
    for w, s, base, place, _ in params.digit_steps:
        betas = mset.betas[r, :, s]
        step = n // (place * base)
        xi = mset.buckets[r, :, w, :] / safe_ref
        corr_expo = (step * betas[:, None] * fvec[None, :, s]) % n
        corrected = xi * np.exp(-2j * np.pi * corr_expo / n)
        votes = np.empty((base, B), dtype=np.int64)
        for digit in range(base):
            root = np.exp(-2j * np.pi * ((digit * betas) % base) / base)
            eta = root[:, None] * corrected
            ok = (np.abs(eta - 1.0) < tun.ratio_tolerance) & ~invalid
            votes[digit] = ok.sum(axis=0)
        passed = votes >= min_votes
        n_pass = passed.sum(axis=0)
        alive &= n_pass == 1
        fvec[:, s] += place * np.where(n_pass == 1, passed.argmax(axis=0), 0)
    rows = (fvec[alive] @ mset.hashings[r].perm.sigma_inv.T) % n
    found = dict.fromkeys(flat_of(rows, n).tolist())
    return np.array(list(found), dtype=np.int64)


def reference_vote(
    meas: np.ndarray,
    ref: np.ndarray,
    invalid: np.ndarray,
    betas: np.ndarray,
    partial: np.ndarray,
    n: int,
    step: int,
    base: int,
    tun,
) -> tuple[np.ndarray, np.ndarray]:
    """One digit's vote for m buckets by the angle of each ratio: the rule
    location._decode_digit replaces with sign tests.

    meas and ref are (c, m) tables under the digit's shift and unshifted,
    invalid marks the references that cast no vote, betas is (c, m) and
    partial (m,). Each corrected ratio's nearest base-th root comes from
    np.angle and rint, and the probe is accepted when the ratio rotated
    onto 1 by that root lies within ratio_tolerance of 1. Returns
    (unique, chosen): whether exactly one digit passed, and the first digit
    that passed.
    """
    xi = meas / np.where(invalid, 1.0, ref)
    corr_expo = (step * betas * partial[None, :]) & (n - 1)
    corrected = xi * np.exp(-2j * np.pi * corr_expo / n)
    nearest = np.rint(np.angle(corrected) * (base / (2 * np.pi)))
    nearest = nearest.astype(np.int64) & (base - 1)
    eta = np.exp(-2j * np.pi * nearest / base) * corrected
    ok = (np.abs(eta - 1.0) < tun.ratio_tolerance) & ~invalid
    targets = (np.arange(base)[:, None, None] * betas[None]) & (base - 1)
    votes = (ok & (nearest == targets)).sum(axis=1)
    passed = votes >= tun.vote_fraction * len(betas) - 1e-9
    return passed.sum(axis=0) == 1, passed.argmax(axis=0)


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


def reference_fold_and_invert(y: np.ndarray, filt: BucketFilter) -> np.ndarray:
    """(M, support-grid) weighted samples -> (M, B) bucket values, folding
    one support axis at a time, then one batched inverse transform."""
    d, b = filt.d, filt.b
    first = int(filt.support[0])
    width = len(filt.support)
    y = y.reshape((y.shape[0],) + (width,) * d)
    for axis in range(1, d + 1):
        y = _fold_axis(y, axis, b, first)
    u = fft_axes(y, tuple(range(1, d + 1)), inverse=True)
    return (u * float(b) ** (d / 2.0)).reshape(y.shape[0], b**d)


def reference_estimate(
    xhat: DenseSignal,
    chi: SparseApprox,
    locations: np.ndarray,
    filt: BucketFilter,
    r_max: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Median estimates at each (distinct) flat location from r_max separate
    hash_to_bins calls, one repetition at a time, chi's contribution summed
    directly at the buckets read (chi_bucket_sums): (estimates in location
    order, samples read)."""
    n, d, b, B, F = xhat.n, xhat.d, filt.b, filt.B, filt.F
    coords = np.stack(np.unravel_index(locations, (n,) * d), axis=-1)
    m = coords.shape[0]
    w = np.empty((r_max, m), dtype=np.complex128)
    samples = 0
    for rep in range(r_max):
        perm = sample_permutation(n, d, rng)
        z = rng.integers(0, n, size=d)
        hashing = Hashing(perm, filt)
        u = hash_to_bins(xhat, SparseApprox.empty(n, d), hashing, z).reshape(-1)
        samples += filt.support_size
        pi = perm.forward_array(coords)
        buckets = ((2 * pi * b + n) // (2 * n)) % b
        flat = np.zeros(m, dtype=np.int64)
        for ax in range(d):
            flat = flat * b + buckets[:, ax]
        read = u[flat]
        if len(chi):
            read = read - chi_bucket_sums(chi, hashing, z, buckets)
        offsets = (pi - (n // b) * buckets) % n
        gain = filt.g_at(offsets)
        sig_f = (coords @ perm.sigma.T) % n
        expo = (sig_f @ z) % n
        w[rep] = read / gain * np.exp(-2j * np.pi * expo / n)
    return coordinatewise_median(w), samples


def _reference_det(m: list[list[int]]) -> int:
    """Exact integer determinant by Laplace expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    total = 0
    for col in range(len(m)):
        minor = [row[:col] + row[col + 1 :] for row in m[1:]]
        term = m[0][col] * _reference_det(minor)
        total += term if col % 2 == 0 else -term
    return total


def reference_inverse_mod(sigma: np.ndarray, n: int) -> np.ndarray | None:
    """Inverse of sigma mod the power of two n as det^-1 times the adjugate
    (the transposed cofactors), or None when the determinant is even."""
    m = [[int(v) % n for v in row] for row in np.asarray(sigma).tolist()]
    size = len(m)
    det = _reference_det(m)
    if det % 2 == 0:
        return None
    adj = [[1]] if size == 1 else [[0] * size for _ in range(size)]
    for r in range(size if size > 1 else 0):
        for c in range(size):
            minor = [[m[i][j] for j in range(size) if j != c] for i in range(size) if i != r]
            adj[c][r] = (-1) ** (r + c) * _reference_det(minor)
    det_inv = pow(det, -1, n)
    return np.array([[(det_inv * v) % n for v in row] for row in adj], dtype=np.int64)


def _reference_balanced(betas: list[int], delta: int) -> bool:
    """The 49/100 left-half-plane rule on one axis's betas, one digit and
    probe at a time."""
    for digit in range(1, delta):
        hits = sum(1 for b_s in betas if delta <= 4 * ((digit * b_s) % delta) <= 3 * delta)
        if hits * 100 < 49 * len(betas):
            return False
    return True


def reference_balanced_probes(
    n: int, d: int, c_max: int, delta: int, rng: np.random.Generator
) -> tuple[list[tuple[list[int], list[int]]], int]:
    """Probe pairs (alpha, beta) drawn one pair at a time and redrawn until
    every axis is balanced: (probes, number of sets drawn)."""
    for attempt in range(1, 1001):
        probes = [
            (rng.integers(0, n, size=d).tolist(), rng.integers(0, n, size=d).tolist())
            for _ in range(c_max)
        ]
        if all(_reference_balanced([b[s] for _, b in probes], delta) for s in range(d)):
            return probes, attempt
    raise RuntimeError("no balanced probe set")
